#include "engine/warm_start.hpp"

#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/memo.hpp"
#include "persist/codec.hpp"

namespace lls {

namespace fs = std::filesystem;
using persist::Section;

WarmStart::WarmStart(std::string dir, persist::StoreMode mode)
    : dir_(std::move(dir)), mode_(mode) {
    Metrics& metrics = Metrics::global();
    warm_hits_ = &metrics.counter("persist.warm_hits");
    if (mode_ == persist::StoreMode::ReadWrite) {
        std::error_code ec;
        fs::create_directories(dir_, ec);
        if (ec && !fs::is_directory(dir_))
            throw LlsError(ErrorKind::IoError,
                           "cannot create cache directory '" + dir_ + "': " + ec.message(),
                           "persist");
    }

    MetricCounter& undecodable = metrics.counter("persist.load.undecodable");
    for (const std::string& path : persist::list_shards(dir_)) {
        ++report_.files_scanned;
        persist::Records records;
        try {
            records = persist::read_shard(path);
        } catch (const std::exception& e) {
            // Rejected whole: nothing of a corrupt shard is kept, so a
            // half-loaded file can never mix intact and damaged records.
            // Compaction may delete a damaged file of the current version
            // (its content is re-derived by then), never one of another.
            ++report_.files_rejected;
            report_.notes.push_back(e.what());
            if (std::string_view(e.what()).find("format version") == std::string_view::npos)
                merged_files_.push_back(path);
            metrics.counter("persist.load.rejected").add();
            continue;
        }
        for (const auto& [section_key, value] : records) {
            try {
                const auto key = persist::decode_pair_key(section_key.second);
                if (section_key.first == Section::Decompose) {
                    decompose_memo().put(key, persist::decode_cone_evaluation(value));
                    imported_decompose_.insert(key);
                } else {
                    cec_memo().put(key, persist::decode_cec_verdict(value));
                    imported_cec_.insert(key);
                }
            } catch (const std::exception&) {
                undecodable.add();  // checksum passed but the value is inconsistent: recompute
            }
        }
        report_.records_loaded += records.size();
        ++report_.files_loaded;
        merged_files_.push_back(path);
        metrics.counter("persist.load.shards").add();
        metrics.counter("persist.load.records").add(records.size());
    }
    report_.cold_start = report_.records_loaded == 0;
}

void WarmStart::flush_round() {
    if (mode_ != persist::StoreMode::ReadWrite) return;
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    std::lock_guard<std::mutex> lock(mutex_);
    // Only new entries are encoded, so a steady-state flush walks the
    // memos but serializes nothing.
    persist::Records records;
    std::vector<Key> decompose_keys, cec_keys;
    decompose_memo().for_each([&](const Key& key, const ConeEvaluation& evaluation) {
        if (evaluation.fault || imported_decompose_.count(key) || published_decompose_.count(key))
            return;  // a fault is replayed identically by the recompute
        records.emplace(
            std::pair(Section::Decompose, persist::encode_pair_key(key.first, key.second)),
            persist::encode_cone_evaluation(evaluation));
        decompose_keys.push_back(key);
    });
    cec_memo().for_each([&](const Key& key, bool equivalent) {
        if (imported_cec_.count(key) || published_cec_.count(key)) return;
        records.emplace(std::pair(Section::Cec, persist::encode_pair_key(key.first, key.second)),
                        persist::encode_cec_verdict(equivalent));
        cec_keys.push_back(key);
    });
    if (records.empty()) return;
    const auto path = persist::write_shard(dir_, records, report_.notes);
    if (!path) return;
    published_decompose_.insert(decompose_keys.begin(), decompose_keys.end());
    published_cec_.insert(cec_keys.begin(), cec_keys.end());
    merged_files_.push_back(*path);
}

void WarmStart::finalize() {
    flush_round();
    if (mode_ != persist::StoreMode::ReadWrite) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (persist::list_shards(dir_).size() <= 8) return;  // the compaction threshold

    // Re-read what this process loaded or published (later files win, as
    // at load) and write the union as one snapshot, then delete only the
    // files it subsumes. Shards of concurrent processes we never loaded
    // stay untouched; a merged file that another process's compaction has
    // removed, or that was rejected at load, contributes nothing.
    persist::Records merged;
    for (const std::string& path : merged_files_) {
        try {
            for (auto& [key, value] : persist::read_shard(path))
                merged.insert_or_assign(key, std::move(value));
        } catch (const std::exception&) {
        }
    }
    if (merged.empty()) return;
    const auto snapshot = persist::write_shard(dir_, merged, report_.notes);
    if (!snapshot) return;  // delete nothing
    std::error_code ec;
    for (const std::string& path : merged_files_) fs::remove(path, ec);
    merged_files_ = {*snapshot};
    Metrics::global().counter("persist.store.compactions").add();
}

void WarmStart::note_decompose_hit(std::uint64_t cone_hash, std::uint64_t params_fp) {
    if (imported_decompose_.count({cone_hash, params_fp})) warm_hits_->add();
}

void WarmStart::note_cec_hit(std::uint64_t hash_low, std::uint64_t hash_high) {
    if (imported_cec_.count({hash_low, hash_high})) warm_hits_->add();
}

}  // namespace lls
