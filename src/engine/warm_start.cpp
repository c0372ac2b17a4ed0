#include "engine/warm_start.hpp"

#include <string>
#include <utility>
#include <vector>

#include "engine/memo.hpp"
#include "persist/codec.hpp"

namespace lls {

namespace {

using persist::Section;

/// Copies one section's loaded records out of the store before touching
/// any live cache: the store mutex and the cache stripe locks are never
/// held together, so flushes (stripe -> store) and imports can never form
/// a lock cycle.
std::vector<std::pair<std::string, std::string>> snapshot_section(
    const persist::MemoStore& store, Section section) {
    std::vector<std::pair<std::string, std::string>> records;
    store.for_each_loaded(section, [&](std::string_view key, std::string_view value) {
        records.emplace_back(std::string(key), std::string(value));
    });
    return records;
}

}  // namespace

WarmStart::WarmStart(std::string dir, persist::StoreMode mode)
    : store_(std::move(dir), mode) {
    warm_hits_ = &Metrics::global().counter("persist.warm_hits");
    store_.load();
    import_loaded();
}

WarmStart::~WarmStart() = default;

void WarmStart::import_loaded() {
    MetricCounter& undecodable = Metrics::global().counter("persist.load.undecodable");

    for (auto& [key, value] : snapshot_section(store_, Section::Decompose)) {
        try {
            const auto pair = persist::decode_pair_key(key);
            ConeEvaluation evaluation = persist::decode_cone_evaluation(value);
            decompose_memo().put(pair, std::move(evaluation));
            imported_decompose_.insert(pair);
            ++imported_records_;
        } catch (const std::exception&) {
            undecodable.add();  // checksum passed but the value is inconsistent: recompute
        }
    }
    for (auto& [key, value] : snapshot_section(store_, Section::Cec)) {
        try {
            const auto pair = persist::decode_pair_key(key);
            cec_memo().put(pair, persist::decode_cec_verdict(value));
            imported_cec_.insert(pair);
            ++imported_records_;
        } catch (const std::exception&) {
            undecodable.add();
        }
    }
}

void WarmStart::flush_round() {
    if (!persist::mode_writes(store_.mode())) return;
    // record() skips every known key without invoking the encoder, so a
    // steady-state flush walks the caches but serializes nothing.
    decompose_memo().for_each(
        [&](const std::pair<std::uint64_t, std::uint64_t>& key, const ConeEvaluation& evaluation) {
            if (evaluation.fault) return;  // recompute replays the fault identically
            store_.record(Section::Decompose, persist::encode_pair_key(key.first, key.second),
                          [&] { return persist::encode_cone_evaluation(evaluation); });
        });
    cec_memo().for_each([&](const std::pair<std::uint64_t, std::uint64_t>& key, bool equivalent) {
        store_.record(Section::Cec, persist::encode_pair_key(key.first, key.second),
                      [&] { return persist::encode_cec_verdict(equivalent); });
    });
    store_.publish();
}

void WarmStart::finalize() {
    flush_round();
    store_.compact();
}

void WarmStart::note_decompose_hit(std::uint64_t cone_hash, std::uint64_t params_fp) {
    if (imported_decompose_.count({cone_hash, params_fp})) warm_hits_->add();
}

void WarmStart::note_cec_hit(std::uint64_t hash_low, std::uint64_t hash_high) {
    if (imported_cec_.count({hash_low, hash_high})) warm_hits_->add();
}

}  // namespace lls
