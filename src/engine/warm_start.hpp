#pragma once

// Bridge between the engine's two memos and the persistent on-disk store
// (src/persist/). One WarmStart instance spans a CLI invocation:
//
//   construction  — reads every intact shard and decodes its records
//                   straight into the decomposition and CEC memos before
//                   any optimization runs;
//   flush_round() — called by the engine at round boundaries (and safe from
//                   concurrent batch items): publishes the memo entries
//                   gained since the last flush as a new shard;
//   finalize()    — last flush plus shard compaction.
//
// The memos are the only in-memory copy of a persisted entry: between
// flushes the bridge keeps keys, never encoded bytes. Compaction re-reads
// the files it merges.
//
// Determinism: imported entries replay their stored WorkCost, so a
// budgeted warm run charges the identical unit stream as the cold run that
// produced the entries — cache state (in-process or on-disk) can never
// move the exhaustion point. Entries whose evaluation contained a fault
// are not exported: recomputing them replays the same fault and cost
// (injection is a pure function of (cone, params)), and the store stays
// free of fault records.
//
// The imported key sets are immutable after construction, so the warm-hit
// probes the workers call take no locks.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "persist/store.hpp"

namespace lls {

class WarmStart {
public:
    /// Opens the store rooted at `dir`, reads it, and seeds the live
    /// caches. Throws LlsError{IoError} only when ReadWrite mode cannot
    /// create the directory; every data-level problem (corrupt shards,
    /// undecodable records) is contained in the report.
    WarmStart(std::string dir, persist::StoreMode mode);

    WarmStart(const WarmStart&) = delete;
    WarmStart& operator=(const WarmStart&) = delete;

    const persist::LoadReport& report() const { return report_; }

    /// Records decoded into the live caches at construction (0 = cold).
    std::size_t imported_records() const {
        return imported_decompose_.size() + imported_cec_.size();
    }

    /// Publishes every memo entry that is not imported, not yet published
    /// and not faulted as one shard. Called at engine round boundaries;
    /// cheap when nothing is new. A failed write is noted in the report and
    /// retried at the next flush (the entries are still in the memos).
    void flush_round();

    /// Final flush, then compaction of accumulated shard files.
    void finalize();

    /// Warm-hit probes: the engine calls these on live-cache hits; keys
    /// that came from the store bump `persist.warm_hits`. Lock-free (the
    /// imported sets are frozen after construction).
    void note_decompose_hit(std::uint64_t cone_hash, std::uint64_t params_fp);
    void note_cec_hit(std::uint64_t hash_low, std::uint64_t hash_high);

private:
    using KeySet = std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, U64PairHash>;

    const std::string dir_;
    const persist::StoreMode mode_;
    KeySet imported_decompose_;
    KeySet imported_cec_;
    MetricCounter* warm_hits_ = nullptr;

    std::mutex mutex_;  ///< serializes flushes and compaction; guards the members below
    persist::LoadReport report_;
    KeySet published_decompose_;
    KeySet published_cec_;
    /// Shards this process loaded or published, plus rejected ones of the
    /// current format version: what compaction merges and deletes.
    std::vector<std::string> merged_files_;
};

}  // namespace lls
