#pragma once

// Bridge between the engine's two memos and the persistent on-disk store
// (src/persist/). One WarmStart instance spans a CLI invocation:
//
//   construction  — opens the store, loads every intact shard, decodes the
//                   records, and seeds the decomposition and CEC memos
//                   before any optimization runs;
//   flush_round() — called by the engine at round boundaries (and safe from
//                   concurrent batch items): exports entries the live
//                   caches gained since the last flush and publishes them
//                   as a new shard;
//   finalize()    — last flush plus shard compaction.
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
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "persist/store.hpp"

namespace lls {

class WarmStart {
public:
    /// Opens the store rooted at `dir`, loads it, and seeds the live
    /// caches. Throws LlsError{IoError} only when a *writing* mode cannot
    /// create the directory; every data-level problem (corrupt shards,
    /// undecodable records) is contained in the report.
    WarmStart(std::string dir, persist::StoreMode mode);
    ~WarmStart();

    WarmStart(const WarmStart&) = delete;
    WarmStart& operator=(const WarmStart&) = delete;

    const persist::LoadReport& report() const { return store_.report(); }

    /// Records decoded into the live caches at construction (0 = cold).
    std::size_t imported_records() const { return imported_records_; }

    /// Exports new cache entries and publishes them as a shard. Called at
    /// engine round boundaries; cheap when nothing is new. Publication
    /// failures are contained in the store (retried at the next flush).
    void flush_round();

    /// Final flush + compaction of accumulated shard files.
    void finalize();

    /// Warm-hit probes: the engine calls these on live-cache hits; keys
    /// that came from the store bump `persist.warm_hits`. Lock-free (the
    /// imported sets are frozen after construction).
    void note_decompose_hit(std::uint64_t cone_hash, std::uint64_t params_fp);
    void note_cec_hit(std::uint64_t hash_low, std::uint64_t hash_high);

private:
    void import_loaded();

    persist::MemoStore store_;
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, U64PairHash> imported_decompose_;
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, U64PairHash> imported_cec_;
    std::size_t imported_records_ = 0;
    MetricCounter* warm_hits_ = nullptr;
};

}  // namespace lls
