#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"

namespace lls {

/// Point-in-time counters of one BddManager (tests, benches, and the
/// shared-vs-private comparison in bench_parallel). The same numbers are
/// flushed into the global metrics registry (`bdd.unique.*`,
/// `bdd.ite_cache.*`) when the manager is destroyed, so `lls_opt --metrics`
/// aggregates them across every manager the process created.
struct BddStats {
    std::uint64_t unique_hits = 0;     ///< make_node found an existing node
    std::uint64_t nodes_created = 0;   ///< make_node allocated a fresh node
    std::uint64_t ite_hits = 0;        ///< computed-table hits
    std::uint64_t ite_misses = 0;      ///< computed-table misses
    std::uint64_t ite_evictions = 0;   ///< lossy overwrites of a live entry
};

/// Reduced ordered binary decision diagrams with a fixed variable order.
///
/// Node 0 is the terminal FALSE, node 1 the terminal TRUE. Internal nodes
/// are canonical (unique table) so equality of functions is pointer
/// equality. Operations go through ITE with a computed table. No dynamic
/// reordering — the package exists as an exact-function substrate (exact
/// SPCF computation, cross-checks of the simulation-based machinery), not
/// as a general-purpose verification engine.
///
/// The manager is safe for concurrent use from many threads (Sylvan-style,
/// scaled down to this package's ambitions):
///
/// - The unique table is sharded over `kShards` independently locked hash
///   maps; node storage is a segmented arena of immutable packed words, so
///   readers never take a lock. Canonicity is preserved under contention:
///   two threads racing to create the same (var, low, high) node serialize
///   on the owning shard and observe one ref.
/// - The computed table (ITE cache) is a fixed-size, direct-mapped, *lossy*
///   array under striped mutexes: an insert simply overwrites the slot, so
///   the table is capacity-bounded for the life of the manager (the cap is
///   tied to the node limit). Losing an entry only costs recomputation —
///   results are canonical, so a recomputation returns the identical ref.
/// - Node-limit accounting is one global atomic aggregated across shards:
///   allocation attempt `node_limit` throws LlsError{ResourceExhausted} no
///   matter which shard (or thread) triggers it, matching the serial
///   manager's threshold exactly.
///
/// Determinism: ref *values* depend on allocation order and therefore on
/// the thread schedule, but every public decision made from refs is an
/// equality test between canonical refs, which is schedule-independent.
/// Callers must never persist or compare ref values across managers.
class BddManager {
public:
    using Ref = std::uint32_t;
    static constexpr Ref kFalse = 0;
    static constexpr Ref kTrue = 1;

    explicit BddManager(int num_vars, std::size_t node_limit = 1u << 22);
    ~BddManager();

    BddManager(const BddManager&) = delete;
    BddManager& operator=(const BddManager&) = delete;

    int num_vars() const { return num_vars_; }
    std::size_t num_nodes() const { return num_nodes_.load(std::memory_order_acquire); }

    Ref bdd_false() const { return kFalse; }
    Ref bdd_true() const { return kTrue; }
    /// The projection function of variable `var`.
    Ref variable(int var);

    Ref ite(Ref f, Ref g, Ref h);
    Ref band(Ref f, Ref g) { return ite(f, g, kFalse); }
    Ref bor(Ref f, Ref g) { return ite(f, kTrue, g); }
    Ref bnot(Ref f) { return ite(f, kFalse, kTrue); }
    Ref bxor(Ref f, Ref g) { return ite(f, bnot(g), g); }

    /// Cofactor with respect to a variable.
    Ref cofactor(Ref f, int var, bool value);
    /// Existential quantification of a single variable.
    Ref exists(Ref f, int var);
    /// Universal quantification of a single variable.
    Ref forall(Ref f, int var);

    bool is_false(Ref f) const { return f == kFalse; }
    bool is_true(Ref f) const { return f == kTrue; }

    /// Evaluates f under a complete assignment (bit v of `assignment` is
    /// the value of variable v).
    bool evaluate(Ref f, std::uint64_t assignment) const;

    /// Number of satisfying assignments over all num_vars() variables.
    double count_minterms(Ref f) const;

    /// Number of DAG nodes reachable from f (excluding terminals).
    std::size_t size(Ref f) const;

    /// Total nodes allocated; exceeding the limit throws
    /// LlsError{ResourceExhausted} (callers treat it as "circuit too large
    /// for exact analysis" and degrade rather than abort). The count is
    /// aggregated across every unique-table shard, so the threshold is the
    /// same global number however allocations distribute over shards.
    std::size_t node_limit() const { return node_limit_; }

    /// Counter snapshot (hit/miss totals are approximate only in the sense
    /// that a concurrent snapshot is not an atomic cut across counters).
    BddStats stats() const;

private:
    // Packing: a node is one 64-bit word (var << 44 | low << 22 | high).
    // var < 2^20 and refs < 2^22 (enforced by the node-limit cap), so the
    // packing is injective and doubles as the unique-table key.
    static constexpr int kRefBits = 22;
    static constexpr std::uint64_t kRefMask = (std::uint64_t{1} << kRefBits) - 1;
    static constexpr std::size_t kShards = 16;
    static constexpr std::size_t kBlockBits = 16;  // 65536 nodes per arena block
    static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockBits;
    static constexpr std::size_t kMaxBlocks =
        (std::size_t{1} << kRefBits) >> kBlockBits;
    static constexpr std::size_t kIteStripes = 64;

    static constexpr std::uint64_t pack(int var, Ref low, Ref high) {
        return (static_cast<std::uint64_t>(var) << (2 * kRefBits)) |
               (static_cast<std::uint64_t>(low) << kRefBits) | static_cast<std::uint64_t>(high);
    }
    static constexpr int word_var(std::uint64_t w) { return static_cast<int>(w >> (2 * kRefBits)); }
    static constexpr Ref word_low(std::uint64_t w) {
        return static_cast<Ref>((w >> kRefBits) & kRefMask);
    }
    static constexpr Ref word_high(std::uint64_t w) { return static_cast<Ref>(w & kRefMask); }

    struct U64Hash {
        std::size_t operator()(const std::uint64_t& k) const {
            std::uint64_t h = k * 0x9e3779b97f4a7c15ULL;
            h ^= h >> 29;
            return static_cast<std::size_t>(h);
        }
    };

    struct Shard {
        std::mutex mutex;
        std::unordered_map<std::uint64_t, Ref, U64Hash> map;
    };

    /// One lossy, direct-mapped computed-table slot. `f` is never a
    /// terminal for a cached call (terminal cases short-circuit in ite), so
    /// f == kFalse doubles as the empty marker.
    struct IteEntry {
        Ref f = kFalse, g = kFalse, h = kFalse;
        Ref result = kFalse;
    };

    Ref make_node(int var, Ref low, Ref high);
    /// Packed word of a node. Safe without locks: words are immutable once
    /// published, and every cross-thread ref handoff goes through a mutex
    /// (shard map, ITE stripe) or an acquire load (variable cache), which
    /// establishes the necessary happens-before with the write.
    std::uint64_t node_word(Ref f) const {
        return blocks_[f >> kBlockBits].load(std::memory_order_acquire)[f & (kBlockSize - 1)];
    }
    int var_of(Ref f) const { return word_var(node_word(f)); }
    /// Writes the word for a freshly allocated index, creating its arena
    /// block on demand.
    void store_word(std::size_t index, std::uint64_t word);

    std::size_t ite_hash(Ref f, Ref g, Ref h) const;
    bool ite_cache_get(Ref f, Ref g, Ref h, Ref* result);
    void ite_cache_put(Ref f, Ref g, Ref h, Ref result);

    int num_vars_;
    std::size_t node_limit_;
    std::atomic<std::size_t> num_nodes_{0};

    // Segmented node arena: blocks are allocated on demand under
    // `block_mutex_` and published with release stores; refs index into
    // them as blocks_[ref >> 16][ref & 0xffff].
    std::array<std::atomic<std::uint64_t*>, kMaxBlocks> blocks_{};
    std::mutex block_mutex_;

    mutable std::array<Shard, kShards> shards_;

    // Lossy ITE cache: power-of-two slot array sized once in the
    // constructor, striped mutexes. Capacity is at least 2^10 slots, so
    // slot & (kIteStripes - 1) equals hash & (kIteStripes - 1) — same slot
    // always means same stripe.
    std::vector<IteEntry> ite_cache_;
    std::size_t ite_mask_ = 0;
    mutable std::array<std::mutex, kIteStripes> ite_mutex_;

    // Projection-function cache; kFalse marks "not created yet" (a variable
    // node is never the FALSE terminal).
    std::vector<std::atomic<Ref>> var_refs_;

    std::atomic<std::uint64_t> unique_hits_{0}, nodes_created_{0};
    std::atomic<std::uint64_t> ite_hits_{0}, ite_misses_{0}, ite_evictions_{0};
};

}  // namespace lls
