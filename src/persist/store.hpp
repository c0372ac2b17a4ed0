#pragma once

// Persistent cross-process memo store (docs/ENGINE.md, "Persistent memo
// store").
//
// A MemoStore is a directory of checksummed shard files, each holding
// section-tagged (key, value) byte records (persist/format.hpp). Every
// process publishes its new entries as its *own* shard via
// write-temp-then-atomic-rename, so parallel batch invocations can read
// and write one cache directory concurrently without locks: readers only
// ever see fully published files, and two writers never touch the same
// path. Duplicate keys across shards are benign — the memos are pure, so
// the last-loaded value equals every other one.
//
// Corruption is a first-class scenario, never an exception that escapes:
// a truncated, bit-flipped, or version-mismatched shard is rejected whole
// (its staged records discarded), the failure is recorded as a structured
// LlsError{IoError} note in the LoadReport, and the run continues cold.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "persist/format.hpp"

namespace lls::persist {

/// What the store is allowed to do with the cache directory.
enum class StoreMode {
    Off,        ///< no store at all
    Read,       ///< import shards, never publish
    Write,      ///< publish fresh entries, never import (always cold)
    ReadWrite,  ///< import and publish (the CLI default for --cache-dir)
};

inline bool mode_reads(StoreMode m) { return m == StoreMode::Read || m == StoreMode::ReadWrite; }
inline bool mode_writes(StoreMode m) { return m == StoreMode::Write || m == StoreMode::ReadWrite; }

/// Parses the CLI grammar `read|write|rw|off`; nullopt on anything else.
std::optional<StoreMode> parse_store_mode(std::string_view text);

/// Outcome of scanning the cache directory. `notes` carries the formatted
/// LlsError{IoError} of every rejected shard — the "cold start" diagnoses
/// surfaced by `lls_opt` and the tests.
struct LoadReport {
    std::size_t files_scanned = 0;
    std::size_t files_loaded = 0;
    std::size_t files_rejected = 0;
    std::size_t records_loaded = 0;
    /// No persisted record made it in: nothing on disk, an off/write-only
    /// mode, or every shard rejected as corrupt.
    bool cold_start = true;
    std::vector<std::string> notes;
};

/// One on-disk memo store rooted at a directory. Thread-safe: the engine's
/// round-boundary flushes and batch items share one instance.
class MemoStore {
public:
    /// Binds the store to `dir` (created on demand in writing modes).
    /// Throws LlsError{IoError} only for unusable *write* setups (the
    /// directory cannot be created); read-side problems are contained in
    /// load().
    MemoStore(std::string dir, StoreMode mode);

    StoreMode mode() const { return mode_; }
    const std::string& dir() const { return dir_; }

    /// Scans the directory and stages every record of every intact shard.
    /// Rejected files are skipped whole and noted; this never throws for
    /// data-level problems. No-op (cold report) when the mode does not
    /// read. Call once, before the first optimization run.
    const LoadReport& load();
    const LoadReport& report() const { return report_; }

    /// Iterates the records loaded from disk for one section.
    void for_each_loaded(Section section,
                         const std::function<void(std::string_view key,
                                                  std::string_view value)>& fn) const;

    /// Stages a fresh record unless the key is already known (loaded or
    /// previously staged). `value_fn` is only invoked for genuinely new
    /// keys, so callers can serialize lazily. Returns true when staged.
    bool record(Section section, std::string key,
                const std::function<std::string()>& value_fn);

    std::size_t loaded_count() const;
    std::size_t fresh_count() const;

    /// Publishes the staged records as one new shard file (write temp,
    /// flush, atomic rename), then promotes them to "loaded". No-op when
    /// nothing is staged or the mode does not write. Publication failures
    /// are contained: noted in the report, counted in metrics, staged
    /// records kept for a later retry. Returns true when a shard was
    /// written.
    bool publish();

    /// When the directory has accumulated more than `max_shards` shard
    /// files, rewrites everything this store has seen (loaded + published)
    /// as one snapshot shard and deletes the files it merged — including
    /// corrupt rejects of the *current* format version, whose content has
    /// been re-derived by now. Shards of other concurrent processes and
    /// version-mismatched files are left alone.
    void compact(std::size_t max_shards = 8);

private:
    struct SectionMap {
        std::map<std::string, std::string> entries;  // ordered: deterministic shard bytes
    };
    // Ids 3 and 4 (the exact-rewrite NPN and structure memos) are retired
    // and must never be reused. Old shards still load: their 3/4 records
    // are skipped like any unknown section and dropped at the next
    // compaction.
    static constexpr std::size_t kNumSections = 2;
    static std::size_t section_index(Section s);

    bool publish_locked();
    std::string encode_shard_locked() const;
    static void load_file(const std::string& path,
                          std::vector<std::tuple<Section, std::string, std::string>>* staged);

    const std::string dir_;
    const StoreMode mode_;

    mutable std::mutex mutex_;
    SectionMap loaded_[kNumSections];
    SectionMap fresh_[kNumSections];
    LoadReport report_;
    std::vector<std::string> merged_files_;  ///< loaded/published/corrupt-current-version paths
    std::uint64_t publish_seq_ = 0;
};

}  // namespace lls::persist
