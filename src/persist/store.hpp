#pragma once

// Shard files of the persistent cross-process memo store (docs/ENGINE.md,
// "Persistent memo store").
//
// A store is a directory of checksummed shard files, each holding
// section-tagged (key, value) byte records (persist/format.hpp). Every
// process publishes its new entries as its *own* shard via
// write-temp-then-atomic-rename, so parallel batch invocations can read
// and write one cache directory concurrently without locks: readers only
// ever see fully published files, and two writers never touch the same
// path. Duplicate keys across shards are benign — the memos are pure, so
// the last-loaded value equals every other one.
//
// Corruption is a first-class scenario, never an exception that escapes
// the warm-start bridge (engine/warm_start.hpp): read_shard rejects a
// truncated, bit-flipped, or version-mismatched shard whole, the bridge
// records the failure as a structured LlsError{IoError} note in its
// LoadReport, and the run continues cold.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/format.hpp"

namespace lls::persist {

/// What `--cache-dir` may do with the cache directory.
enum class StoreMode {
    Read,       ///< import shards, never publish
    ReadWrite,  ///< import and publish (the CLI default for --cache-dir)
};

/// Parses the CLI grammar `read|rw`; nullopt on anything else.
std::optional<StoreMode> parse_store_mode(std::string_view text);

/// Outcome of scanning the cache directory. `notes` carries the formatted
/// LlsError{IoError} of every rejected shard and failed publication — the
/// "cold start" diagnoses surfaced by `lls_opt` and the tests.
struct LoadReport {
    std::size_t files_scanned = 0;
    std::size_t files_loaded = 0;
    std::size_t files_rejected = 0;
    std::size_t records_loaded = 0;
    /// No persisted record made it in: nothing on disk, or every shard
    /// rejected as corrupt.
    bool cold_start = true;
    std::vector<std::string> notes;
};

/// Records keyed by (section, key bytes): a shard holds them in map order.
using Records = std::map<std::pair<Section, std::string>, std::string>;

/// The shard files in `dir`, sorted by path: `.shard` files that are not
/// `.tmp-` files. Empty when `dir` does not exist.
std::vector<std::string> list_shards(const std::string& dir);

/// The records of one intact shard (of a key repeated in the file, the
/// last). Records of unknown sections, the retired ids 3 and 4 included,
/// are skipped. Throws LlsError{IoError} when the file cannot be read or
/// its header, framing, or any checksum is wrong: a damaged shard is
/// rejected whole.
Records read_shard(const std::string& path);

/// Publishes `records` as one new shard in `dir`: written to a `.tmp-`
/// file, flushed, then renamed to an entropy-unique name. Returns the
/// published path. On failure it appends the LlsError{IoError} text to
/// `notes`, counts `persist.store.failures`, and returns nullopt; it never
/// throws for I/O trouble.
std::optional<std::string> write_shard(const std::string& dir, const Records& records,
                                       std::vector<std::string>& notes);

}  // namespace lls::persist
