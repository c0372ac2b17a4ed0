#pragma once

// Batch checkpoint/resume journal.
//
// `lls_opt --batch --checkpoint FILE` appends one journal line per
// completed circuit: the circuit's name, its *input* structural hash, the
// params fingerprint the run used, the hash of the *output* bytes, and the
// headline stats. Appends follow the flush-and-throw discipline
// (common to the PR-2 file writers): the line is flushed before the batch
// moves on, and a write failure raises LlsError{IoError} instead of
// leaving a silently truncated journal. A last line left unterminated by
// a crash or a failed append is dropped when the journal is loaded, so its
// item re-runs; any complete line that does not parse is an error.
//
// `--resume` loads the journal and skips every item whose (name, input
// hash, params fingerprint) triple matches an entry — the circuit was
// already optimized under identical parameters, so its on-disk output is
// already byte-identical to what a fresh run would produce. Items that
// match by name but differ in hash or fingerprint are re-run (the journal
// entry is stale).
//
// Format, line-oriented and human-inspectable:
//   # lls-checkpoint v1
//   <name>\t<input_hash hex>\t<params_fp hex>\t<output_hash hex>\t<depth>\t<ands>\t<failed 0|1>

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "persist/format.hpp"

namespace lls {

/// One journaled circuit.
struct CheckpointEntry {
    std::string name;
    std::uint64_t input_hash = 0;     ///< structural hash of the input AIG
    std::uint64_t params_fingerprint = 0;
    std::uint64_t output_hash = 0;    ///< FNV-1a of the output file's bytes (lls_opt: BLIF)
    int final_depth = 0;
    std::size_t final_ands = 0;
    bool failed = false;              ///< the item's optimization faulted
};

/// The journal's output-bytes hash: FNV-1a, the persist store's checksum.
inline std::uint64_t checkpoint_bytes_hash(std::string_view bytes) {
    return persist::fnv1a(bytes);
}

/// Append-only journal of completed batch items.
class BatchCheckpoint {
public:
    /// Loads an existing journal (empty result when `path` does not exist —
    /// a fresh run), drops and cuts off an unterminated last line, and
    /// opens it for appending. Throws LlsError{ParseError} on a malformed
    /// complete line, LlsError{IoError} when the file cannot be cut or
    /// opened for appending.
    explicit BatchCheckpoint(const std::string& path);

    const std::vector<CheckpointEntry>& entries() const { return entries_; }

    /// The entry matching (name, input hash, params fingerprint), or
    /// nullptr — nullptr means the item must (re-)run.
    const CheckpointEntry* find(const std::string& name, std::uint64_t input_hash,
                                std::uint64_t params_fingerprint) const;

    /// Journals one completed item: write, flush, and only then return.
    /// Throws LlsError{IoError} if the append did not reach the file.
    void append(const CheckpointEntry& entry);

private:
    std::string path_;
    std::vector<CheckpointEntry> entries_;
    std::ofstream out_;
};

}  // namespace lls
