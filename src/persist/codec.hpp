#pragma once

// Value codecs of the persistent memo store: byte encodings for the
// payloads of each Section (persist/format.hpp). Every decoder validates
// what it reads and throws LlsError{IoError, "persist"} on anything
// malformed — the warm-start bridge turns that into a skipped record, so a
// logically inconsistent value (as opposed to the bit-level corruption the
// per-record checksums catch) degrades to a recompute, never a crash or a
// wrong structure.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "aig/aig.hpp"
#include "engine/memo.hpp"
#include "persist/format.hpp"

namespace lls::persist {

/// 16-byte key of the (u64, u64)-keyed sections (Decompose, Cec).
std::string encode_pair_key(std::uint64_t a, std::uint64_t b);
/// Throws LlsError{IoError} unless `key` is exactly 16 bytes.
std::pair<std::uint64_t, std::uint64_t> decode_pair_key(std::string_view key);

/// AIG structure codec by land()-replay. Outcome AIGs are cleanup() /
/// extract_cone() products: node 0 is the constant, PIs come first, and
/// every AND was freshly created by land() in id order — so replaying the
/// recorded nodes through land() in a new Aig reproduces the identical
/// graph, verified node by node and by the final structural hash. Names
/// are not stored (the engine's commit step never reads them and hash()
/// excludes them).
void encode_aig(ByteWriter& out, const Aig& aig);
Aig decode_aig(ByteReader& in);

/// ConeEvaluation codec (Section::Decompose values). Only fault-free
/// evaluations may be encoded — persisting a fault record would be
/// redundant (injection is deterministic, the recompute replays it) and
/// the decoder never returns one.
std::string encode_cone_evaluation(const ConeEvaluation& evaluation);
ConeEvaluation decode_cone_evaluation(std::string_view bytes);

/// CEC verdict codec (Section::Cec values).
std::string encode_cec_verdict(bool equivalent);
bool decode_cec_verdict(std::string_view bytes);

}  // namespace lls::persist
