#include "persist/codec.hpp"

namespace lls::persist {

namespace {

[[noreturn]] void malformed(const std::string& what) {
    throw LlsError(ErrorKind::IoError, what, "persist");
}

/// Bounds a varint that will be narrowed to a vector size or int field.
std::uint64_t bounded(std::uint64_t v, std::uint64_t max, const char* what) {
    if (v > max) malformed(std::string("persisted ") + what + " out of range");
    return v;
}

}  // namespace

std::string encode_pair_key(std::uint64_t a, std::uint64_t b) {
    ByteWriter w;
    w.u64(a);
    w.u64(b);
    return w.take();
}

std::pair<std::uint64_t, std::uint64_t> decode_pair_key(std::string_view key) {
    ByteReader r(key);
    const std::uint64_t a = r.u64();
    const std::uint64_t b = r.u64();
    r.expect_end();
    return {a, b};
}

void encode_aig(ByteWriter& out, const Aig& aig) {
    out.u64(aig.hash());
    out.varint(aig.num_pis());
    out.varint(aig.num_nodes());
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (aig.is_pi(id)) {
            out.u8(0);
        } else {
            const auto& n = aig.node(id);
            out.u8(1);
            out.u32(n.fanin0.value);
            out.u32(n.fanin1.value);
        }
    }
    out.varint(aig.num_pos());
    for (std::size_t o = 0; o < aig.num_pos(); ++o) out.u32(aig.po(o).value);
}

Aig decode_aig(ByteReader& in) {
    const std::uint64_t expected_hash = in.u64();
    const std::size_t num_pis =
        static_cast<std::size_t>(bounded(in.varint(), 1u << 24, "AIG PI count"));
    const std::size_t num_nodes =
        static_cast<std::size_t>(bounded(in.varint(), 1u << 26, "AIG node count"));
    if (num_nodes < 1 + num_pis) malformed("persisted AIG node count below PI count");

    Aig aig;
    for (std::uint32_t id = 1; id < num_nodes; ++id) {
        const std::uint8_t tag = in.u8();
        if (tag == 0) {
            const AigLit pi = aig.add_pi();
            if (pi.node() != id) malformed("persisted AIG replay produced a different PI id");
        } else if (tag == 1) {
            const AigLit f0{in.u32()}, f1{in.u32()};
            if (f0.node() >= id || f1.node() >= id)
                malformed("persisted AIG fanin references a later node");
            // The replay invariant: this AND was created fresh by land() at
            // exactly this id, so the same call must reproduce it — any
            // normalization or strash short-circuit means the record does
            // not describe a cleanup-built graph and is rejected.
            const AigLit lit = aig.land(f0, f1);
            if (lit != AigLit::make(id, false))
                malformed("persisted AIG replay diverged from the recorded structure");
        } else {
            malformed("persisted AIG has an unknown node tag");
        }
    }
    const std::size_t num_pos =
        static_cast<std::size_t>(bounded(in.varint(), 1u << 24, "AIG PO count"));
    for (std::size_t o = 0; o < num_pos; ++o) {
        const AigLit po{in.u32()};
        if (po.node() >= num_nodes) malformed("persisted AIG PO references a missing node");
        aig.add_po(po);
    }
    if (aig.num_pis() != num_pis) malformed("persisted AIG PI count mismatch");
    if (aig.hash() != expected_hash) malformed("persisted AIG hash mismatch after replay");
    return aig;
}

std::string encode_cone_evaluation(const ConeEvaluation& evaluation) {
    LLS_REQUIRE(!evaluation.fault);  // faulted entries are never persisted
    ByteWriter w;
    w.u8(evaluation.outcome ? 1 : 0);
    w.varint(evaluation.cost.decompositions);
    w.varint(evaluation.cost.sat_conflicts);
    if (evaluation.outcome) {
        const DecomposeOutcome& outcome = *evaluation.outcome;
        w.varint(static_cast<std::uint64_t>(outcome.old_depth));
        w.varint(static_cast<std::uint64_t>(outcome.new_depth));
        w.varint(static_cast<std::uint64_t>(outcome.num_windows));
        w.blob(outcome.reconstruction);
        encode_aig(w, outcome.aig);
    }
    return w.take();
}

ConeEvaluation decode_cone_evaluation(std::string_view bytes) {
    ByteReader r(bytes);
    const std::uint8_t flags = r.u8();
    if (flags > 1) malformed("persisted cone evaluation has unknown flags");
    ConeEvaluation evaluation;
    evaluation.cost.decompositions = r.varint();
    evaluation.cost.sat_conflicts = r.varint();
    if (flags & 1) {
        DecomposeOutcome outcome;
        outcome.old_depth = static_cast<int>(bounded(r.varint(), 1u << 30, "cone depth"));
        outcome.new_depth = static_cast<int>(bounded(r.varint(), 1u << 30, "cone depth"));
        outcome.num_windows = static_cast<int>(bounded(r.varint(), 1u << 30, "window count"));
        outcome.reconstruction = std::string(r.blob());
        outcome.aig = decode_aig(r);
        evaluation.outcome = std::make_shared<const DecomposeOutcome>(std::move(outcome));
    }
    r.expect_end();
    return evaluation;
}

std::string encode_cec_verdict(bool equivalent) {
    ByteWriter w;
    w.u8(equivalent ? 1 : 0);
    return w.take();
}

bool decode_cec_verdict(std::string_view bytes) {
    ByteReader r(bytes);
    const std::uint8_t v = r.u8();
    if (v > 1) malformed("persisted CEC verdict is not a boolean");
    r.expect_end();
    return v == 1;
}

}  // namespace lls::persist
