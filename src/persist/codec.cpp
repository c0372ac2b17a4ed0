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

void encode_truth_table(ByteWriter& out, const TruthTable& tt) {
    out.varint(static_cast<std::uint64_t>(tt.num_vars()));
    out.blob(tt.to_hex());
}

TruthTable decode_truth_table(ByteReader& in) {
    const int num_vars =
        static_cast<int>(bounded(in.varint(), TruthTable::kMaxVars, "truth-table arity"));
    const std::string_view hex = in.blob();
    try {
        return TruthTable::from_hex(num_vars, std::string(hex));
    } catch (const std::exception& e) {
        malformed(std::string("persisted truth table rejected: ") + e.what());
    }
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

std::string encode_npn_result(const NpnResult& npn) {
    ByteWriter w;
    encode_truth_table(w, npn.canonical);
    w.varint(npn.perm.size());
    for (const int p : npn.perm) w.varint(static_cast<std::uint64_t>(p));
    w.u32(npn.input_negation);
    w.u8(npn.output_negation ? 1 : 0);
    return w.take();
}

NpnResult decode_npn_result(std::string_view bytes) {
    ByteReader r(bytes);
    NpnResult npn;
    npn.canonical = decode_truth_table(r);
    const std::size_t n =
        static_cast<std::size_t>(bounded(r.varint(), TruthTable::kMaxVars, "NPN perm size"));
    npn.perm.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        npn.perm[i] = static_cast<int>(bounded(r.varint(), n ? n - 1 : 0, "NPN perm entry"));
    npn.input_negation = r.u32();
    const std::uint8_t out_neg = r.u8();
    if (out_neg > 1) malformed("persisted NPN output negation is not a boolean");
    npn.output_negation = out_neg == 1;
    r.expect_end();
    return npn;
}

std::string encode_exact_structure(const std::optional<ExactStructure>& structure) {
    ByteWriter w;
    w.u8(structure ? 1 : 0);
    if (structure) {
        w.varint(static_cast<std::uint64_t>(structure->num_inputs));
        w.varint(structure->gates.size());
        for (const auto& g : structure->gates) {
            w.varint(static_cast<std::uint64_t>(g.fanin0));
            w.varint(static_cast<std::uint64_t>(g.fanin1));
            w.u8(static_cast<std::uint8_t>((g.complement0 ? 1 : 0) | (g.complement1 ? 2 : 0)));
        }
        w.varint(static_cast<std::uint64_t>(structure->output_signal));
        w.u8(static_cast<std::uint8_t>((structure->output_complemented ? 1 : 0) |
                                       (structure->output_constant ? 2 : 0)));
    }
    return w.take();
}

std::optional<ExactStructure> decode_exact_structure(std::string_view bytes) {
    ByteReader r(bytes);
    const std::uint8_t present = r.u8();
    if (present > 1) malformed("persisted exact structure has unknown flags");
    if (!present) {
        r.expect_end();
        return std::nullopt;
    }
    ExactStructure s;
    s.num_inputs = static_cast<int>(bounded(r.varint(), 16, "exact-structure input count"));
    const std::size_t num_gates =
        static_cast<std::size_t>(bounded(r.varint(), 64, "exact-structure gate count"));
    s.gates.resize(num_gates);
    for (std::size_t i = 0; i < num_gates; ++i) {
        // Gate i may only read inputs and earlier gates.
        const std::uint64_t max_signal = static_cast<std::uint64_t>(s.num_inputs) + i;
        s.gates[i].fanin0 =
            static_cast<int>(bounded(r.varint(), max_signal ? max_signal - 1 : 0, "gate fanin"));
        s.gates[i].fanin1 =
            static_cast<int>(bounded(r.varint(), max_signal ? max_signal - 1 : 0, "gate fanin"));
        const std::uint8_t flags = r.u8();
        if (flags > 3) malformed("persisted gate has unknown complement flags");
        s.gates[i].complement0 = flags & 1;
        s.gates[i].complement1 = flags & 2;
    }
    const std::uint64_t max_out = static_cast<std::uint64_t>(s.num_inputs) + num_gates;
    s.output_signal =
        static_cast<int>(bounded(r.varint(), max_out ? max_out - 1 : 0, "output signal"));
    const std::uint8_t out_flags = r.u8();
    if (out_flags > 3) malformed("persisted structure has unknown output flags");
    s.output_complemented = out_flags & 1;
    s.output_constant = out_flags & 2;
    r.expect_end();
    return s;
}

}  // namespace lls::persist
