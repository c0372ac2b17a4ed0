// lls_fuzz: randomized end-to-end robustness harness.
//
//   lls_fuzz [iterations] [base_seed] [--fault-inject SPEC]
//   lls_fuzz --mutate-store [iterations] [base_seed]
//
// Each iteration generates a random circuit (random shape, PI/PO counts and
// operator mix), pushes it through every optimization flow plus mapping and
// the BLIF/AIGER round-trips, and verifies every step by CEC. Any failure —
// a mismatch, an unresolved check, an exception escaping a flow, or a
// fault record from a clean lookahead run (a cone that threw, such as a
// decomposition the per-cone CEC proved wrong, or a whole-circuit
// candidate a pass CEC proved wrong) — writes the offending
// generated circuit to fuzz_corpus/ as a BLIF reproducer and prints the
// exact replay command before exiting nonzero. Used before releases; the
// unit-test suites run fixed subsets of the same checks.
//
// --fault-inject forwards a deterministic fault plan (common/fault.hpp
// grammar) into the lookahead flow, exercising the engine's per-cone fault
// boundary under fuzz workloads: injected faults must degrade cones, never
// break equivalence or crash the harness.
//
// --mutate-store exercises the persistent memo store (src/persist/): each
// iteration populates a cache directory from a cold run, proves an intact
// warm replay is byte-identical with warm hits registered, then mutates
// every shard file (truncation, bit flips, zeroed header, appended
// garbage) and requires the mutated warm run to degrade to a cold start —
// same bytes, exit without any escaping exception.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/fault.hpp"
#include "common/parse.hpp"

#include "baseline/flows.hpp"
#include "baseline/select_transform.hpp"
#include "cec/cec.hpp"
#include "cec/redundancy.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "io/blif.hpp"
#include "io/generators.hpp"
#include "lookahead/optimize.hpp"
#include "mapping/netlist.hpp"
#include "persist/store.hpp"

#include <fstream>

namespace {

lls::Aig random_circuit(std::uint64_t seed) {
    lls::Rng rng(seed);
    const std::size_t num_pis = 4 + rng.next_below(20);
    const std::size_t num_nodes = 10 + rng.next_below(120);
    const std::size_t num_pos = 1 + rng.next_below(8);

    lls::Aig aig;
    std::vector<lls::AigLit> pool;
    for (std::size_t i = 0; i < num_pis; ++i) pool.push_back(aig.add_pi());
    for (std::size_t i = 0; i < num_nodes; ++i) {
        auto pick = [&]() {
            lls::AigLit l = pool[rng.next_below(pool.size())];
            return rng.next_bool() ? !l : l;
        };
        const lls::AigLit x = pick(), y = pick(), z = pick();
        switch (rng.next_below(5)) {
            case 0: pool.push_back(aig.land(x, y)); break;
            case 1: pool.push_back(aig.lor(x, y)); break;
            case 2: pool.push_back(aig.lxor(x, y)); break;
            case 3: pool.push_back(aig.lmux(x, y, z)); break;
            default: pool.push_back(aig.land(x, aig.lor(y, z))); break;
        }
    }
    for (std::size_t o = 0; o < num_pos; ++o)
        aig.add_po(pool[pool.size() - 1 - (o % pool.size())]);
    return aig.cleanup();
}

std::string g_argv0 = "lls_fuzz";
std::string g_fault_spec;

/// Writes the generated circuit that triggered a failure to fuzz_corpus/
/// and prints the replay command. The generator is a pure function of the
/// seed, so the replay command regenerates the identical circuit; the BLIF
/// file is for inspection and bug reports.
void dump_reproducer(std::uint64_t seed, const lls::Aig& circuit) {
    const std::string dir = "fuzz_corpus";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/seed_" + std::to_string(seed) + ".blif";
    try {
        lls::write_blif_file(path, circuit, "fuzz_seed_" + std::to_string(seed));
        std::fprintf(stderr, "reproducer written: %s\n", path.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "could not write reproducer %s: %s\n", path.c_str(), e.what());
    }
    std::fprintf(stderr, "replay: %s 1 %llu%s%s\n", g_argv0.c_str(),
                 static_cast<unsigned long long>(seed),
                 g_fault_spec.empty() ? "" : " --fault-inject ", g_fault_spec.c_str());
}

bool verify(const char* what, std::uint64_t seed, const lls::Aig& a, const lls::Aig& b) {
    const lls::CecResult cec = lls::check_equivalence(a, b, 2000000);
    if (cec.resolved && cec.equivalent) return true;
    std::fprintf(stderr, "FUZZ FAILURE: %s at seed %llu (%s)\n", what,
                 static_cast<unsigned long long>(seed),
                 cec.resolved ? "inequivalent" : "unresolved");
    return false;
}

/// One fuzz iteration; returns false after dumping a reproducer on any
/// failure, including an exception escaping one of the flows.
bool run_iteration(std::uint64_t seed, const lls::FaultPlan& fault_plan) {
    const lls::Aig circuit = random_circuit(seed);
    // Every failure path funnels through here so the reproducer dump cannot
    // be forgotten when new checks are added.
    auto check = [&](bool ok) {
        if (!ok) dump_reproducer(seed, circuit);
        return ok;
    };
    try {
        lls::Rng rng(seed ^ 0xf00d);

        if (!check(verify("flow_sis", seed, circuit, lls::flow_sis(circuit, rng)))) return false;
        if (!check(verify("flow_abc", seed, circuit, lls::flow_abc(circuit, rng)))) return false;
        if (!check(verify("flow_dc", seed, circuit, lls::flow_dc(circuit, rng)))) return false;
        if (!check(verify("select_transform", seed, circuit,
                          lls::generalized_select_transform(circuit))))
            return false;
        if (!check(verify("redundancy", seed, circuit,
                          lls::remove_redundancies(circuit, rng, /*max_removals=*/20))))
            return false;

        lls::LookaheadParams params;
        params.max_iterations = 4;
        params.seed = seed;
        params.fault_plan = fault_plan;
        lls::OptimizeStats stats;
        const lls::Aig optimized = lls::optimize_timing(circuit, params, &stats);
        if (!check(verify("lookahead", seed, circuit, optimized))) return false;
        // Without injection nothing may fault: a record here is a cone that
        // threw, e.g. a decomposition its own CEC proved non-equivalent, or
        // a whole-circuit candidate (cone -1) a pass CEC proved wrong.
        if (fault_plan.empty() && !stats.faults.empty()) {
            const lls::FaultRecord& f = stats.faults.front();
            const std::string where =
                f.cone < 0 ? "whole circuit" : "cone " + std::to_string(f.cone);
            std::fprintf(stderr,
                         "FUZZ FAILURE: clean lookahead run faulted at seed %llu: %zu record(s), "
                         "first [%s/%s] %s: %s\n",
                         static_cast<unsigned long long>(seed), stats.faults.size(),
                         lls::error_kind_name(f.kind), f.stage.c_str(), where.c_str(),
                         f.detail.c_str());
            dump_reproducer(seed, circuit);
            return false;
        }

        std::stringstream blif;
        lls::write_blif(blif, optimized, "fuzz");
        if (!check(verify("blif roundtrip", seed, optimized, lls::read_blif(blif)))) return false;

        std::stringstream aag;
        lls::write_aiger(aag, optimized);
        if (!check(verify("aiger roundtrip", seed, optimized, lls::read_aiger(aag)))) return false;

        // Mapped netlist vs AIG on 64 random vectors, through both the
        // per-pattern evaluator and the word-parallel simulator; the AIG's
        // own simulator is the reference.
        const lls::CellLibrary lib = lls::CellLibrary::generic_70nm();
        const lls::Netlist netlist = lls::map_to_netlist(optimized, lib);
        lls::Rng vec_rng(seed ^ 0xbeef);
        const lls::SimPatterns patterns =
            lls::SimPatterns::random(optimized.num_pis(), 64, vec_rng);
        const auto aig_sigs = lls::simulate(optimized, patterns);
        const auto net_sigs = netlist.simulate(patterns);
        bool mapped_ok = true;
        for (std::size_t o = 0; o < optimized.num_pos(); ++o)
            mapped_ok = mapped_ok && net_sigs[netlist.output_net(o)] ==
                                         lls::literal_signature(optimized, optimized.po(o),
                                                                aig_sigs, patterns.num_patterns());
        std::vector<bool> inputs(optimized.num_pis());
        for (std::size_t v = 0; v < patterns.num_patterns() && mapped_ok; ++v) {
            for (std::size_t k = 0; k < inputs.size(); ++k) inputs[k] = patterns.pi_value(k, v);
            const auto outs = netlist.evaluate(inputs);
            for (std::size_t o = 0; o < optimized.num_pos(); ++o) {
                const std::uint64_t word = net_sigs[netlist.output_net(o)][0];
                mapped_ok = mapped_ok && outs[o] == (((word >> v) & 1) != 0);
            }
        }
        if (!mapped_ok) {
            std::fprintf(stderr, "FUZZ FAILURE: mapped netlist at seed %llu\n",
                         static_cast<unsigned long long>(seed));
            dump_reproducer(seed, circuit);
            return false;
        }
        std::printf("seed %llu ok (pis=%zu ands=%zu depth=%d -> %d)\n",
                    static_cast<unsigned long long>(seed), circuit.num_pis(),
                    circuit.count_reachable_ands(), circuit.depth(), optimized.depth());
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "FUZZ FAILURE: exception at seed %llu: %s\n",
                     static_cast<unsigned long long>(seed), e.what());
        dump_reproducer(seed, circuit);
        return false;
    }
}

/// AIGER bytes of one lookahead run of `circuit` through the engine, with
/// an optional warm-start bridge — the byte-level QoR probe of the store
/// mutation mode.
std::string optimize_bytes(const lls::Aig& circuit, std::uint64_t seed, lls::WarmStart* warm) {
    lls::LookaheadParams params;
    params.max_iterations = 4;
    params.seed = seed;
    lls::EngineOptions engine;
    engine.warm_start = warm;
    const lls::Aig optimized = lls::optimize_timing_engine(circuit, params, engine);
    std::stringstream aag;
    lls::write_aiger(aag, optimized);
    return aag.str();
}

/// Applies one random corruption to a shard file: truncation, bit flips,
/// a zeroed header, or appended garbage.
void mutate_file(const std::string& path, lls::Rng& rng) {
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    switch (rng.next_below(4)) {
        case 0:  // truncate somewhere, header included
            bytes.resize(rng.next_below(bytes.size() + 1));
            break;
        case 1:  // flip a handful of random bits
            for (std::size_t flips = 1 + rng.next_below(8); flips && !bytes.empty(); --flips) {
                const std::size_t at = rng.next_below(bytes.size());
                bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.next_below(8)));
            }
            break;
        case 2:  // zero the header
            for (std::size_t i = 0; i < bytes.size() && i < 16; ++i) bytes[i] = 0;
            break;
        default:  // append garbage (a torn concurrent append)
            for (std::size_t n = 1 + rng.next_below(64); n; --n)
                bytes.push_back(static_cast<char>(rng.next_below(256)));
            break;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One store-mutation iteration: cold populate -> intact warm replay
/// (byte-identical, warm hits registered) -> mutate every shard -> the
/// mutated warm run must degrade to a cold start with identical bytes.
bool run_store_iteration(std::uint64_t seed) {
    const lls::Aig circuit = random_circuit(seed);
    const std::string dir = "fuzz_store/seed_" + std::to_string(seed);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    auto fail = [&](const char* what) {
        std::fprintf(stderr, "FUZZ FAILURE: %s at seed %llu\n", what,
                     static_cast<unsigned long long>(seed));
        dump_reproducer(seed, circuit);
        return false;
    };
    try {
        lls::clear_engine_caches();
        std::string cold;
        {
            lls::WarmStart warm(dir, lls::persist::StoreMode::ReadWrite);
            cold = optimize_bytes(circuit, seed, &warm);
            warm.finalize();
        }

        lls::clear_engine_caches();
        {
            lls::WarmStart warm(dir, lls::persist::StoreMode::Read);
            const std::uint64_t hits_before =
                lls::Metrics::global().counter("persist.warm_hits").value();
            if (optimize_bytes(circuit, seed, &warm) != cold)
                return fail("warm replay diverged from cold run");
            const std::uint64_t hits_after =
                lls::Metrics::global().counter("persist.warm_hits").value();
            if (circuit.depth() >= 2 && warm.imported_records() > 0 && hits_after == hits_before)
                return fail("warm replay registered no warm hits");
        }

        lls::Rng rng(seed ^ 0x57a7e);
        std::size_t mutated = 0;
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            if (!entry.is_regular_file()) continue;
            mutate_file(entry.path().string(), rng);
            ++mutated;
        }
        lls::clear_engine_caches();
        {
            lls::WarmStart warm(dir, lls::persist::StoreMode::Read);
            if (optimize_bytes(circuit, seed, &warm) != cold)
                return fail("mutated store changed the result");
        }
        std::printf("seed %llu ok (store mutation contained, %zu shard(s) mutated)\n",
                    static_cast<unsigned long long>(seed), mutated);
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "FUZZ FAILURE: store exception at seed %llu: %s\n",
                     static_cast<unsigned long long>(seed), e.what());
        dump_reproducer(seed, circuit);
        return false;
    }
}

}  // namespace

int main(int argc, char** argv) {
    // Strict parsing: "lls_fuzz xyz" must be a usage error, not a 0-iteration
    // run that "passes".
    g_argv0 = argv[0];
    const auto usage = [&]() {
        std::fprintf(stderr,
                     "usage: %s [iterations] [base_seed] [--fault-inject SPEC]\n"
                     "       %s --mutate-store [iterations] [base_seed]\n",
                     argv[0], argv[0]);
        return 2;
    };
    int iterations = 25;
    std::uint64_t base_seed = 1000;
    lls::FaultPlan fault_plan;
    bool mutate_store = false;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fault-inject") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: --fault-inject expects a value\n");
                return usage();
            }
            g_fault_spec = argv[++i];
        } else if (arg == "--mutate-store") {
            mutate_store = true;
        } else if (arg.starts_with("--")) {
            std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
            return usage();
        } else if (positional == 0) {
            if (!lls::parse_int_option("iterations", arg.c_str(), 1, 1000000000, &iterations))
                return usage();
            ++positional;
        } else if (positional == 1) {
            if (!lls::parse_u64_option("base_seed", arg.c_str(), UINT64_MAX, &base_seed))
                return usage();
            ++positional;
        } else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
            return usage();
        }
    }
    if (!g_fault_spec.empty()) {
        try {
            fault_plan = lls::FaultPlan::parse(g_fault_spec);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }

    if (mutate_store && !g_fault_spec.empty()) {
        std::fprintf(stderr, "error: --mutate-store and --fault-inject are mutually exclusive\n");
        return 2;
    }

    for (int i = 0; i < iterations; ++i) {
        const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
        const bool ok = mutate_store ? run_store_iteration(seed) : run_iteration(seed, fault_plan);
        if (!ok) return 1;
    }
    std::printf("fuzz: %d iterations passed\n", iterations);
    return 0;
}
