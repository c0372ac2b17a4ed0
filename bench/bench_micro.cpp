// Micro-benchmarks for the substrate libraries (google-benchmark): truth
// tables, ISOP/minimum-SOP, SOP tree levels, AIG construction, cut
// enumeration, simulation, floating-mode timing simulation, SAT, CEC, the
// baseline passes, and technology mapping.

#include <benchmark/benchmark.h>

#include "aig/aig_build.hpp"
#include "aig/cuts.hpp"
#include "baseline/restructure.hpp"
#include "cec/cec.hpp"
#include "common/rng.hpp"
#include "io/generators.hpp"
#include "lookahead/decompose.hpp"
#include "mapping/mapper.hpp"
#include "network/network.hpp"
#include "sim/simulation.hpp"
#include "sop/sop.hpp"

using namespace lls;

namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
    TruthTable tt(num_vars);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
    return tt;
}

void BM_TruthTableOps(benchmark::State& state) {
    Rng rng(1);
    const int n = static_cast<int>(state.range(0));
    const TruthTable a = random_tt(n, rng);
    const TruthTable b = random_tt(n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize((a & b) | (~a ^ b));
    }
}
BENCHMARK(BM_TruthTableOps)->Arg(6)->Arg(10)->Arg(14);

void BM_Isop(benchmark::State& state) {
    Rng rng(2);
    const int n = static_cast<int>(state.range(0));
    std::vector<TruthTable> tts;
    for (int i = 0; i < 32; ++i) tts.push_back(random_tt(n, rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(isop(tts[i++ % tts.size()]));
    }
}
BENCHMARK(BM_Isop)->Arg(4)->Arg(6)->Arg(8);

void BM_MinimumSop(benchmark::State& state) {
    Rng rng(3);
    const int n = static_cast<int>(state.range(0));
    std::vector<TruthTable> tts;
    for (int i = 0; i < 32; ++i) tts.push_back(random_tt(n, rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(minimum_sop(tts[i++ % tts.size()]));
    }
}
BENCHMARK(BM_MinimumSop)->Arg(4)->Arg(6);

// The delay score restructuring computes per cut and phase: the balanced
// AND/OR tree level of an ISOP of a random function of `n` variables (cut
// size 8 is restructuring's) over random fanin levels.
void BM_SopTreeLevel(benchmark::State& state) {
    Rng rng(8);
    const int n = static_cast<int>(state.range(0));
    std::vector<Sop> sops;
    for (int i = 0; i < 32; ++i) sops.push_back(isop(random_tt(n, rng)));
    std::vector<int> fanin_levels(static_cast<std::size_t>(n));
    for (auto& l : fanin_levels) l = static_cast<int>(rng.next_below(32));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(Network::sop_tree_level(sops[i++ % sops.size()], fanin_levels));
    }
}
BENCHMARK(BM_SopTreeLevel)->Arg(4)->Arg(8);

void BM_AigConstruction(benchmark::State& state) {
    const int bits = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(ripple_carry_adder(bits));
    }
}
BENCHMARK(BM_AigConstruction)->Arg(16)->Arg(64);

// Args: adder bits, cut size, max cuts. Cut 5 / max 8 is what clustering
// uses, cut 8 / max 6 what delay restructuring uses.
void BM_CutEnumeration(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(static_cast<int>(state.range(0)));
    const int cut_size = static_cast<int>(state.range(1));
    const int max_cuts = static_cast<int>(state.range(2));
    for (auto _ : state) {
        CutEnumerator cuts(adder, cut_size, max_cuts);
        benchmark::DoNotOptimize(cuts.cuts(static_cast<std::uint32_t>(adder.num_nodes()) - 1));
    }
}
BENCHMARK(BM_CutEnumeration)->Args({16, 5, 8})->Args({64, 5, 8})->Args({64, 8, 6});

void BM_Simulation(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(32);
    Rng rng(4);
    const SimPatterns patterns = SimPatterns::random(adder.num_pis(), 2048, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulate(adder, patterns));
    }
}
BENCHMARK(BM_Simulation);

void BM_TimingSimulation(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(32);
    Rng rng(5);
    const SimPatterns patterns = SimPatterns::random(adder.num_pis(), 1024, rng);
    const auto sigs = simulate(adder, patterns);
    for (auto _ : state) {
        benchmark::DoNotOptimize(timing_simulate(adder, patterns, sigs));
    }
}
BENCHMARK(BM_TimingSimulation);

void BM_SatAdderMiter(benchmark::State& state) {
    const Aig rca = ripple_carry_adder(static_cast<int>(state.range(0)));
    const Aig cla = carry_lookahead_adder(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(check_equivalence(rca, cla));
    }
}
BENCHMARK(BM_SatAdderMiter)->Arg(8)->Arg(16)->Arg(32);

void BM_SatSweep(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(16);
    for (auto _ : state) {
        Rng rng(6);
        benchmark::DoNotOptimize(sat_sweep(adder, rng));
    }
}
BENCHMARK(BM_SatSweep);

// The sparc_exu_ecl_flat Table 2 stand-in (572 PIs) against one delay
// restructure (cut 8) + balance round of itself: a CEC whose sweep issues
// thousands of mostly satisfiable queries on a solver with ~6k variables.
void BM_CecRestructured(benchmark::State& state) {
    const Aig circuit = synthetic_control_circuit(table2_profiles()[7]);
    RestructureOptions opt;
    opt.delay_oriented = true;
    opt.cut_size = 8;
    const Aig restructured = balance(restructure(circuit, opt));
    for (auto _ : state) {
        benchmark::DoNotOptimize(check_equivalence(circuit, restructured));
    }
}
BENCHMARK(BM_CecRestructured)->Unit(benchmark::kMillisecond);

void BM_Balance(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(64);
    for (auto _ : state) {
        benchmark::DoNotOptimize(balance(adder));
    }
}
BENCHMARK(BM_Balance);

// Arg 0: a 32-bit ripple-carry adder; arg 1: the sparc_ifu_dcl_flat Table 2
// stand-in (the restructure-bound straggler of lls_bench's table2_batch).
void BM_RestructureDelay(benchmark::State& state) {
    const Aig circuit = state.range(0) == 0 ? ripple_carry_adder(32)
                                            : synthetic_control_circuit(table2_profiles()[9]);
    RestructureOptions opt;
    opt.delay_oriented = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(restructure(circuit, opt));
    }
}
BENCHMARK(BM_RestructureDelay)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_DecomposeCoutCone(benchmark::State& state) {
    const Aig rca = ripple_carry_adder(8);
    const Aig cone = extract_cone(rca, rca.num_pos() - 1);
    LookaheadParams params;
    for (auto _ : state) {
        Rng rng(7);
        benchmark::DoNotOptimize(decompose_output(cone, params, rng));
    }
}
BENCHMARK(BM_DecomposeCoutCone);

// Arg 0: the i10 Table 2 stand-in (257 PIs, random activity patterns);
// arg 1: a 32-bit ripple-carry adder.
void BM_MapCircuit(benchmark::State& state) {
    const Aig circuit = state.range(0) == 0 ? synthetic_control_circuit(table2_profiles()[2])
                                            : ripple_carry_adder(32);
    const CellLibrary lib = CellLibrary::generic_70nm();
    for (auto _ : state) {
        benchmark::DoNotOptimize(map_circuit(circuit, lib));
    }
}
BENCHMARK(BM_MapCircuit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
