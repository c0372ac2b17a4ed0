// Reproduces Table 2 of the paper: fifteen MCNC / ISCAS85 / OpenSPARC T1
// control-logic circuits optimized with the three baseline flow stand-ins
// (SIS / ABC / Synopsys DC) and with the lookahead technique, reporting AIG
// gates, AIG levels, technology-mapped delay, and dynamic power at 1 GHz.
//
// The circuits are synthetic stand-ins with the paper's PI/PO interfaces
// (the originals are not redistributable); see DESIGN.md "Substitutions".
// The reproduced claim is the relative shape: lookahead achieves the lowest
// levels and mapped delay on average, at a modest power premium over the
// best baseline.

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/flows.hpp"
#include "cec/cec.hpp"
#include "common/stopwatch.hpp"
#include "io/generators.hpp"
#include "lookahead/optimize.hpp"
#include "mapping/mapper.hpp"
#include "provenance.hpp"

using namespace lls;

namespace {

struct FlowResult {
    std::size_t gates = 0;
    int levels = 0;
    double delay_ps = 0.0;
    double power_mw = 0.0;
};

FlowResult evaluate(const Aig& original, const Aig& optimized, const CellLibrary& lib,
                    const char* flow, const char* circuit) {
    const CecResult cec = check_equivalence(original, optimized, 4000000);
    if (!cec.resolved || !cec.equivalent) {
        std::fprintf(stderr, "EQUIVALENCE FAILURE: %s on %s\n", flow, circuit);
        std::exit(1);
    }
    const MappedCircuit mapped = map_circuit(optimized, lib);
    return FlowResult{optimized.count_reachable_ands(), optimized.depth(), mapped.delay_ps,
                      mapped.power_mw};
}

}  // namespace

int main() {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const auto profiles = table2_profiles();

    std::printf("Table 2: comparison of the proposed technique with the best algorithms in "
                "SIS, ABC, and Synopsys DC (synthetic benchmark stand-ins)\n");
    std::printf("%-22s %-9s | %-28s | %-28s | %-28s | %-28s\n", "Name", "PI/PO",
                "SIS   gates lvl  delay  power", "ABC   gates lvl  delay  power",
                "DC    gates lvl  delay  power", "LA    gates lvl  delay  power");

    const char* flow_names[4] = {"sis", "abc", "dc", "lookahead"};
    double sum_levels[4] = {0, 0, 0, 0};
    double sum_delay[4] = {0, 0, 0, 0};
    double sum_power[4] = {0, 0, 0, 0};
    double sum_gates[4] = {0, 0, 0, 0};
    std::string json = "{\"provenance\":" + provenance_json() + ",\"benchmarks\":[";
    bool json_first = true;
    std::vector<std::string> unverified;

    Stopwatch total;
    for (const auto& profile : profiles) {
        const Aig circuit = synthetic_control_circuit(profile);
        Rng rng(7);

        FlowResult r[4];
        r[0] = evaluate(circuit, flow_sis(circuit, rng), lib, flow_names[0], profile.name.c_str());
        r[1] = evaluate(circuit, flow_abc(circuit, rng), lib, flow_names[1], profile.name.c_str());
        r[2] = evaluate(circuit, flow_dc(circuit, rng), lib, flow_names[2], profile.name.c_str());

        LookaheadParams params;
        params.max_iterations = 8;
        OptimizeStats stats;
        const Aig ours = optimize_timing(circuit, params, &stats);
        if (!stats.verified) unverified.push_back(profile.name);
        r[3] = evaluate(circuit, ours, lib, flow_names[3], profile.name.c_str());

        std::printf("%-22s %3d/%-5d |", profile.name.c_str(), profile.num_pis, profile.num_pos);
        if (!json_first) json += ',';
        json_first = false;
        json += "{\"name\":\"" + profile.name + "\",\"pis\":" + std::to_string(profile.num_pis) +
                ",\"pos\":" + std::to_string(profile.num_pos) +
                ",\"verified\":" + (stats.verified ? "true" : "false") + ",\"flows\":{";
        for (int f = 0; f < 4; ++f) {
            std::printf(" %10zu %3d %6.0f %6.3f |", r[f].gates, r[f].levels, r[f].delay_ps,
                        r[f].power_mw);
            sum_gates[f] += static_cast<double>(r[f].gates);
            sum_levels[f] += r[f].levels;
            sum_delay[f] += r[f].delay_ps;
            sum_power[f] += r[f].power_mw;
            if (f) json += ',';
            json += "\"" + std::string(flow_names[f]) + "\":{\"gates\":" +
                    std::to_string(r[f].gates) + ",\"levels\":" + std::to_string(r[f].levels) +
                    ",\"delay_ps\":" + std::to_string(r[f].delay_ps) +
                    ",\"power_mw\":" + std::to_string(r[f].power_mw) + "}";
        }
        json += "}}";
        std::printf("\n");
        std::fflush(stdout);
    }

    const double n = static_cast<double>(profiles.size());
    std::printf("%-22s %9s |", "Average", "");
    for (int f = 0; f < 4; ++f)
        std::printf(" %10.0f %3.0f %6.0f %6.3f |", sum_gates[f] / n, sum_levels[f] / n,
                    sum_delay[f] / n, sum_power[f] / n);
    std::printf("\n\n");

    auto reduction = [&](const double* sums) {
        std::printf("  vs SIS %+5.1f%%   vs ABC %+5.1f%%   vs DC %+5.1f%%\n",
                    100.0 * (sums[3] - sums[0]) / sums[0], 100.0 * (sums[3] - sums[1]) / sums[1],
                    100.0 * (sums[3] - sums[2]) / sums[2]);
    };
    std::printf("Lookahead average AIG levels change:\n");
    reduction(sum_levels);
    std::printf("Lookahead average mapped delay change:\n");
    reduction(sum_delay);
    std::printf("Lookahead average power change:\n");
    reduction(sum_power);
    std::printf("Lookahead average gate-count change:\n");
    reduction(sum_gates);
    std::printf("(paper: levels -40%%/-56%%/-22%%, delay -21%%/-56%%/-10%%, power ~+10%% vs DC; "
                "all circuits CEC-verified; %.1fs total)\n", total.elapsed_seconds());

    json += "],\"total_seconds\":" + std::to_string(total.elapsed_seconds()) + "}\n";
    if (std::FILE* f = std::fopen("BENCH_table2.json", "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("wrote BENCH_table2.json\n");
    }
    // The engine's own round/pass CEC left a result unresolved: the QoR of
    // that row is not a verified lookahead result.
    for (const auto& name : unverified)
        std::fprintf(stderr, "UNVERIFIED: lookahead on %s\n", name.c_str());
    return unverified.empty() ? 0 : 1;
}
