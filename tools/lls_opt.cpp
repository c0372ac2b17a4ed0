// lls_opt: command-line timing optimization driver.
//
//   lls_opt [options] <input.blif> [output.blif]
//   lls_opt --batch [options] <input.blif> [input2.blif ...]
//
// Options:
//   --flow sis|abc|dc|lookahead   optimization flow (default: lookahead)
//   --iterations N                lookahead decomposition rounds (default 10)
//   --jobs N|auto                 worker threads (cone fan-out; batch circuits);
//                                 auto (or 0) = every hardware thread; unused
//                                 by --flow sis|abc|dc
//   --work-budget N               deterministic work budget in units (0 = none);
//                                 budgeted runs are bit-identical across --jobs
//   --batch                       optimize every input concurrently (--jobs)
//   --out-dir DIR                 batch mode: write DIR/<input> per circuit
//   --checkpoint FILE             batch mode: journal each completed circuit to
//                                 FILE (flush-and-throw); with --resume, skip
//                                 circuits already journaled under the same
//                                 input hash + params fingerprint
//   --resume                      resume an interrupted --checkpoint batch
//   --fault-inject SPEC           deterministic fault injection, SPEC =
//                                 kind@site[,...]; kinds parse|resource|solver|
//                                 verify|invariant|io|cancel|oom fire a fault
//                                 at engine sites (decompose|spcf|sat|cec|run)
//                                 and the cone keeps its original logic
//   --no-verify                   skip the final equivalence check
//   --map                         single-circuit mode: print a technology-mapping
//                                 report
//   --aiger PATH                  single-circuit mode: also dump the result as
//                                 ASCII AIGER
//   --verilog PATH                single-circuit mode: dump the mapped gate-level
//                                 netlist as Verilog
//   --stats                       single-circuit mode: print per-round
//                                 decomposition log
//   --metrics                     print engine stage timers + cache stats
//   --metrics-json FILE           dump the metrics registry as JSON to FILE
//   --cache-dir DIR               lookahead flow's persistent memo store: load
//                                 intact shards from DIR after reading the
//                                 inputs and publish new memo entries back
//                                 (docs/ENGINE.md, "Persistent memo store");
//                                 corrupt or version-mismatched shards degrade
//                                 to a cold start, never a failure
//   --cache-mode read|rw          what --cache-dir may do (default rw)
//   --time-budget DUR             wall-clock safety rail for the whole run
//                                 (500ms/30s/5m; nondeterministic; use
//                                 --work-budget for reproducible budgeted runs)
//
// --iterations, --work-budget, --time-budget, --fault-inject, --batch and
// --cache-dir serve only the lookahead flow. An option outside the mode or
// flow that reads it is a usage error, never silently ignored. The one
// exception is --jobs, which scripts pass with every flow: sis|abc|dc
// accept it and run on one thread, and their reports name no job count
// and no engine memo.
//
// Exit codes are documented in --help: 0 success; 1 not equivalent / item
// failed; 2 usage; 10..16 per ErrorKind (a failed checkpoint append is 15);
// 30 terminated by SIGTERM/SIGINT with the checkpoint journal and
// persist-store shards flushed (--resume continues byte-identically). A
// second signal hard-exits with the conventional 128+signo.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <atomic>

#include <sstream>

#include "baseline/flows.hpp"
#include "cec/cec.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parse.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "engine/checkpoint.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "io/blif.hpp"
#include "lookahead/optimize.hpp"
#include <fstream>

#include "mapping/mapper.hpp"
#include "mapping/netlist.hpp"

namespace {

// Graceful signal-driven shutdown: the first SIGTERM/SIGINT requests
// cooperative cancellation (the engine stops dispatching, in-flight cones
// cancel at their next poll, the checkpoint journal and persist-store
// shards are flushed, and the process exits with kExitSignalShutdown so
// scripts know --resume will continue byte-identically). A second signal
// hard-exits with the conventional 128+signo. Everything the handler does
// is async-signal-safe: one atomic exchange, one relaxed store, _exit.
lls::CancelToken g_shutdown;
std::atomic<int> g_signal{0};

extern "C" void handle_shutdown_signal(int sig) {
    if (g_signal.exchange(sig) != 0) _exit(128 + sig);
    g_shutdown.request();
}

void install_signal_handlers() {
    struct sigaction action = {};
    action.sa_handler = handle_shutdown_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
}

void print_usage(std::FILE* out, const char* argv0) {
    std::fprintf(out,
                 "usage: %s [--flow sis|abc|dc|lookahead] [--iterations N] [--jobs N|auto]\n"
                 "          [--work-budget N] [--time-budget DUR]\n"
                 "          [--fault-inject SPEC]\n"
                 "          [--cache-dir DIR] [--cache-mode read|rw]\n"
                 "          [--no-verify] [--map]\n"
                 "          [--aiger PATH] [--verilog PATH] [--stats] [--metrics]\n"
                 "          [--metrics-json FILE]\n"
                 "          <input.blif> [output.blif]\n"
                 "       %s --batch [options] [--out-dir DIR] [--checkpoint FILE] [--resume]\n"
                 "          <input.blif> [input2.blif ...]\n"
                 "       %s --help\n",
                 argv0, argv0, argv0);
}

int usage(const char* argv0) {
    print_usage(stderr, argv0);
    return lls::kExitUsage;
}

int help(const char* argv0) {
    print_usage(stdout, argv0);
    std::printf(
        "\nDurations (DUR) are a number with a unit: 500ms, 30s, 5m.\n"
        "Fault specs (SPEC) are kind@site[,...]: kind parse|resource|solver|verify|\n"
        "invariant|io|cancel|oom fires at site decompose|spcf|sat|cec|run, and the\n"
        "cone keeps its original logic.\n"
        "\nexit codes:\n"
        "   0  success\n"
        "  %2d  result not equivalent / unresolved, or a batch item failed\n"
        "  %2d  usage error (bad flags or arguments)\n"
        "  %2d  parse error (malformed BLIF/AIGER/spec input)\n"
        "  %2d  resource exhausted (SAT literal limit, out of memory)\n"
        "  %2d  solver limit (a solver gave up within its effort bound)\n"
        "  %2d  verification failed or could not be resolved\n"
        "  %2d  internal invariant violation\n"
        "  %2d  I/O error (filesystem open/read/write, a checkpoint append)\n"
        "  %2d  cancelled (cooperative cancellation surfaced as an error)\n"
        "  %2d  terminated by SIGTERM/SIGINT: checkpoint journal and persist\n"
        "      store flushed; rerun with --resume to continue byte-identically\n"
        " 128+signo  hard exit on a second SIGTERM/SIGINT\n",
        lls::kExitNotEquivalent, lls::kExitUsage, lls::exit_code_for(lls::ErrorKind::ParseError),
        lls::exit_code_for(lls::ErrorKind::ResourceExhausted),
        lls::exit_code_for(lls::ErrorKind::SolverLimit),
        lls::exit_code_for(lls::ErrorKind::VerificationFailed),
        lls::exit_code_for(lls::ErrorKind::InvariantViolation),
        lls::exit_code_for(lls::ErrorKind::IoError), lls::exit_code_for(lls::ErrorKind::Cancelled),
        lls::kExitSignalShutdown);
    return 0;
}

std::string basename_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// One-line report of every contained fault of a finished run. A record
/// without a cone is a whole-circuit candidate that a CEC proved wrong.
void print_fault_summary(const char* name, const lls::OptimizeStats& stats) {
    if (stats.faults.empty()) return;
    std::printf("%s: %zu fault(s) contained, each reverted to the logic it would have "
                "replaced\n",
                name, stats.faults.size());
    for (const auto& f : stats.faults) {
        if (f.cone < 0)
            std::printf("  fault [%s/%s] whole circuit: %s\n", lls::error_kind_name(f.kind),
                        f.stage.c_str(), f.detail.c_str());
        else
            std::printf("  fault [%s/%s] cone %d (%s)\n", lls::error_kind_name(f.kind),
                        f.stage.c_str(), f.cone, f.cone_name.c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::string flow = "lookahead";
    std::vector<std::string> inputs;
    std::string output_path, aiger_path, verilog_path, out_dir;
    std::string fault_spec, checkpoint_path;
    std::string cache_dir, cache_mode = "rw", metrics_json_path;
    int iterations = 10;
    int jobs = 1;
    std::uint64_t work_budget = 0;
    double time_budget = 0.0;
    bool verify = true, map_report = false, print_stats = false, print_metrics = false;
    bool batch = false, resume = false;
    std::set<std::string> given;  // every option named on the command line

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) given.insert(arg);
        // The value of an option that takes one, or nullptr after naming
        // the option when the command line ends before it.
        const auto value = [&]() -> const char* {
            if (i + 1 < argc) return argv[++i];
            std::fprintf(stderr, "error: %s expects a value\n", arg.c_str());
            return nullptr;
        };
        const char* v = nullptr;
        if (arg == "--help" || arg == "-h") {
            return help(argv[0]);
        } else if (arg == "--flow") {
            if (!(v = value())) return usage(argv[0]);
            flow = v;
            if (flow != "sis" && flow != "abc" && flow != "dc" && flow != "lookahead") {
                std::fprintf(stderr, "error: --flow expects sis|abc|dc|lookahead, got '%s'\n", v);
                return usage(argv[0]);
            }
        } else if (arg == "--iterations") {
            if (!(v = value()) ||
                !lls::parse_int_option("--iterations", v, 0, 1000000, &iterations))
                return usage(argv[0]);
        } else if (arg == "--jobs") {
            if (!(v = value()) || !lls::parse_jobs_option("--jobs", v, 1024, &jobs))
                return usage(argv[0]);
        } else if (arg == "--work-budget") {
            if (!(v = value()) ||
                !lls::parse_u64_option("--work-budget", v, UINT64_MAX, &work_budget))
                return usage(argv[0]);
        } else if (arg == "--time-budget") {
            if (!(v = value()) || !lls::parse_duration_option("--time-budget", v, &time_budget))
                return usage(argv[0]);
        } else if (arg == "--batch") {
            batch = true;
        } else if (arg == "--out-dir") {
            if (!(v = value())) return usage(argv[0]);
            out_dir = v;
        } else if (arg == "--checkpoint") {
            if (!(v = value())) return usage(argv[0]);
            checkpoint_path = v;
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--fault-inject") {
            if (!(v = value())) return usage(argv[0]);
            fault_spec = v;
        } else if (arg == "--no-verify") {
            verify = false;
        } else if (arg == "--map") {
            map_report = true;
        } else if (arg == "--aiger") {
            if (!(v = value())) return usage(argv[0]);
            aiger_path = v;
        } else if (arg == "--verilog") {
            if (!(v = value())) return usage(argv[0]);
            verilog_path = v;
        } else if (arg == "--stats") {
            print_stats = true;
        } else if (arg == "--metrics") {
            print_metrics = true;
        } else if (arg == "--metrics-json") {
            if (!(v = value())) return usage(argv[0]);
            metrics_json_path = v;
        } else if (arg == "--cache-dir") {
            if (!(v = value())) return usage(argv[0]);
            cache_dir = v;
        } else if (arg == "--cache-mode") {
            if (!(v = value())) return usage(argv[0]);
            cache_mode = v;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
            return usage(argv[0]);
        } else if (batch) {
            inputs.push_back(arg);
        } else if (inputs.empty()) {
            inputs.push_back(arg);
        } else if (output_path.empty()) {
            output_path = arg;
        } else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }
    if (inputs.empty()) return usage(argv[0]);

    // --jobs auto (or 0) resolves to the whole machine here, once, so every
    // later report prints the actual thread count in use.
    if (jobs == 0) jobs = static_cast<int>(lls::ThreadPool::hardware_jobs());

    lls::LookaheadParams params;
    params.max_iterations = iterations;
    params.work_budget = work_budget;
    params.time_budget_seconds = time_budget;
    lls::EngineOptions engine;
    engine.jobs = jobs;

    // From here on a SIGTERM/SIGINT requests graceful shutdown through the
    // engine's cancellation token instead of killing the process mid-write.
    install_signal_handlers();
    engine.cancel = &g_shutdown;

    // An option the chosen mode or flow would ignore is a usage error: the
    // engine's budgets, fault sites, batch mode and memo store serve only
    // the lookahead flow; output dumps and reports only the single-circuit
    // mode; the output directory and journal only the batch mode.
    const auto reject = [&](const char* option, const std::string& why) {
        std::fprintf(stderr, "error: '%s' %s\n", option, why.c_str());
        return usage(argv[0]);
    };
    if (flow != "lookahead")
        for (const char* option : {"--batch", "--cache-dir", "--iterations", "--work-budget",
                                   "--time-budget", "--fault-inject"})
            if (given.count(option))
                return reject(option, "supports only --flow lookahead (got --flow " + flow + ")");
    if (batch) {
        for (const char* option : {"--aiger", "--verilog", "--map", "--stats"})
            if (given.count(option)) return reject(option, "is not supported with --batch");
    } else {
        for (const char* option : {"--out-dir", "--checkpoint"})
            if (given.count(option)) return reject(option, "requires --batch");
    }
    if (resume && checkpoint_path.empty()) return reject("--resume", "requires --checkpoint FILE");
    if (given.count("--cache-mode") && cache_dir.empty())
        return reject("--cache-mode", "requires --cache-dir");
    const auto store_mode = lls::persist::parse_store_mode(cache_mode);
    if (!store_mode)
        return reject("--cache-mode", "expects read|rw, got '" + cache_mode + "'");
    // The fault plan is part of what the evaluations compute: parsed once
    // here, it rides in the params into every run and its fingerprint.
    if (!fault_spec.empty()) {
        try {
            params.fault_plan = lls::FaultPlan::parse(fault_spec);
        } catch (const std::exception& e) {
            return reject("--fault-inject", std::string("has a bad spec: ") + e.what());
        }
    }

    std::vector<lls::BatchItem> items;
    for (const auto& path : inputs) {
        try {
            items.push_back({path, lls::read_blif_file(path)});
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error reading %s: %s\n", path.c_str(), e.what());
            return lls::exit_code_for(lls::error_kind_of(e));
        }
    }

    // Persistent memo store, opened after the inputs are read (an unreadable
    // input must not pay for a load) and before any optimization. A store
    // that cannot be *read* degrades to a cold start; only an unusable write
    // setup throws, and even that merely disables persistence — the
    // optimization must never be blocked by cache trouble.
    std::unique_ptr<lls::WarmStart> warm;
    if (!cache_dir.empty()) {
        try {
            warm = std::make_unique<lls::WarmStart>(cache_dir, *store_mode);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "warning: persistent cache disabled: %s\n", e.what());
        }
    }
    if (warm) {
        const lls::persist::LoadReport& rep = warm->report();
        for (const auto& note : rep.notes)
            std::fprintf(stderr, "persist: rejected shard: %s\n", note.c_str());
        if (warm->imported_records() > 0)
            std::printf("persist: warm start, %zu record(s) from %zu shard(s)\n",
                        warm->imported_records(), rep.files_loaded);
        else
            std::printf("persist: cold start\n");
        engine.warm_start = warm.get();
    }

    // Shared epilogue of both modes: final store flush + metrics dumps. The
    // engine memos are listed only for the lookahead flow, the one that
    // consults them. Returns false (-> exit 1) only when --metrics-json
    // cannot be written.
    auto epilogue = [&]() -> bool {
        if (warm) warm->finalize();
        const auto caches = flow == "lookahead" ? lls::all_cache_stats()
                                                : std::vector<lls::CacheStatsSnapshot>{};
        if (print_metrics) lls::Metrics::global().report(stdout, caches);
        if (!metrics_json_path.empty()) {
            std::ofstream out(metrics_json_path);
            out << lls::Metrics::global().to_json(caches) << '\n';
            out.flush();
            if (!out.good()) {
                std::fprintf(stderr, "error writing %s\n", metrics_json_path.c_str());
                return false;
            }
            std::printf("wrote %s\n", metrics_json_path.c_str());
        }
        return true;
    };

    // ---- batch mode: many circuits sharing --jobs -------------------------
    if (batch) {
        if (!out_dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(out_dir, ec);
            if (ec) {
                std::fprintf(stderr, "error: cannot create --out-dir %s: %s\n", out_dir.c_str(),
                             ec.message().c_str());
                return lls::exit_code_for(lls::ErrorKind::IoError);
            }
        }

        // Checkpoint journal: a fresh --checkpoint run starts a new journal
        // (any stale one is discarded); --resume keeps it and skips every
        // item already journaled under the same input hash and params
        // fingerprint — those outputs are already on disk, byte-identical
        // to what re-running would produce.
        std::unique_ptr<lls::BatchCheckpoint> checkpoint;
        std::uint64_t params_fp = 0;
        std::size_t skipped = 0;
        if (!checkpoint_path.empty()) {
            try {
                params_fp = lls::lookahead_params_fingerprint(params);
                if (!resume) std::remove(checkpoint_path.c_str());
                checkpoint = std::make_unique<lls::BatchCheckpoint>(checkpoint_path);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: checkpoint %s: %s\n", checkpoint_path.c_str(),
                             e.what());
                return lls::exit_code_for(lls::error_kind_of(e));
            }
            if (resume) {
                std::vector<lls::BatchItem> pending;
                for (auto& item : items) {
                    if (checkpoint->find(item.name, item.input.cleanup().hash(), params_fp)) {
                        std::printf("%s: skipped (already journaled)\n", item.name.c_str());
                        ++skipped;
                    } else {
                        pending.push_back(std::move(item));
                    }
                }
                items = std::move(pending);
            }
        }

        lls::Stopwatch sw;
        int exit_code = 0;
        std::size_t journaled = 0;
        // Runs under the batch's completion mutex: per-item verification,
        // output writing and journaling. A failed append throws out of the
        // batch (see below).
        auto on_complete = [&](const lls::BatchOutcome& r, std::size_t i) {
            if (r.cancelled) {
                // Shutdown interrupted this item: nothing is verified,
                // written, or journaled — --resume re-runs it from scratch
                // and reproduces the uninterrupted bytes.
                std::printf("%s: cancelled by shutdown request (not journaled; re-run with "
                            "--resume)\n",
                            r.name.c_str());
                return;
            }
            std::printf("%s: depth %d -> %d, %zu -> %zu AND nodes (%.2fs)\n", r.name.c_str(),
                        r.stats.initial_depth, r.stats.final_depth, r.stats.initial_ands,
                        r.stats.final_ands, r.seconds);
            if (r.failed) {
                std::fprintf(stderr, "%s: optimization failed, output kept original: %s\n",
                             r.name.c_str(), r.error.c_str());
                exit_code = 1;
            }
            print_fault_summary(r.name.c_str(), r.stats);
            if (work_budget > 0)
                std::printf("%s: work budget spent %llu of %llu units%s\n", r.name.c_str(),
                            static_cast<unsigned long long>(r.stats.work_units),
                            static_cast<unsigned long long>(work_budget),
                            r.stats.budget_exhausted ? " (exhausted)" : "");
            if (verify && !r.failed) {
                const lls::CecResult cec =
                    lls::check_equivalence(items[i].input, r.output, 4000000);
                if (!cec.resolved || !cec.equivalent) {
                    std::fprintf(stderr, "%s: equivalence check %s\n", r.name.c_str(),
                                 cec.resolved ? "FAILED" : "UNRESOLVED");
                    exit_code = 1;
                    return;
                }
            }
            std::ostringstream bytes;
            lls::write_blif(bytes, r.output, "lls_opt");
            if (!out_dir.empty()) {
                const std::string out_path = out_dir + "/" + basename_of(r.name);
                try {
                    lls::write_blif_file(out_path, r.output, "lls_opt");
                    std::printf("wrote %s\n", out_path.c_str());
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "error writing %s: %s\n", out_path.c_str(), e.what());
                    exit_code = 1;
                    return;  // an unwritten output must not be journaled as done
                }
            }
            if (checkpoint) {
                lls::CheckpointEntry entry;
                entry.name = r.name;
                entry.input_hash = items[i].input.cleanup().hash();
                entry.params_fingerprint = params_fp;
                entry.output_hash = lls::checkpoint_bytes_hash(bytes.str());
                entry.final_depth = r.stats.final_depth;
                entry.final_ands = r.stats.final_ands;
                entry.failed = r.failed;
                checkpoint->append(entry);  // flush-and-throw
                ++journaled;
            }
        };

        // An error escaping on_complete — a journal append that did not
        // reach the disk — stops the batch: items not yet started are cut,
        // and the journal keeps every entry appended before it (a torn last
        // line is dropped on --resume), so --resume continues from there.
        std::vector<lls::BatchOutcome> outcomes;
        try {
            outcomes = lls::optimize_timing_batch(items, params, engine, on_complete);
        } catch (const std::exception& e) {
            epilogue();
            std::fprintf(stderr, "error: batch stopped after %zu journaled circuit(s): %s\n",
                         journaled, e.what());
            return lls::exit_code_for(lls::error_kind_of(e));
        }
        std::printf("batch: %zu circuits (%zu skipped via checkpoint), %d jobs, %.2fs wall "
                    "clock\n",
                    outcomes.size() + skipped, skipped, jobs, sw.elapsed_seconds());
        // Graceful signal shutdown: the journal holds every finished item
        // (appended flush-and-throw as it completed), and epilogue() flushes
        // the persist-store shards. The distinct exit code tells scripts
        // this run is resumable, not failed.
        if (g_signal.load() != 0) {
            const bool flushed = epilogue();
            std::size_t cancelled = 0;
            for (const auto& r : outcomes) cancelled += r.cancelled ? 1 : 0;
            std::fprintf(stderr,
                         "terminated by signal %d: %zu circuit(s) journaled, %zu cancelled; "
                         "checkpoint %s; rerun with --resume to continue\n",
                         g_signal.load(), journaled, cancelled,
                         flushed ? "flushed" : "flushed (metrics dump failed)");
            return lls::kExitSignalShutdown;
        }
        if (!epilogue()) exit_code = 1;
        return exit_code;
    }

    // ---- single-circuit mode ----------------------------------------------
    const std::string& input_path = inputs[0];
    const lls::Aig& circuit = items[0].input;
    std::printf("%s: %zu PIs, %zu POs, %zu AND nodes, depth %d\n", input_path.c_str(),
                circuit.num_pis(), circuit.num_pos(), circuit.count_reachable_ands(),
                circuit.depth());

    lls::Stopwatch sw;
    lls::Aig optimized;
    lls::OptimizeStats stats;
    lls::Rng rng(1);
    if (flow == "sis") {
        optimized = lls::flow_sis(circuit, rng);
    } else if (flow == "abc") {
        optimized = lls::flow_abc(circuit, rng);
    } else if (flow == "dc") {
        optimized = lls::flow_dc(circuit, rng);
    } else {
        try {
            optimized = lls::optimize_timing_engine(circuit, params, engine, &stats);
        } catch (const std::exception& e) {
            // Per-cone faults are contained inside the engine; anything
            // reaching here is a run-level failure (e.g. an injected `run`
            // fault) — report, never abort().
            std::fprintf(stderr, "error: optimization failed: %s\n", e.what());
            return lls::exit_code_for(lls::error_kind_of(e));
        }
    }
    std::printf("%s flow: depth %d -> %d, %zu -> %zu AND nodes (%.2fs", flow.c_str(),
                circuit.depth(), optimized.depth(), circuit.count_reachable_ands(),
                optimized.count_reachable_ands(), sw.elapsed_seconds());
    if (flow == "lookahead")
        std::printf(", %d jobs)\n", jobs);
    else
        std::printf(")\n");
    if (work_budget > 0)
        std::printf("work budget: spent %llu of %llu units%s\n",
                    static_cast<unsigned long long>(stats.work_units),
                    static_cast<unsigned long long>(work_budget),
                    stats.budget_exhausted ? " (exhausted)" : "");
    if (stats.wall_clock_interrupted)
        std::fprintf(stderr,
                     "warning: wall-clock budget fired; this result is timing-dependent "
                     "(use --work-budget for deterministic budgeted runs)\n");
    print_fault_summary(input_path.c_str(), stats);
    if (print_stats)
        for (const auto& line : stats.log) std::printf("  %s\n", line.c_str());
    // Graceful signal shutdown: the engine returned its best verified
    // circuit so far, but the optimization is incomplete — flush the
    // persist store and exit with the resumable-shutdown code instead of
    // writing partial outputs.
    if (stats.cancelled || g_signal.load() != 0) {
        epilogue();
        std::fprintf(stderr, "terminated by signal %d: optimization incomplete, outputs not "
                             "written\n",
                     g_signal.load());
        return lls::kExitSignalShutdown;
    }
    if (!epilogue()) return 1;

    if (verify) {
        const lls::CecResult cec = lls::check_equivalence(circuit, optimized, 4000000);
        if (!cec.resolved) {
            std::fprintf(stderr, "equivalence check UNRESOLVED (conflict limit)\n");
            return lls::kExitNotEquivalent;
        }
        if (!cec.equivalent) {
            std::fprintf(stderr, "equivalence check FAILED\n");
            return lls::kExitNotEquivalent;
        }
        std::printf("equivalence check: PASS\n");
    }

    if (map_report) {
        const lls::CellLibrary lib = lls::CellLibrary::generic_70nm();
        const lls::MappedCircuit mapped = lls::map_circuit(optimized, lib);
        std::printf("mapped: %zu gates, delay %.0f ps, area %.1f, power %.3f mW @1GHz\n",
                    mapped.num_gates, mapped.delay_ps, mapped.area, mapped.power_mw);
        for (const auto& [cell, count] : mapped.cell_histogram)
            std::printf("  %-8s %d\n", cell.c_str(), count);
    }

    if (!output_path.empty()) {
        try {
            lls::write_blif_file(output_path, optimized, "lls_opt");
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error writing %s: %s\n", output_path.c_str(), e.what());
            return lls::exit_code_for(lls::error_kind_of(e));
        }
        std::printf("wrote %s\n", output_path.c_str());
    }
    if (!aiger_path.empty()) {
        try {
            lls::write_aiger_file(aiger_path, optimized);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error writing %s: %s\n", aiger_path.c_str(), e.what());
            return lls::exit_code_for(lls::error_kind_of(e));
        }
        std::printf("wrote %s\n", aiger_path.c_str());
    }
    if (!verilog_path.empty()) {
        const lls::CellLibrary lib = lls::CellLibrary::generic_70nm();
        const lls::Netlist netlist = lls::map_to_netlist(optimized, lib);
        std::ofstream vout(verilog_path);
        if (!vout) {
            std::fprintf(stderr, "cannot open %s\n", verilog_path.c_str());
            return 1;
        }
        netlist.write_verilog(vout, "lls_mapped");
        std::printf("wrote %s (%zu gates, %.0f ps critical path)\n", verilog_path.c_str(),
                    netlist.num_gates(), netlist.critical_delay_ps());
    }
    return 0;
}
