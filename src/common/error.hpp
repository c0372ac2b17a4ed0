#pragma once

// Structured error taxonomy for the LLS library.
//
// Every failure the library can surface is an LlsError carrying an
// ErrorKind plus the pipeline stage that raised it. The kind is what the
// callers dispatch on — the per-cone fault boundary records it in the
// FaultRecord, and the CLI maps it to an exit code — while the stage makes
// a contained fault reportable without re-deriving where it happened.
// LlsError derives from std::runtime_error so existing catch sites keep
// working.

#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace lls {

enum class ErrorKind {
    ParseError,          ///< malformed input (BLIF/AIGER/CLI spec grammar)
    ResourceExhausted,   ///< a guarded allocation ceiling was hit (BDD nodes, SAT literals, memory)
    SolverLimit,         ///< a solver gave up within its configured effort bound
    VerificationFailed,  ///< an equivalence check failed or could not be resolved
    InvariantViolation,  ///< an internal contract was broken
    IoError,             ///< filesystem open/read/write failure
};

inline const char* error_kind_name(ErrorKind kind) {
    switch (kind) {
        case ErrorKind::ParseError: return "parse";
        case ErrorKind::ResourceExhausted: return "resource";
        case ErrorKind::SolverLimit: return "solver";
        case ErrorKind::VerificationFailed: return "verify";
        case ErrorKind::InvariantViolation: return "invariant";
        case ErrorKind::IoError: return "io";
    }
    return "unknown";
}

// Documented process exit codes (printed by `lls_opt --help`). 0 = success,
// 1 = non-equivalent result in single-circuit mode, 2 = usage error.
// Library failures map per ErrorKind below (10-15; codes 16 and 42 are
// retired and never reused). kExitSignalShutdown is "terminated by signal,
// checkpoint flushed" — distinct so scripts know `--resume` will continue
// cleanly (common/shutdown.hpp).
inline constexpr int kExitNotEquivalent = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitSignalShutdown = 30;

inline int exit_code_for(ErrorKind kind) {
    switch (kind) {
        case ErrorKind::ParseError: return 10;
        case ErrorKind::ResourceExhausted: return 11;
        case ErrorKind::SolverLimit: return 12;
        case ErrorKind::VerificationFailed: return 13;
        case ErrorKind::InvariantViolation: return 14;
        case ErrorKind::IoError: return 15;
    }
    return 14;
}

class LlsError : public std::runtime_error {
public:
    LlsError(ErrorKind kind, const std::string& message, std::string stage = {})
        : std::runtime_error(format(kind, message, stage)),
          kind_(kind),
          stage_(std::move(stage)) {}

    ErrorKind kind() const { return kind_; }
    /// Pipeline stage that raised ("decompose", "spcf", "cec", "bdd", ...).
    const std::string& stage() const { return stage_; }

private:
    static std::string format(ErrorKind kind, const std::string& message,
                              const std::string& stage) {
        std::string s = "[";
        s += error_kind_name(kind);
        if (!stage.empty()) s += "/" + stage;
        s += "] " + message;
        return s;
    }

    ErrorKind kind_;
    std::string stage_;
};

/// Classifies an arbitrary exception into the taxonomy: LlsError keeps its
/// kind, allocation failures map to ResourceExhausted, broken contracts to
/// InvariantViolation (the conservative default for anything unknown).
inline ErrorKind error_kind_of(const std::exception& e) {
    if (const auto* lls = dynamic_cast<const LlsError*>(&e)) return lls->kind();
    if (dynamic_cast<const std::bad_alloc*>(&e)) return ErrorKind::ResourceExhausted;
    return ErrorKind::InvariantViolation;
}

}  // namespace lls
