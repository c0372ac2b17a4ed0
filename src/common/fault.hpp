#pragma once

// Deterministic fault injection and fault reporting.
//
// A FaultPlan is parsed from the spec grammar `kind@site`, comma-separated
// for several specs:
//
//   kind  := parse | resource | solver | verify | invariant | io | oom
//   site  := decompose | spcf | sat | cec | run
//
// Injection is deterministic by construction: a spec `kind@site` fires a
// synthetic LlsError of `kind` every time evaluation reaches the named
// site. The decision depends only on (plan, site) — never on wall clock,
// thread schedule, or cache state — so fault-injected runs stay
// bit-identical across --jobs values, and the engine's fault boundary is
// exercisable in tests and CI with a reproducible schedule. The plan
// fingerprint is mixed into the engine's params fingerprint (memo keys +
// per-cone RNG seeds), so memoized evaluations replay their injected
// faults consistently.
//
// FaultRecord is the report of one contained fault: what fired, and
// where. A faulted cone keeps its original structure. The engine appends
// records to OptimizeStats::faults at the serial commit point, in
// deterministic task order, and one whole-circuit record (cone -1) for
// each candidate a pass CEC proves wrong.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace lls {

/// One contained fault: taxonomy kind, pipeline stage, and cone scope.
struct FaultRecord {
    ErrorKind kind = ErrorKind::InvariantViolation;
    std::string stage;      ///< pipeline stage that faulted
    std::string detail;     ///< human-readable cause (exception text)
    int cone = -1;          ///< PO index of the cone (filled at commit); -1 = whole circuit
    std::string cone_name;  ///< PO name (filled at commit)
};

/// One parsed `kind@site` spec.
struct FaultSpec {
    ErrorKind kind = ErrorKind::ResourceExhausted;
    /// `oom@...`: fires a raw std::bad_alloc instead of an LlsError, so the
    /// whole bad_alloc -> error_kind_of -> ResourceExhausted containment
    /// path is exercised — deterministically, like every other kind.
    bool bad_alloc = false;
    std::string site;
};

/// A parsed fault-injection plan. Empty plans (the default) inject nothing
/// and add nothing to the params fingerprint.
class FaultPlan {
public:
    FaultPlan() = default;

    /// Parses the spec grammar; throws LlsError{ParseError} on malformed
    /// input (unknown kind, unknown site, bad syntax).
    static FaultPlan parse(const std::string& text) {
        FaultPlan plan;
        std::size_t pos = 0;
        while (pos <= text.size()) {
            std::size_t comma = text.find(',', pos);
            if (comma == std::string::npos) comma = text.size();
            const std::string item = text.substr(pos, comma - pos);
            pos = comma + 1;
            if (item.empty()) {
                if (text.empty()) break;
                throw LlsError(ErrorKind::ParseError, "empty fault spec in '" + text + "'",
                               "fault-plan");
            }
            plan.specs_.push_back(parse_spec(item));
            if (comma == text.size()) break;
        }
        return plan;
    }

    bool empty() const { return specs_.empty(); }

    /// First spec for `site`, or nullptr.
    const FaultSpec* spec_for(std::string_view site) const {
        for (const auto& s : specs_)
            if (s.site == site) return &s;
        return nullptr;
    }

    /// Fires the planned fault for `site`, if any, as LlsError at `stage`
    /// — or as a raw std::bad_alloc for `oom` specs, exactly what a real
    /// allocation failure at the site would look like. A pure function of
    /// (plan, site), which is what keeps injected runs deterministic.
    void check(std::string_view site, std::string_view stage) const {
        const FaultSpec* spec = spec_for(site);
        if (spec == nullptr) return;
        if (spec->bad_alloc) throw std::bad_alloc();
        throw LlsError(spec->kind, "injected fault at site '" + std::string(site) + "'",
                       std::string(stage));
    }

    /// Deterministic 64-bit fingerprint over the specs, in plan order.
    std::uint64_t fingerprint() const {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        auto mix = [&h](std::string_view s) {
            for (const char c : s) {
                h ^= static_cast<unsigned char>(c);
                h *= 0x100000001b3ULL;
            }
            h ^= 0xff;
            h *= 0x100000001b3ULL;
        };
        for (const auto& s : specs_) {
            // `oom` and `resource` share an ErrorKind but are different
            // injections (bad_alloc vs. LlsError), so they must not collide.
            mix(s.bad_alloc ? "oom" : error_kind_name(s.kind));
            mix(s.site);
            // The fire count specs once carried, always 1 for an engine
            // spec. Mixing it in keeps fingerprints — memo keys, persisted
            // records, checkpoint journals and cone RNG seeds — as they were.
            mix("1");
        }
        return h;
    }

private:
    static FaultSpec parse_spec(const std::string& item) {
        const std::size_t at = item.find('@');
        if (at == std::string::npos || at == 0)
            throw LlsError(ErrorKind::ParseError, "fault spec '" + item + "' is not kind@site",
                           "fault-plan");
        FaultSpec spec;
        const std::string kind = item.substr(0, at);
        if (kind == "parse") spec.kind = ErrorKind::ParseError;
        else if (kind == "resource") spec.kind = ErrorKind::ResourceExhausted;
        else if (kind == "solver") spec.kind = ErrorKind::SolverLimit;
        else if (kind == "verify") spec.kind = ErrorKind::VerificationFailed;
        else if (kind == "invariant") spec.kind = ErrorKind::InvariantViolation;
        else if (kind == "io") spec.kind = ErrorKind::IoError;
        else if (kind == "oom") {
            spec.kind = ErrorKind::ResourceExhausted;
            spec.bad_alloc = true;
        }
        else
            throw LlsError(ErrorKind::ParseError, "unknown fault kind '" + kind + "'",
                           "fault-plan");

        // A site no evaluation reaches would fire nowhere, yet a non-empty
        // plan still re-seeds every cone: reject it instead.
        static constexpr std::string_view kSites[] = {"decompose", "spcf", "sat", "cec", "run"};
        spec.site = item.substr(at + 1);
        if (std::find(std::begin(kSites), std::end(kSites), spec.site) == std::end(kSites))
            throw LlsError(ErrorKind::ParseError,
                           "unknown fault site '" + spec.site +
                               "' (expected decompose|spcf|sat|cec|run)",
                           "fault-plan");
        return spec;
    }

    std::vector<FaultSpec> specs_;
};

}  // namespace lls
