#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lls {

/// Strict integer option parsing: the whole token must be a base-10 number
/// within [min_value, max_value]. Anything else — empty string, trailing
/// garbage ("12x"), non-numbers ("xyz", which std::atoi silently turns
/// into 0), or out-of-range values — prints an error naming `flag` to
/// stderr and returns false without touching `*out`.
inline bool parse_int_option(const char* flag, const char* text, long min_value, long max_value,
                             int* out) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || value < min_value || value > max_value) {
        std::fprintf(stderr, "error: %s expects an integer in [%ld, %ld], got '%s'\n", flag,
                     min_value, max_value, text);
        return false;
    }
    *out = static_cast<int>(value);
    return true;
}

/// Job-count option: `"auto"` and `0` both mean "use every hardware
/// thread" and write 0 — the caller resolves 0 via
/// `ThreadPool::hardware_jobs()` (this header stays thread-free). A
/// positive count passes through; everything else is rejected like
/// `parse_int_option`.
inline bool parse_jobs_option(const char* flag, const char* text, long max_value, int* out) {
    if (std::strcmp(text, "auto") == 0) {
        *out = 0;
        return true;
    }
    return parse_int_option(flag, text, 0, max_value, out);
}

/// Strict duration option: a positive decimal number immediately followed
/// by a unit — `ms`, `s`, or `m` (`500ms`, `30s`, `1.5s`, `5m`). Writes
/// the value in seconds. The number part may contain only digits and at
/// most one '.', so signs, exponents, `inf`/`nan`, whitespace, and bare
/// numbers without a unit are all rejected with an error naming `flag`,
/// leaving `*out_seconds` untouched.
inline bool parse_duration_option(const char* flag, const char* text, double* out_seconds) {
    const std::size_t len = std::strlen(text);
    double scale = 0.0;
    std::size_t unit_len = 0;
    if (len > 2 && text[len - 2] == 'm' && text[len - 1] == 's') {
        scale = 1e-3;
        unit_len = 2;
    } else if (len > 1 && text[len - 1] == 's') {
        scale = 1.0;
        unit_len = 1;
    } else if (len > 1 && text[len - 1] == 'm') {
        scale = 60.0;
        unit_len = 1;
    } else {
        std::fprintf(stderr, "error: %s expects a duration like 500ms, 30s, or 5m, got '%s'\n",
                     flag, text);
        return false;
    }
    const std::size_t digits = len - unit_len;
    bool ok = digits > 0;
    bool saw_digit = false;
    bool saw_dot = false;
    for (std::size_t i = 0; i < digits && ok; ++i) {
        if (text[i] >= '0' && text[i] <= '9') saw_digit = true;
        else if (text[i] == '.' && !saw_dot) saw_dot = true;
        else ok = false;
    }
    double value = 0.0;
    if (ok && saw_digit) {
        // The digit run was validated above, so strtod stops exactly at the
        // unit suffix — no allocation needed to isolate the number.
        char* end = nullptr;
        errno = 0;
        value = std::strtod(text, &end) * scale;
        ok = errno == 0 && end == text + digits && value > 0.0;
    } else {
        ok = false;
    }
    if (!ok) {
        std::fprintf(stderr,
                     "error: %s expects a positive duration like 500ms, 30s, or 5m, got '%s'\n",
                     flag, text);
        return false;
    }
    *out_seconds = value;
    return true;
}

/// Strict unsigned-64-bit variant (seeds, work budgets). Rejects negative
/// numbers, non-numbers, trailing garbage, and values above `max_value`.
inline bool parse_u64_option(const char* flag, const char* text, std::uint64_t max_value,
                             std::uint64_t* out) {
    char* end = nullptr;
    errno = 0;
    if (text[0] == '-') {
        std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n", flag, text);
        return false;
    }
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || value > max_value) {
        std::fprintf(stderr, "error: %s expects an integer in [0, %llu], got '%s'\n", flag,
                     static_cast<unsigned long long>(max_value), text);
        return false;
    }
    *out = static_cast<std::uint64_t>(value);
    return true;
}

}  // namespace lls
