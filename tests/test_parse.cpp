#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace lls {
namespace {

TEST(ParseInt, AcceptsWholeTokenInRange) {
    int out = -1;
    EXPECT_TRUE(parse_int_option("--n", "0", 0, 100, &out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(parse_int_option("--n", "42", 0, 100, &out));
    EXPECT_EQ(out, 42);
    EXPECT_TRUE(parse_int_option("--n", "100", 0, 100, &out));
    EXPECT_EQ(out, 100);
    EXPECT_TRUE(parse_int_option("--n", "-7", -10, 10, &out));
    EXPECT_EQ(out, -7);
}

TEST(ParseInt, RejectsGarbageWithoutTouchingOutput) {
    // std::atoi would have turned each of these into a silently wrong value.
    int out = 1234;
    EXPECT_FALSE(parse_int_option("--n", "xyz", 0, 100, &out));
    EXPECT_FALSE(parse_int_option("--n", "", 0, 100, &out));
    EXPECT_FALSE(parse_int_option("--n", "12x", 0, 100, &out));
    EXPECT_FALSE(parse_int_option("--n", "1 2", 0, 100, &out));
    EXPECT_FALSE(parse_int_option("--n", "0x10", 0, 100, &out));
    EXPECT_EQ(out, 1234);
}

TEST(ParseInt, RejectsOutOfRange) {
    int out = 1234;
    EXPECT_FALSE(parse_int_option("--n", "101", 0, 100, &out));
    EXPECT_FALSE(parse_int_option("--n", "-1", 0, 100, &out));
    EXPECT_FALSE(parse_int_option("--n", "99999999999999999999", 0, 100, &out));
    EXPECT_EQ(out, 1234);
}

TEST(ParseU64, AcceptsFullRange) {
    std::uint64_t out = 0;
    EXPECT_TRUE(parse_u64_option("--b", "0", UINT64_MAX, &out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(parse_u64_option("--b", "18446744073709551615", UINT64_MAX, &out));
    EXPECT_EQ(out, UINT64_MAX);
}

TEST(ParseU64, RejectsNegativeGarbageAndOverflow) {
    std::uint64_t out = 77;
    // strtoull would silently wrap "-1" to UINT64_MAX; the wrapper must not.
    EXPECT_FALSE(parse_u64_option("--b", "-1", UINT64_MAX, &out));
    EXPECT_FALSE(parse_u64_option("--b", "xyz", UINT64_MAX, &out));
    EXPECT_FALSE(parse_u64_option("--b", "", UINT64_MAX, &out));
    EXPECT_FALSE(parse_u64_option("--b", "5five", UINT64_MAX, &out));
    EXPECT_FALSE(parse_u64_option("--b", "18446744073709551616", UINT64_MAX, &out));
    EXPECT_FALSE(parse_u64_option("--b", "11", 10, &out));
    EXPECT_EQ(out, 77u);
}

TEST(ParseJobs, AutoAndZeroMeanWholeMachine) {
    // "auto" and 0 both resolve to the sentinel 0; the caller maps it to
    // ThreadPool::hardware_jobs(). Before this existed, the only way to
    // use the whole machine was to know the core count.
    int out = -1;
    EXPECT_TRUE(parse_jobs_option("--jobs", "auto", 1024, &out));
    EXPECT_EQ(out, 0);
    out = -1;
    EXPECT_TRUE(parse_jobs_option("--jobs", "0", 1024, &out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(parse_jobs_option("--jobs", "8", 1024, &out));
    EXPECT_EQ(out, 8);
}

TEST(ParseJobs, RejectsGarbageAndOutOfRange) {
    int out = 7;
    EXPECT_FALSE(parse_jobs_option("--jobs", "automatic", 1024, &out));
    EXPECT_FALSE(parse_jobs_option("--jobs", "Auto", 1024, &out));
    EXPECT_FALSE(parse_jobs_option("--jobs", "-1", 1024, &out));
    EXPECT_FALSE(parse_jobs_option("--jobs", "4x", 1024, &out));
    EXPECT_FALSE(parse_jobs_option("--jobs", "2048", 1024, &out));
    EXPECT_EQ(out, 7);
}

TEST(ParseDuration, AcceptsEveryUnit) {
    double out = -1.0;
    EXPECT_TRUE(parse_duration_option("--d", "500ms", &out));
    EXPECT_DOUBLE_EQ(out, 0.5);
    EXPECT_TRUE(parse_duration_option("--d", "30s", &out));
    EXPECT_DOUBLE_EQ(out, 30.0);
    EXPECT_TRUE(parse_duration_option("--d", "5m", &out));
    EXPECT_DOUBLE_EQ(out, 300.0);
    EXPECT_TRUE(parse_duration_option("--d", "1.5s", &out));
    EXPECT_DOUBLE_EQ(out, 1.5);
    EXPECT_TRUE(parse_duration_option("--d", "0.25m", &out));
    EXPECT_DOUBLE_EQ(out, 15.0);
}

TEST(ParseDuration, RejectsGarbageWithoutTouchingOutput) {
    // A bare number is ambiguous (seconds? ms?) — the unit is mandatory, so
    // "30" is an error, not a silent guess.
    double out = 99.0;
    EXPECT_FALSE(parse_duration_option("--d", "30", &out));
    EXPECT_FALSE(parse_duration_option("--d", "", &out));
    EXPECT_FALSE(parse_duration_option("--d", "ms", &out));
    EXPECT_FALSE(parse_duration_option("--d", "5h", &out));
    EXPECT_FALSE(parse_duration_option("--d", "5 s", &out));
    EXPECT_FALSE(parse_duration_option("--d", "-5s", &out));
    EXPECT_FALSE(parse_duration_option("--d", "1.2.3s", &out));
    EXPECT_FALSE(parse_duration_option("--d", "s5s", &out));
    EXPECT_DOUBLE_EQ(out, 99.0);
}

TEST(ParseDuration, RejectsZeroAndNonPositive) {
    // A duration arms the wall-clock rail; zero means "off" and is
    // expressed by not passing the flag, never by "0s".
    double out = 99.0;
    EXPECT_FALSE(parse_duration_option("--d", "0s", &out));
    EXPECT_FALSE(parse_duration_option("--d", "0.0ms", &out));
    EXPECT_DOUBLE_EQ(out, 99.0);
}

}  // namespace
}  // namespace lls
