#include "io/blif.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cec/cec.hpp"
#include "common/error.hpp"
#include "io/generators.hpp"
#include "sim/simulation.hpp"

namespace lls {
namespace {

TEST(Generators, AdderFamiliesAreEquivalent) {
    for (int bits : {2, 3, 5, 8}) {
        const Aig rca = ripple_carry_adder(bits);
        const Aig cla = carry_lookahead_adder(bits);
        const Aig csa = carry_select_adder(bits, 2);
        EXPECT_TRUE(check_equivalence(rca, cla).equivalent) << bits;
        EXPECT_TRUE(check_equivalence(rca, csa).equivalent) << bits;
    }
}

TEST(Generators, ClaIsShallowerThanRca) {
    for (int bits : {8, 16}) {
        EXPECT_LT(carry_lookahead_adder(bits).depth(), ripple_carry_adder(bits).depth()) << bits;
    }
}

TEST(Generators, AdderInterface) {
    const Aig rca = ripple_carry_adder(4);
    EXPECT_EQ(rca.num_pis(), 9u);   // a0..a3, b0..b3, cin
    EXPECT_EQ(rca.num_pos(), 5u);   // sum0..3, cout
    EXPECT_EQ(rca.pi_name(0), "a0");
    EXPECT_EQ(rca.pi_name(8), "cin");
    EXPECT_EQ(rca.po_name(4), "cout");
}

TEST(Generators, SyntheticControlIsDeterministicPerSeed) {
    BenchmarkProfile p{"t", 16, 6, 10, 10, 99};
    const Aig a = synthetic_control_circuit(p);
    const Aig b = synthetic_control_circuit(p);
    EXPECT_EQ(a.hash(), b.hash());
    p.seed = 100;
    const Aig c = synthetic_control_circuit(p);
    EXPECT_NE(a.hash(), c.hash());
}

TEST(Generators, SyntheticControlMatchesProfile) {
    for (const auto& profile : table2_profiles()) {
        const Aig circuit = synthetic_control_circuit(profile);
        EXPECT_EQ(circuit.num_pis(), static_cast<std::size_t>(profile.num_pis)) << profile.name;
        EXPECT_EQ(circuit.num_pos(), static_cast<std::size_t>(profile.num_pos)) << profile.name;
        EXPECT_GT(circuit.depth(), 4) << profile.name;
        if (profile.name == "C432") break;  // spot-check the first few profiles
    }
}

TEST(Blif, WriteReadRoundTrip) {
    const Aig rca = ripple_carry_adder(4);
    std::stringstream ss;
    write_blif(ss, rca, "rca4");
    const Aig back = read_blif(ss);
    EXPECT_EQ(back.num_pis(), rca.num_pis());
    EXPECT_EQ(back.num_pos(), rca.num_pos());
    EXPECT_TRUE(check_equivalence(rca, back).equivalent);
}

TEST(Blif, ParsesMultiCubeNames) {
    const std::string text = R"(
.model test
.inputs a b c
.outputs y z
# y = a*b + !c, z = !(a + b) via off-set cover
.names a b c y
11- 1
--0 1
.names a b z
1- 0
-1 0
.end
)";
    std::stringstream ss(text);
    const Aig aig = read_blif(ss);
    ASSERT_EQ(aig.num_pis(), 3u);
    ASSERT_EQ(aig.num_pos(), 2u);
    const SimPatterns patterns = SimPatterns::exhaustive(3);
    const auto sigs = simulate(aig, patterns);
    for (std::size_t p = 0; p < 8; ++p) {
        const bool a = patterns.pi_value(0, p), b = patterns.pi_value(1, p),
                   c = patterns.pi_value(2, p);
        const Signature y = literal_signature(aig, aig.po(0), sigs, 8);
        const Signature z = literal_signature(aig, aig.po(1), sigs, 8);
        EXPECT_EQ(((y[0] >> p) & 1) != 0, (a && b) || !c);
        EXPECT_EQ(((z[0] >> p) & 1) != 0, !(a || b));
    }
}

TEST(Blif, ParsesConstantsAndContinuations) {
    const std::string text =
        ".model t\n.inputs a\n.outputs one zero y\n"
        ".names one\n1\n"
        ".names zero\n"
        ".names a \\\none y\n11 1\n.end\n";
    std::stringstream ss(text);
    const Aig aig = read_blif(ss);
    const SimPatterns patterns = SimPatterns::exhaustive(1);
    const auto sigs = simulate(aig, patterns);
    EXPECT_EQ(literal_signature(aig, aig.po(0), sigs, 2)[0] & 3, 3u);  // constant 1
    EXPECT_EQ(literal_signature(aig, aig.po(1), sigs, 2)[0] & 3, 0u);  // constant 0
    EXPECT_EQ(literal_signature(aig, aig.po(2), sigs, 2)[0] & 3, 2u);  // y == a
}

TEST(Blif, RejectsSequentialModels) {
    std::stringstream ss(".model t\n.inputs a\n.outputs y\n.latch a y 0\n.end\n");
    EXPECT_THROW((void)read_blif(ss), std::runtime_error);
}

TEST(Blif, RejectsCycles) {
    std::stringstream ss(
        ".model t\n.inputs a\n.outputs y\n.names y a x\n11 1\n.names x a y\n11 1\n.end\n");
    EXPECT_THROW((void)read_blif(ss), std::runtime_error);
}

/// Runs read_blif on `text` and returns the diagnostic it raised.
LlsError blif_error(const std::string& text) {
    std::stringstream ss(text);
    try {
        (void)read_blif(ss);
    } catch (const LlsError& e) {
        return e;
    }
    ADD_FAILURE() << "expected read_blif to throw for:\n" << text;
    return LlsError(ErrorKind::InvariantViolation, "did not throw");
}

TEST(Blif, DiagnosesDuplicateNamesOutput) {
    const auto e = blif_error(
        ".model t\n.inputs a b\n.outputs y\n"
        ".names a b y\n11 1\n"
        ".names a b y\n00 1\n.end\n");
    EXPECT_EQ(e.kind(), ErrorKind::ParseError);
    EXPECT_NE(std::string(e.what()).find("line 6"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate driver"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
}

TEST(Blif, DiagnosesNamesRedefiningInput) {
    const auto e = blif_error(
        ".model t\n.inputs a b\n.outputs y\n"
        ".names b a\n1 1\n"
        ".names a y\n1 1\n.end\n");
    EXPECT_EQ(e.kind(), ErrorKind::ParseError);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("'a'"), std::string::npos) << e.what();
}

TEST(Blif, DiagnosesUndeclaredSignalReference) {
    const auto e = blif_error(
        ".model t\n.inputs a\n.outputs y\n"
        ".names a ghost y\n11 1\n.end\n");
    EXPECT_EQ(e.kind(), ErrorKind::ParseError);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("undeclared signal 'ghost'"), std::string::npos)
        << e.what();
}

TEST(Blif, DiagnosesUndrivenOutput) {
    const auto e = blif_error(".model t\n.inputs a\n.outputs a ghost\n.end\n");
    EXPECT_EQ(e.kind(), ErrorKind::ParseError);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("'ghost' is never driven"), std::string::npos)
        << e.what();
}

TEST(Blif, DiagnosesMissingEnd) {
    const auto e = blif_error(".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n");
    EXPECT_EQ(e.kind(), ErrorKind::ParseError);
    EXPECT_NE(std::string(e.what()).find("missing .end"), std::string::npos) << e.what();
}

TEST(Blif, CycleDiagnosticNamesTheSignal) {
    const auto e = blif_error(
        ".model t\n.inputs a\n.outputs y\n.names y a x\n11 1\n.names x a y\n11 1\n.end\n");
    EXPECT_EQ(e.kind(), ErrorKind::ParseError);
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos) << e.what();
}

TEST(Blif, FileReaderRaisesIoErrorOnMissingFile) {
    try {
        (void)read_blif_file("/nonexistent/lls_no_such_file.blif");
        FAIL() << "expected read_blif_file to throw";
    } catch (const LlsError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::IoError);
    }
}

TEST(Aiger, WriteReadRoundTrip) {
    for (int bits : {2, 5}) {
        const Aig rca = ripple_carry_adder(bits);
        std::stringstream ss;
        write_aiger(ss, rca);
        const Aig back = read_aiger(ss);
        EXPECT_EQ(back.num_pis(), rca.num_pis());
        EXPECT_EQ(back.num_pos(), rca.num_pos());
        EXPECT_TRUE(check_equivalence(rca, back).equivalent) << bits;
        EXPECT_EQ(back.po_name(back.num_pos() - 1), "cout");  // symbol table parsed
    }
}

/// The kind of the LlsError that reading `text` as AIGER throws.
ErrorKind aiger_error_kind(const std::string& text) {
    std::stringstream in(text);
    try {
        (void)read_aiger(in);
    } catch (const LlsError& e) {
        return e.kind();
    }
    ADD_FAILURE() << "no LlsError for: " << text;
    return ErrorKind::InvariantViolation;
}

TEST(Aiger, ReadRejectsLatchesAndBinaryFormat) {
    EXPECT_EQ(aiger_error_kind("aag 3 1 1 1 1\n2\n4 2 1\n6\n6 4 2\n"), ErrorKind::ParseError);
    // A well-formed binary file is rejected by its header, naming the format.
    std::stringstream binary("aig 1 1 0 1 0\n2\n");
    try {
        (void)read_aiger(binary);
        ADD_FAILURE() << "no throw on a binary header";
    } catch (const LlsError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::ParseError);
        EXPECT_NE(std::string(e.what()).find("binary format"), std::string::npos) << e.what();
    }
}

TEST(Aiger, MalformedInputIsAParseError) {
    for (const char* text : {"", "aag 1 1\n", "aag 1 1 0 1 0\n3\n2\n", "aag 1 1 0 1 0\n2\n9\n",
                             "aag 2 1 0 1 1\n2\n4\n5 2\n"})
        EXPECT_EQ(aiger_error_kind(text), ErrorKind::ParseError) << text;
}

TEST(Aiger, ReadHandlesConstantsAndComplements) {
    // Single AND of complemented inputs, output complemented; plus const outputs.
    std::stringstream ss("aag 3 2 0 3 1\n2\n4\n7\n0\n1\n6 3 5\no0 nand\n");
    const Aig aig = read_aiger(ss);
    ASSERT_EQ(aig.num_pis(), 2u);
    ASSERT_EQ(aig.num_pos(), 3u);
    EXPECT_EQ(aig.po_name(0), "nand");
    const SimPatterns patterns = SimPatterns::exhaustive(2);
    const auto sigs = simulate(aig, patterns);
    const Signature y = literal_signature(aig, aig.po(0), sigs, 4);
    for (std::uint64_t mt = 0; mt < 4; ++mt) {
        const bool va = mt & 1, vb = (mt >> 1) & 1;
        EXPECT_EQ(((y[0] >> mt) & 1) != 0, !(!va && !vb));
    }
    EXPECT_EQ(literal_signature(aig, aig.po(1), sigs, 4)[0] & 0xf, 0x0u);
    EXPECT_EQ(literal_signature(aig, aig.po(2), sigs, 4)[0] & 0xf, 0xfu);
}

TEST(Aiger, HeaderAndCounts) {
    const Aig rca = ripple_carry_adder(2);
    std::stringstream ss;
    write_aiger(ss, rca);
    std::string word;
    ss >> word;
    EXPECT_EQ(word, "aag");
    std::size_t m, i, l, o, a;
    ss >> m >> i >> l >> o >> a;
    EXPECT_EQ(i, rca.num_pis());
    EXPECT_EQ(l, 0u);
    EXPECT_EQ(o, rca.num_pos());
    EXPECT_EQ(a, rca.num_ands());
    EXPECT_EQ(m, rca.num_nodes() - 1);
}

TEST(FileWriters, ThrowOnUnwritableTarget) {
    // A stream error after open must surface as an I/O error, never as a
    // silently truncated file that parses back as a smaller circuit.
    const Aig rca = ripple_carry_adder(8);
    const auto kind_of = [&](const auto& write) {
        try {
            write();
        } catch (const LlsError& e) {
            return e.kind();
        }
        ADD_FAILURE() << "no LlsError from the writer";
        return ErrorKind::InvariantViolation;
    };
    // A directory path, or one in a missing directory, fails at open; the
    // "cannot open" branch.
    for (const std::string path : {"/tmp", "/nonexistent/lls_no_such_dir/out"}) {
        EXPECT_EQ(kind_of([&] { write_blif_file(path, rca, "t"); }), ErrorKind::IoError) << path;
        EXPECT_EQ(kind_of([&] { write_aiger_file(path, rca); }), ErrorKind::IoError) << path;
    }
    // /dev/full opens fine but every flush fails with ENOSPC; the
    // truncated-output branch. Only present on Linux — skip elsewhere.
    std::ifstream dev_full("/dev/full");
    if (!dev_full.good()) GTEST_SKIP() << "/dev/full not available";
    EXPECT_EQ(kind_of([&] { write_blif_file("/dev/full", rca, "t"); }), ErrorKind::IoError);
    EXPECT_EQ(kind_of([&] { write_aiger_file("/dev/full", rca); }), ErrorKind::IoError);
}

TEST(FileWriters, SuccessfulWriteRoundTrips) {
    const Aig rca = ripple_carry_adder(6);
    const std::string path = ::testing::TempDir() + "lls_test_io_rt.blif";
    write_blif_file(path, rca, "rt");
    const Aig back = read_blif_file(path);
    EXPECT_TRUE(check_equivalence(rca, back).equivalent);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace lls
