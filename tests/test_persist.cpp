#include "persist/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/memo.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "io/blif.hpp"
#include "io/generators.hpp"
#include "persist/codec.hpp"

namespace lls {
namespace {

namespace fs = std::filesystem;
using persist::ByteReader;
using persist::ByteWriter;
using persist::LoadReport;
using persist::Section;
using persist::StoreMode;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() / ("lls_persist_" + tag);
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
};

std::vector<fs::path> shard_files(const fs::path& dir) {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file() && entry.path().extension() == persist::kShardExtension)
            out.push_back(entry.path());
    return out;
}

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void dump(const fs::path& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A hand-made shard image: `records` (section id, key, value) in order,
/// framed and checksummed as the store writes them.
std::string shard_image(
    const std::vector<std::tuple<std::uint8_t, std::string, std::string>>& records) {
    ByteWriter file;
    file.raw(std::string_view(persist::kMagic, sizeof(persist::kMagic)));
    file.u32(persist::kFormatVersion);
    file.u32(0);
    for (const auto& [section, key, value] : records) {
        ByteWriter payload;
        payload.u8(section);
        payload.blob(key);
        payload.blob(value);
        file.u32(static_cast<std::uint32_t>(payload.str().size()));
        file.raw(payload.str());
        file.u64(persist::fnv1a(payload.str()));
    }
    return file.take();
}

/// The section id of every record of a shard image, in file order.
std::vector<std::uint8_t> section_ids(const std::string& shard) {
    ByteReader reader(shard);
    for (std::size_t i = 0; i < sizeof(persist::kMagic) + 8; ++i) reader.u8();
    std::vector<std::uint8_t> ids;
    while (!reader.at_end()) {
        reader.u32();  // payload length
        ids.push_back(reader.u8());
        reader.blob();
        reader.blob();
        reader.u64();  // checksum
    }
    return ids;
}

// ---------------------------------------------------------------- format --

TEST(PersistFormat, WriterReaderRoundtrip) {
    ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.varint(0);
    w.varint(127);
    w.varint(128);
    w.varint(0xffffffffffffffffULL);
    w.blob("hello");
    w.blob("");

    ByteReader r(w.str());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_EQ(r.varint(), 127u);
    EXPECT_EQ(r.varint(), 128u);
    EXPECT_EQ(r.varint(), 0xffffffffffffffffULL);
    EXPECT_EQ(r.blob(), "hello");
    EXPECT_EQ(r.blob(), "");
    EXPECT_TRUE(r.at_end());
    EXPECT_NO_THROW(r.expect_end());
}

TEST(PersistFormat, ReaderThrowsOnUnderrun) {
    ByteReader r(std::string_view("\x01\x02", 2));
    EXPECT_THROW(r.u32(), LlsError);
}

TEST(PersistFormat, ReaderThrowsOnMalformedVarint) {
    // Ten continuation bytes: a varint can't span more than 64 bits.
    const std::string bad(10, '\xff');
    ByteReader r(bad);
    EXPECT_THROW(r.varint(), LlsError);
}

TEST(PersistFormat, ReaderThrowsOnBlobPastEnd) {
    ByteWriter w;
    w.varint(1000);  // blob claims 1000 bytes...
    w.raw("xy");     // ...but only two follow
    ByteReader r(w.str());
    EXPECT_THROW(r.blob(), LlsError);
}

TEST(PersistFormat, TrailingBytesAreAnError) {
    ByteReader r(std::string_view("abc"));
    (void)r.u8();
    EXPECT_THROW(r.expect_end(), LlsError);
}

// ---------------------------------------------------------------- codecs --

TEST(PersistCodec, PairKeyRoundtrip) {
    const std::string key = persist::encode_pair_key(0x1122334455667788ULL, 42);
    EXPECT_EQ(key.size(), 16u);
    const auto [a, b] = persist::decode_pair_key(key);
    EXPECT_EQ(a, 0x1122334455667788ULL);
    EXPECT_EQ(b, 42u);
    EXPECT_THROW(persist::decode_pair_key("short"), LlsError);
}

TEST(PersistCodec, AigRoundtripPreservesStructure) {
    // cleanup() products are exactly what outcome AIGs look like: PIs
    // first, ANDs freshly created in id order — the replay codec's domain.
    const Aig original = ripple_carry_adder(6).cleanup();
    ByteWriter w;
    persist::encode_aig(w, original);
    ByteReader r(w.str());
    const Aig decoded = persist::decode_aig(r);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(decoded.hash(), original.hash());
    EXPECT_EQ(decoded.num_pis(), original.num_pis());
    EXPECT_EQ(decoded.num_pos(), original.num_pos());
    EXPECT_EQ(decoded.depth(), original.depth());
}

TEST(PersistCodec, AigDecodeRejectsCorruptBytes) {
    const Aig original = ripple_carry_adder(4).cleanup();
    ByteWriter w;
    persist::encode_aig(w, original);
    std::string bytes = w.str();
    bytes[bytes.size() / 2] ^= 0x40;  // flip a bit mid-structure
    ByteReader r(bytes);
    // Either the node replay diverges (hash/fanin check) or the reader
    // underruns — both must surface as the structured store error.
    EXPECT_THROW(persist::decode_aig(r), LlsError);
}

TEST(PersistCodec, ConeEvaluationRoundtripWithoutOutcome) {
    ConeEvaluation eval;
    eval.outcome = nullptr;  // "no improvement found" is a first-class memo
    eval.cost.decompositions = 17;
    eval.cost.sat_conflicts = 3141;
    const ConeEvaluation back =
        persist::decode_cone_evaluation(persist::encode_cone_evaluation(eval));
    EXPECT_EQ(back.outcome, nullptr);
    EXPECT_EQ(back.cost.decompositions, 17u);
    EXPECT_EQ(back.cost.sat_conflicts, 3141u);
    EXPECT_FALSE(back.fault.has_value());
}

TEST(PersistCodec, ConeEvaluationRoundtripWithOutcome) {
    auto outcome = std::make_shared<DecomposeOutcome>();
    outcome->aig = carry_lookahead_adder(4).cleanup();
    outcome->old_depth = 12;
    outcome->new_depth = 7;
    outcome->num_windows = 5;
    outcome->reconstruction = "y = S1*y0 + !S1*y1";

    ConeEvaluation eval;
    eval.outcome = outcome;
    eval.cost.decompositions = 9;
    const ConeEvaluation back =
        persist::decode_cone_evaluation(persist::encode_cone_evaluation(eval));
    ASSERT_NE(back.outcome, nullptr);
    EXPECT_EQ(back.outcome->aig.hash(), outcome->aig.hash());
    EXPECT_EQ(back.outcome->old_depth, 12);
    EXPECT_EQ(back.outcome->new_depth, 7);
    EXPECT_EQ(back.outcome->num_windows, 5);
    EXPECT_EQ(back.outcome->reconstruction, outcome->reconstruction);
    EXPECT_EQ(back.cost.decompositions, 9u);
}

TEST(PersistCodec, FaultedEvaluationMustNotBePersisted) {
    ConeEvaluation eval;
    eval.fault = FaultRecord{};
    EXPECT_THROW(persist::encode_cone_evaluation(eval), ContractViolation);
}

TEST(PersistCodec, CecVerdictRoundtrip) {
    EXPECT_TRUE(persist::decode_cec_verdict(persist::encode_cec_verdict(true)));
    EXPECT_FALSE(persist::decode_cec_verdict(persist::encode_cec_verdict(false)));
    EXPECT_THROW(persist::decode_cec_verdict("\x07"), LlsError);
}

// ----------------------------------------------------------------- store --

/// The load report of a read-only bridge over `dir`, as a fresh process
/// sees it; the memos are left empty.
LoadReport load_report(const TempDir& dir) {
    clear_engine_caches();
    const LoadReport report = WarmStart(dir.str(), StoreMode::Read).report();
    clear_engine_caches();
    return report;
}

/// Writes one good shard holding a single record and returns its path.
fs::path write_one_shard(const TempDir& dir) {
    std::vector<std::string> notes;
    const auto path =
        persist::write_shard(dir.str(), {{{Section::Decompose, "key"}, "value"}}, notes);
    EXPECT_TRUE(path.has_value());
    EXPECT_TRUE(notes.empty());
    EXPECT_EQ(shard_files(dir.path).size(), 1u);
    return *path;
}

TEST(PersistStore, WriteReadRoundtripAcrossAllSections) {
    TempDir dir("roundtrip");
    ConeEvaluation evaluation;
    evaluation.cost.decompositions = 5;
    const persist::Records records = {
        {{Section::Decompose, persist::encode_pair_key(1, 2)},
         persist::encode_cone_evaluation(evaluation)},
        {{Section::Cec, persist::encode_pair_key(3, 4)}, persist::encode_cec_verdict(true)}};
    std::vector<std::string> notes;
    const auto path = persist::write_shard(dir.str(), records, notes);
    ASSERT_TRUE(path.has_value());
    EXPECT_TRUE(notes.empty());
    EXPECT_EQ(persist::list_shards(dir.str()), std::vector<std::string>{*path});
    EXPECT_EQ(persist::read_shard(*path), records);

    clear_engine_caches();
    {
        WarmStart warm(dir.str(), StoreMode::Read);
        const LoadReport& report = warm.report();
        EXPECT_EQ(report.files_scanned, 1u);
        EXPECT_EQ(report.files_loaded, 1u);
        EXPECT_EQ(report.files_rejected, 0u);
        EXPECT_EQ(report.records_loaded, 2u);
        EXPECT_FALSE(report.cold_start);
        EXPECT_EQ(warm.imported_records(), 2u);
        const auto imported = decompose_memo().get({1, 2});
        ASSERT_TRUE(imported.has_value());
        EXPECT_EQ(imported->cost.decompositions, 5u);
        EXPECT_EQ(cec_memo().get({3, 4}), std::optional<bool>(true));
    }
    clear_engine_caches();
}

TEST(PersistStore, EntryIsPublishedOnceAndAFailedWriteIsRetried) {
    TempDir dir("dedupe");
    clear_engine_caches();
    WarmStart warm(dir.str(), StoreMode::ReadWrite);
    const std::uint64_t failures_before =
        Metrics::global().counter("persist.store.failures").value();

    cec_memo().put({1, 2}, true);
    warm.flush_round();
    warm.flush_round();  // nothing new: no second shard
    ASSERT_EQ(shard_files(dir.path).size(), 1u);

    const fs::path first = shard_files(dir.path).at(0);

    // The directory turns into a plain file: the write fails, is noted and
    // counted, and nothing is marked published.
    cec_memo().put({3, 4}, false);
    const fs::path saved = dir.path.string() + ".saved";
    fs::rename(dir.path, saved);
    dump(dir.path, "not a directory");
    warm.flush_round();
    ASSERT_EQ(warm.report().notes.size(), 1u);
    EXPECT_NE(warm.report().notes[0].find("cannot write shard"), std::string::npos);
    EXPECT_EQ(Metrics::global().counter("persist.store.failures").value(), failures_before + 1);

    // Once the directory is back, the next flush publishes the new entry
    // alone, and a later flush nothing.
    fs::remove(dir.path);
    fs::rename(saved, dir.path);
    warm.flush_round();
    warm.flush_round();
    const auto files = shard_files(dir.path);
    ASSERT_EQ(files.size(), 2u);
    const fs::path second = files[0] == first ? files[1] : files[0];
    EXPECT_EQ(persist::read_shard(second.string()),
              (persist::Records{{{Section::Cec, persist::encode_pair_key(3, 4)},
                                 persist::encode_cec_verdict(false)}}));
    clear_engine_caches();
}

TEST(PersistStore, NoShardIsWrittenAfterFinalize) {
    // An engine thread may still reach a round boundary after lls_opt's
    // signal path has finalized the store and is about to _exit.
    TempDir dir("closed");
    clear_engine_caches();
    WarmStart warm(dir.str(), StoreMode::ReadWrite);
    cec_memo().put({1, 2}, true);
    warm.finalize();
    ASSERT_EQ(shard_files(dir.path).size(), 1u);
    cec_memo().put({3, 4}, false);
    warm.flush_round();
    EXPECT_EQ(shard_files(dir.path).size(), 1u);
    clear_engine_caches();
}

TEST(PersistStore, ReadOnlyModeNeverPublishes) {
    TempDir dir("readonly");
    clear_engine_caches();
    WarmStart warm(dir.str(), StoreMode::Read);
    cec_memo().put({1, 2}, true);
    warm.flush_round();
    warm.finalize();
    EXPECT_TRUE(shard_files(dir.path).empty());
    clear_engine_caches();
}

TEST(PersistStore, TruncatedShardIsRejectedWholeNotFatal) {
    TempDir dir("truncate");
    const fs::path shard = write_one_shard(dir);
    const std::string good = slurp(shard);
    dump(shard, good.substr(0, good.size() - 3));

    EXPECT_THROW(persist::read_shard(shard.string()), LlsError);
    const LoadReport report = load_report(dir);
    EXPECT_EQ(report.files_rejected, 1u);
    EXPECT_EQ(report.records_loaded, 0u);
    EXPECT_TRUE(report.cold_start);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("persist"), std::string::npos);
}

TEST(PersistStore, BitFlippedShardIsRejectedWholeNotFatal) {
    TempDir dir("bitflip");
    const fs::path shard = write_one_shard(dir);
    std::string bytes = slurp(shard);
    bytes[bytes.size() - 5] ^= 0x01;  // corrupt the record checksum/payload
    dump(shard, bytes);

    EXPECT_THROW(persist::read_shard(shard.string()), LlsError);
    const LoadReport report = load_report(dir);
    EXPECT_EQ(report.files_rejected, 1u);
    EXPECT_TRUE(report.cold_start);
}

TEST(PersistStore, VersionMismatchIsRejectedAndNamed) {
    TempDir dir("version");
    const fs::path shard = write_one_shard(dir);
    std::string bytes = slurp(shard);
    bytes[8] = 99;  // the u32 LE format-version field follows the magic
    dump(shard, bytes);

    EXPECT_THROW(persist::read_shard(shard.string()), LlsError);
    const LoadReport report = load_report(dir);
    EXPECT_EQ(report.files_rejected, 1u);
    EXPECT_TRUE(report.cold_start);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("format version"), std::string::npos);
}

TEST(PersistStore, BadMagicIsRejected) {
    TempDir dir("magic");
    const fs::path shard = write_one_shard(dir);
    std::string bytes = slurp(shard);
    bytes[0] = 'X';
    dump(shard, bytes);

    EXPECT_THROW(persist::read_shard(shard.string()), LlsError);
    EXPECT_EQ(load_report(dir).files_rejected, 1u);
}

TEST(PersistStore, UnknownSectionRecordIsSkippedNotFatal) {
    TempDir dir("unknown_section");
    // Hand-craft a shard: one record of an id from the future (9), one each
    // of the retired exact-rewrite sections (3, 4) as older stores hold
    // them, and one the loader understands.
    const fs::path shard = dir.path / ("hand" + std::string(persist::kShardExtension));
    dump(shard, shard_image({{9, "future-key", "future-value"},
                             {3, "4:abcd", "npn-value"},
                             {4, "4:abcd:6:c12000", "exact-value"},
                             {static_cast<std::uint8_t>(Section::Decompose), "known", "v"}}));

    EXPECT_EQ(persist::read_shard(shard.string()),  // only the known section
              (persist::Records{{{Section::Decompose, "known"}, "v"}}));
    const LoadReport report = load_report(dir);
    EXPECT_EQ(report.files_rejected, 0u);
    EXPECT_EQ(report.files_loaded, 1u);
    EXPECT_EQ(report.records_loaded, 1u);
    EXPECT_FALSE(report.cold_start);
}

TEST(PersistStore, TempFilesAreIgnoredByTheLoader) {
    TempDir dir("tempfiles");
    const fs::path shard = write_one_shard(dir);
    dump(dir.path / (".tmp-memo-junk" + std::string(persist::kShardExtension)), "garbage");
    dump(dir.path / "README.txt", "not a shard");

    EXPECT_EQ(persist::list_shards(dir.str()), std::vector<std::string>{shard.string()});
    const LoadReport report = load_report(dir);
    EXPECT_EQ(report.files_scanned, 1u);
    EXPECT_EQ(report.records_loaded, 1u);
}

/// Ten single-record CEC shards, as ten sequential processes leave them.
void write_ten_shards(const TempDir& dir) {
    for (std::uint64_t i = 0; i < 10; ++i) {
        std::vector<std::string> notes;
        ASSERT_TRUE(persist::write_shard(dir.str(),
                                         {{{Section::Cec, persist::encode_pair_key(i, i)},
                                           persist::encode_cec_verdict(i % 2 == 0)}},
                                         notes)
                        .has_value());
    }
}

TEST(PersistStore, CompactionMergesManyShardsIntoOne) {
    TempDir dir("compact");
    write_ten_shards(dir);
    // And one written before sections 3 and 4 were retired.
    const fs::path retired = dir.path / ("retired" + std::string(persist::kShardExtension));
    dump(retired, shard_image({{3, "4:abcd", "npn-value"}, {4, "4:abcd:6:c12000", "exact-value"}}));
    EXPECT_EQ(shard_files(dir.path).size(), 11u);

    clear_engine_caches();
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        EXPECT_EQ(warm.report().records_loaded, 10u);
        // The snapshot comes from the files, not from the memos.
        clear_engine_caches();
        warm.finalize();
    }
    const auto files = shard_files(dir.path);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_FALSE(fs::exists(retired));
    // The snapshot drops the retired records.
    for (const std::uint8_t id : section_ids(slurp(files[0])))
        EXPECT_EQ(id, static_cast<std::uint8_t>(Section::Cec));
    EXPECT_EQ(load_report(dir).records_loaded, 10u);
}

TEST(PersistStore, CompactionSkipsAMergedFileAnotherProcessRemoved) {
    TempDir dir("compact_race");
    write_ten_shards(dir);
    clear_engine_caches();
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        EXPECT_EQ(warm.report().records_loaded, 10u);
        fs::remove(shard_files(dir.path).at(0));  // another compaction took it
        warm.finalize();
        EXPECT_TRUE(warm.report().notes.empty());
    }
    clear_engine_caches();
    const auto files = shard_files(dir.path);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(persist::read_shard(files[0].string()).size(), 9u);
}

TEST(PersistStore, ParseStoreModeGrammar) {
    EXPECT_EQ(persist::parse_store_mode("read"), StoreMode::Read);
    EXPECT_EQ(persist::parse_store_mode("rw"), StoreMode::ReadWrite);
    EXPECT_FALSE(persist::parse_store_mode("write").has_value());
    EXPECT_FALSE(persist::parse_store_mode("off").has_value());
    EXPECT_FALSE(persist::parse_store_mode("READ").has_value());
    EXPECT_FALSE(persist::parse_store_mode("").has_value());
}

// ------------------------------------------------------------ warm start --

std::string aiger_bytes(const Aig& aig) {
    std::stringstream aiger;
    write_aiger(aiger, aig);
    return aiger.str();
}

std::string optimize_bytes(const Aig& input, const LookaheadParams& params, WarmStart* warm,
                           int jobs = 2) {
    EngineOptions engine;
    engine.jobs = jobs;
    engine.warm_start = warm;
    return aiger_bytes(optimize_timing_engine(input, params, engine));
}

std::uint64_t warm_hits() { return Metrics::global().counter("persist.warm_hits").value(); }

TEST(WarmStartEndToEnd, WarmRunIsByteIdenticalAndMetered) {
    TempDir dir("e2e");
    const Aig input = ripple_carry_adder(8);
    LookaheadParams params;
    params.max_iterations = 4;

    clear_engine_caches();
    std::string cold;
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        EXPECT_EQ(warm.imported_records(), 0u);
        cold = optimize_bytes(input, params, &warm);
        warm.finalize();
    }
    ASSERT_FALSE(shard_files(dir.path).empty());

    clear_engine_caches();  // simulate a fresh process
    const std::uint64_t hits_before = warm_hits();
    {
        WarmStart warm(dir.str(), StoreMode::Read);
        EXPECT_FALSE(warm.report().cold_start);
        EXPECT_GT(warm.imported_records(), 0u);
        const std::string rewarmed = optimize_bytes(input, params, &warm);
        EXPECT_EQ(rewarmed, cold);
    }
    EXPECT_GT(warm_hits(), hits_before);
}

TEST(WarmStartEndToEnd, BudgetedWarmRunMatchesBudgetedColdRun) {
    // The PR 2 invariant extended to disk: imported entries replay their
    // stored WorkCost, so the budget exhausts at the same point warm or
    // cold and the committed bytes agree.
    TempDir dir("budget");
    const Aig input = ripple_carry_adder(8);
    LookaheadParams params;
    params.max_iterations = 4;
    params.work_budget = 400;

    clear_engine_caches();
    std::string cold;
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        cold = optimize_bytes(input, params, &warm);
        warm.finalize();
    }

    clear_engine_caches();
    {
        WarmStart warm(dir.str(), StoreMode::Read);
        EXPECT_GT(warm.imported_records(), 0u);
        EXPECT_EQ(optimize_bytes(input, params, &warm), cold);
    }
}

TEST(WarmStartEndToEnd, CorruptedStoreFallsBackToColdStart) {
    TempDir dir("corrupt_e2e");
    const Aig input = ripple_carry_adder(8);
    LookaheadParams params;
    params.max_iterations = 4;

    clear_engine_caches();
    std::string cold;
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        cold = optimize_bytes(input, params, &warm);
        warm.finalize();
    }

    // Mangle every shard in the directory.
    for (const auto& shard : shard_files(dir.path)) {
        std::string bytes = slurp(shard);
        bytes = bytes.substr(0, bytes.size() / 2);
        if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x10;
        dump(shard, bytes);
    }

    clear_engine_caches();
    {
        WarmStart warm(dir.str(), StoreMode::Read);
        EXPECT_TRUE(warm.report().cold_start);
        EXPECT_GT(warm.report().files_rejected, 0u);
        EXPECT_EQ(warm.imported_records(), 0u);
        // Cold recompute, deterministic: same bytes, no crash.
        EXPECT_EQ(optimize_bytes(input, params, &warm), cold);
    }
}

TEST(WarmStartEndToEnd, VersionOneStoreStartsCold) {
    // A version-1 store holds cone costs counted by the sweep that encoded
    // its whole input up front; replaying them would make a warm run charge
    // differently from a cold one, so every such shard is rejected by name.
    static_assert(persist::kFormatVersion == 2);
    TempDir dir("version_one");
    const Aig input = ripple_carry_adder(8);
    LookaheadParams params;
    params.max_iterations = 4;

    clear_engine_caches();
    std::string cold;
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        cold = optimize_bytes(input, params, &warm);
        warm.finalize();
    }
    const std::vector<fs::path> shards = shard_files(dir.path);
    ASSERT_FALSE(shards.empty());
    for (const auto& shard : shards) {
        std::string bytes = slurp(shard);
        bytes.replace(8, 4, std::string("\x01\x00\x00\x00", 4));  // u32 LE version after the magic
        dump(shard, bytes);
    }

    clear_engine_caches();
    {
        WarmStart warm(dir.str(), StoreMode::Read);
        EXPECT_TRUE(warm.report().cold_start);
        EXPECT_EQ(warm.report().files_rejected, shards.size());
        EXPECT_EQ(warm.imported_records(), 0u);
        ASSERT_EQ(warm.report().notes.size(), shards.size());
        for (const std::string& note : warm.report().notes)
            EXPECT_NE(note.find("format version 1, expected 2"), std::string::npos) << note;
        EXPECT_EQ(optimize_bytes(input, params, &warm), cold);
    }
}

/// FNV-1a of the contents of every shard in `dir`, sorted: independent of
/// the entropy-unique shard names.
std::uint64_t store_contents_hash(const fs::path& dir) {
    std::vector<std::string> contents;
    for (const auto& shard : shard_files(dir)) contents.push_back(slurp(shard));
    std::sort(contents.begin(), contents.end());
    std::uint64_t h = persist::fnv1a("");
    for (const auto& bytes : contents) h = persist::fnv1a(bytes, h);
    return h;
}

TEST(WarmStartEndToEnd, StoreContentsArePinned) {
    // The shard bytes of a cold store are pinned: one shard per round with
    // new entries, the same records in each at every job count.
    const Aig input = ripple_carry_adder(16);
    LookaheadParams params;
    params.max_iterations = 6;
    for (const int jobs : {1, 4}) {
        TempDir dir("pinned_j" + std::to_string(jobs));
        clear_engine_caches();
        {
            WarmStart warm(dir.str(), StoreMode::ReadWrite);
            (void)optimize_bytes(input, params, &warm, jobs);
            warm.finalize();
        }
        clear_engine_caches();
        EXPECT_EQ(shard_files(dir.path).size(), 7u) << "jobs " << jobs;
        EXPECT_EQ(store_contents_hash(dir.path), 0xe3981fb960598d2dULL) << "jobs " << jobs;
    }
}

/// Every record of every shard in `dir`, sorted, repeats kept.
std::vector<std::pair<persist::Records::key_type, std::string>> store_records(const TempDir& dir) {
    std::vector<std::pair<persist::Records::key_type, std::string>> records;
    for (const auto& shard : shard_files(dir.path)) {
        const persist::Records shard_records = persist::read_shard(shard.string());
        records.insert(records.end(), shard_records.begin(), shard_records.end());
    }
    std::sort(records.begin(), records.end());
    return records;
}

TEST(WarmStartEndToEnd, ConcurrentBatchFlushesPublishEachEntryOnce) {
    // Four batch items flush into one store concurrently, and their adders
    // share low-order cones, so items race to publish the same keys. Each
    // entry must be published once: the store holds exactly the records of
    // a serial batch's store, and a warm batch reproduces the cold outputs.
    std::vector<BatchItem> items;
    for (const int bits : {5, 6, 7, 8})
        items.push_back({"rca" + std::to_string(bits), ripple_carry_adder(bits)});
    LookaheadParams params;
    params.max_iterations = 3;
    struct Run {
        std::vector<std::string> outputs;
        std::size_t imported = 0;
    };
    const auto batch = [&](const TempDir& dir, StoreMode mode, int jobs) {
        clear_engine_caches();
        WarmStart warm(dir.str(), mode);
        EngineOptions engine;
        engine.jobs = jobs;
        engine.warm_start = &warm;
        Run run;
        for (const BatchOutcome& outcome : optimize_timing_batch(items, params, engine))
            run.outputs.push_back(aiger_bytes(outcome.output));
        warm.flush_round();  // not finalize(): a compaction would hide duplicates
        run.imported = warm.imported_records();
        clear_engine_caches();
        return run;
    };

    TempDir serial("batch_j1"), parallel("batch_j4");
    const Run cold = batch(serial, StoreMode::ReadWrite, 1);
    EXPECT_EQ(batch(parallel, StoreMode::ReadWrite, 4).outputs, cold.outputs);
    const auto serial_records = store_records(serial);
    ASSERT_FALSE(serial_records.empty());
    EXPECT_EQ(store_records(parallel), serial_records);

    const Run warm = batch(parallel, StoreMode::Read, 4);
    EXPECT_EQ(warm.imported, serial_records.size());  // no key repeated in either store
    EXPECT_EQ(warm.outputs, cold.outputs);
}

}  // namespace
}  // namespace lls
