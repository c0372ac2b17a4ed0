#include "persist/store.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "engine/cache.hpp"
#include "engine/metrics.hpp"

namespace lls::persist {

namespace fs = std::filesystem;

namespace {

/// Unique shard names keep concurrent writers from ever publishing to the
/// same path: process entropy mixed with a fresh nonce per call, so two
/// shards of one process never share a name either.
std::uint64_t shard_entropy() {
    static const std::uint64_t base = [] {
        std::random_device rd;
        std::uint64_t h = (std::uint64_t{rd()} << 32) ^ rd();
        h ^= static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
        return h ? h : 0x9e3779b97f4a7c15ULL;
    }();
    static std::atomic<std::uint64_t> instance{0};
    return hash_mix(base, instance.fetch_add(1, std::memory_order_relaxed));
}

/// Ids 3 and 4 (the exact-rewrite NPN and structure memos) are retired and
/// must never be reused: like any id not listed here, they are skipped.
bool known_section(std::uint8_t id) {
    return id == static_cast<std::uint8_t>(Section::Decompose) ||
           id == static_cast<std::uint8_t>(Section::Cec);
}

}  // namespace

std::optional<StoreMode> parse_store_mode(std::string_view text) {
    if (text == "read") return StoreMode::Read;
    if (text == "rw") return StoreMode::ReadWrite;
    return std::nullopt;
}

std::vector<std::string> list_shards(const std::string& dir) {
    std::error_code ec;
    std::vector<std::string> paths;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
        const fs::path& p = it->path();
        if (it->is_regular_file(ec) && p.extension() == kShardExtension &&
            p.filename().string().rfind(".tmp-", 0) != 0)
            paths.push_back(p.string());
    }
    // Deterministic load order: duplicate keys resolve identically no
    // matter how the directory iterates.
    std::sort(paths.begin(), paths.end());
    return paths;
}

Records read_shard(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw LlsError(ErrorKind::IoError, "cannot open shard '" + path + "'", "persist");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    if (!in.good() && !in.eof())
        throw LlsError(ErrorKind::IoError, "read failure on shard '" + path + "'", "persist");

    ByteReader reader(bytes);
    if (reader.remaining() < sizeof(kMagic) + 8 ||
        std::string_view(bytes).substr(0, sizeof(kMagic)) !=
            std::string_view(kMagic, sizeof(kMagic)))
        throw LlsError(ErrorKind::IoError, "shard '" + path + "' has no LLSMEMO1 header",
                       "persist");
    for (std::size_t i = 0; i < sizeof(kMagic); ++i) reader.u8();
    const std::uint32_t version = reader.u32();
    if (version != kFormatVersion)
        throw LlsError(ErrorKind::IoError,
                       "shard '" + path + "' has format version " + std::to_string(version) +
                           ", expected " + std::to_string(kFormatVersion),
                       "persist");
    reader.u32();  // reserved flags

    Records records;
    while (!reader.at_end()) {
        const std::uint32_t len = reader.u32();
        if (len > reader.remaining())
            throw LlsError(ErrorKind::IoError, "truncated record in shard '" + path + "'",
                           "persist");
        // Re-slice the payload so a record decoder can never read past its
        // own frame into the next record.
        const std::size_t payload_at = bytes.size() - reader.remaining();
        const std::string_view payload = std::string_view(bytes).substr(payload_at, len);
        for (std::uint32_t i = 0; i < len; ++i) reader.u8();
        const std::uint64_t checksum = reader.u64();
        if (checksum != fnv1a(payload))
            throw LlsError(ErrorKind::IoError, "checksum mismatch in shard '" + path + "'",
                           "persist");
        ByteReader record(payload);
        const std::uint8_t section = record.u8();
        std::string key(record.blob());
        std::string value(record.blob());
        record.expect_end();
        if (!known_section(section)) continue;
        records.insert_or_assign({static_cast<Section>(section), std::move(key)}, std::move(value));
    }
    return records;
}

std::optional<std::string> write_shard(const std::string& dir, const Records& records,
                                       std::vector<std::string>& notes) {
    Metrics& metrics = Metrics::global();
    ByteWriter shard;
    shard.raw(std::string_view(kMagic, sizeof(kMagic)));
    shard.u32(kFormatVersion);
    shard.u32(0);  // reserved
    for (const auto& [key, value] : records) {
        ByteWriter payload;
        payload.u8(static_cast<std::uint8_t>(key.first));
        payload.blob(key.second);
        payload.blob(value);
        shard.u32(static_cast<std::uint32_t>(payload.str().size()));
        shard.raw(payload.str());
        shard.u64(fnv1a(payload.str()));
    }
    const std::string& bytes = shard.str();

    char name[48];
    std::snprintf(name, sizeof(name), "memo-%016llx%s",
                  static_cast<unsigned long long>(shard_entropy()), kShardExtension);
    const std::string tmp_path = dir + "/.tmp-" + name;
    const std::string final_path = dir + "/" + name;
    const auto fail = [&](const std::string& what) -> std::optional<std::string> {
        std::error_code ec;
        fs::remove(tmp_path, ec);
        notes.push_back(LlsError(ErrorKind::IoError, what, "persist").what());
        metrics.counter("persist.store.failures").add();
        return std::nullopt;
    };
    {
        std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out.good()) return fail("cannot write shard '" + tmp_path + "'");
    }
    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    if (ec) return fail("cannot publish shard '" + final_path + "'");
    metrics.counter("persist.store.shards").add();
    metrics.counter("persist.store.records").add(records.size());
    return final_path;
}

}  // namespace lls::persist
