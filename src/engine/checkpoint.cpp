#include "engine/checkpoint.hpp"

#include <filesystem>
#include <iterator>
#include <sstream>

#include "common/error.hpp"

namespace lls {

namespace {

constexpr const char* kMagic = "# lls-checkpoint v1";

std::uint64_t parse_hex(const std::string& field, const std::string& path, int line) {
    std::size_t consumed = 0;
    std::uint64_t value = 0;
    try {
        value = std::stoull(field, &consumed, 16);
    } catch (const std::exception&) {
        consumed = 0;
    }
    if (consumed != field.size() || field.empty())
        throw LlsError(ErrorKind::ParseError,
                       path + ":" + std::to_string(line) + ": bad checkpoint field '" + field +
                           "'",
                       "checkpoint");
    return value;
}

}  // namespace

BatchCheckpoint::BatchCheckpoint(const std::string& path) : path_(path) {
    bool saw_magic = false;
    if (std::ifstream file(path, std::ios::binary); file) {
        std::string text{std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
        file.close();
        // A crash or a failed append can leave the last line unterminated.
        // Drop it, so its item re-runs, and cut the file back to the last
        // newline, so the next entry starts on a line of its own.
        const std::size_t last_newline = text.rfind('\n');
        const std::size_t complete = last_newline == std::string::npos ? 0 : last_newline + 1;
        if (complete < text.size()) {
            text.resize(complete);
            std::error_code ec;
            std::filesystem::resize_file(path, complete, ec);
            if (ec)
                throw LlsError(ErrorKind::IoError,
                               "cannot drop the torn last line of checkpoint " + path + ": " +
                                   ec.message(),
                               "checkpoint");
        }
        std::istringstream in(text);
        std::string line;
        int number = 0;
        while (std::getline(in, line)) {
            ++number;
            if (!line.empty() && line.back() == '\r') line.pop_back();
            if (line.empty()) continue;
            if (number == 1) {
                if (line != kMagic)
                    throw LlsError(ErrorKind::ParseError,
                                   path + " is not a checkpoint journal (bad magic line)",
                                   "checkpoint");
                saw_magic = true;
                continue;
            }
            std::vector<std::string> fields;
            std::istringstream ss(line);
            std::string field;
            while (std::getline(ss, field, '\t')) fields.push_back(field);
            if (fields.size() != 7)
                throw LlsError(ErrorKind::ParseError,
                               path + ":" + std::to_string(number) +
                                   ": expected 7 tab-separated checkpoint fields, got " +
                                   std::to_string(fields.size()),
                               "checkpoint");
            CheckpointEntry entry;
            entry.name = fields[0];
            entry.input_hash = parse_hex(fields[1], path, number);
            entry.params_fingerprint = parse_hex(fields[2], path, number);
            entry.output_hash = parse_hex(fields[3], path, number);
            entry.final_depth = static_cast<int>(parse_hex(fields[4], path, number));
            entry.final_ands = static_cast<std::size_t>(parse_hex(fields[5], path, number));
            entry.failed = parse_hex(fields[6], path, number) != 0;
            entries_.push_back(std::move(entry));
        }
    }

    out_.open(path, std::ios::app);
    if (!out_) throw LlsError(ErrorKind::IoError, "cannot open checkpoint " + path, "checkpoint");
    if (!saw_magic) {
        // (Re-)stamp the magic line; appending to an empty or absent file.
        out_ << kMagic << "\n";
        out_.flush();
        if (!out_)
            throw LlsError(ErrorKind::IoError, "error writing checkpoint " + path, "checkpoint");
    }
}

const CheckpointEntry* BatchCheckpoint::find(const std::string& name, std::uint64_t input_hash,
                                             std::uint64_t params_fingerprint) const {
    for (const auto& entry : entries_)
        if (entry.name == name && entry.input_hash == input_hash &&
            entry.params_fingerprint == params_fingerprint)
            return &entry;
    return nullptr;
}

void BatchCheckpoint::append(const CheckpointEntry& entry) {
    if (entry.name.find('\t') != std::string::npos ||
        entry.name.find('\n') != std::string::npos)
        throw LlsError(ErrorKind::InvariantViolation,
                       "checkpoint entry name contains a separator: " + entry.name, "checkpoint");
    std::ostringstream line;
    line << entry.name << '\t' << std::hex << entry.input_hash << '\t'
         << entry.params_fingerprint << '\t' << entry.output_hash << '\t' << entry.final_depth
         << '\t' << entry.final_ands << '\t' << (entry.failed ? 1 : 0);
    out_ << line.str() << "\n";
    // Flush-and-throw: the journal line must be durable before the batch
    // counts this item as done — a crash right after this point loses
    // nothing, a write failure surfaces now instead of at exit.
    out_.flush();
    if (!out_)
        throw LlsError(ErrorKind::IoError, "error writing checkpoint " + path_, "checkpoint");
    entries_.push_back(entry);
}

}  // namespace lls
