#pragma once

// Minimal JSON document model for the benchmark's own files: child rep
// results, trace files, result/baseline files and BENCHMARK.json. Objects
// keep insertion order so written files read in the order they were built.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lls_bench {

class Json {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), number_(d) {}
    Json(int i) : Json(static_cast<double>(i)) {}
    Json(std::uint64_t u) : Json(static_cast<double>(u)) {}
    Json(const char* s) : type_(Type::String), string_(s) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

    static Json array() {
        Json j;
        j.type_ = Type::Array;
        return j;
    }
    static Json object() {
        Json j;
        j.type_ = Type::Object;
        return j;
    }

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::Null; }
    bool as_bool() const { return bool_; }
    double as_number() const { return number_; }
    const std::string& as_string() const { return string_; }
    const std::vector<Json>& items() const { return array_; }
    const std::vector<std::pair<std::string, Json>>& members() const { return object_; }

    /// Appends to an array.
    Json& push(Json value) {
        array_.push_back(std::move(value));
        return array_.back();
    }
    /// Sets (or replaces) an object member.
    Json& set(const std::string& key, Json value);
    /// Member lookup; nullptr when absent or when this is not an object.
    const Json* find(std::string_view key) const;
    /// Member lookup that returns a shared null value when absent.
    const Json& operator[](std::string_view key) const;

    double number_or(std::string_view key, double fallback) const {
        const Json* j = find(key);
        return j && j->type_ == Type::Number ? j->number_ : fallback;
    }
    std::string string_or(std::string_view key, std::string fallback) const {
        const Json* j = find(key);
        return j && j->type_ == Type::String ? j->string_ : fallback;
    }

    /// Compact single-line serialization; numbers keep 17 significant
    /// digits so measured values round-trip exactly.
    std::string dump() const;

private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/// Parses one JSON document; throws std::runtime_error on malformed input.
Json parse_json(std::string_view text);

/// Reads a whole file; throws std::runtime_error when it cannot be opened.
std::string read_file(const std::string& path);

/// Writes `text` to `path`; throws std::runtime_error on any I/O failure.
void write_file(const std::string& path, const std::string& text);

}  // namespace lls_bench
