#include "json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace lls_bench {

Json& Json::set(const std::string& key, Json value) {
    type_ = Type::Object;
    for (auto& [k, v] : object_)
        if (k == key) return v = std::move(value);
    object_.emplace_back(key, std::move(value));
    return object_.back().second;
}

const Json* Json::find(std::string_view key) const {
    if (type_ != Type::Object) return nullptr;
    for (const auto& [k, v] : object_)
        if (k == key) return &v;
    return nullptr;
}

const Json& Json::operator[](std::string_view key) const {
    static const Json null_value;
    const Json* j = find(key);
    return j ? *j : null_value;
}

std::string Json::dump() const {
    switch (type_) {
        case Type::Null: return "null";
        case Type::Bool: return bool_ ? "true" : "false";
        case Type::Number: {
            if (!std::isfinite(number_)) return "null";
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", number_);
            return buf;
        }
        case Type::String: {
            std::string out = "\"";
            out += lls::json_escape(string_);
            return out += '"';
        }
        case Type::Array: {
            std::string out = "[";
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i) out += ',';
                out += array_[i].dump();
            }
            return out + "]";
        }
        case Type::Object: {
            std::string out = "{";
            for (std::size_t i = 0; i < object_.size(); ++i) {
                if (i) out += ',';
                out += '"';
                out += lls::json_escape(object_[i].first);
                out += "\":";
                out += object_[i].second.dump();
            }
            return out + "}";
        }
    }
    return "null";
}

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json document() {
        Json value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                                 what);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
                text_[pos_] == '\t'))
            ++pos_;
    }

    char peek() {
        skip_ws();
        if (pos_ >= text_.size()) fail("unexpected end");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    Json parse_value() {
        const char c = peek();
        if (c == '{') return parse_object();
        if (c == '[') return parse_array();
        if (c == '"') return Json(parse_string());
        if (consume_literal("true")) return Json(true);
        if (consume_literal("false")) return Json(false);
        if (consume_literal("null")) return Json();
        return parse_number();
    }

    Json parse_object() {
        expect('{');
        Json obj = Json::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            if (peek() != '"') fail("expected object key");
            std::string key = parse_string();
            expect(':');
            obj.set(key, parse_value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json parse_array() {
        expect('[');
        Json arr = Json::array();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parse_value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    // The benchmark only ever writes \u00XX escapes.
                    if (pos_ + 4 > text_.size()) fail("short \\u escape");
                    const std::string hex(text_.substr(pos_, 4));
                    pos_ += 4;
                    const long code = std::strtol(hex.c_str(), nullptr, 16);
                    if (code > 0x7f) fail("non-ASCII \\u escape");
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("bad escape");
            }
        }
    }

    Json parse_number() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
                text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (start == pos_) fail("unexpected character");
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) fail("bad number '" + token + "'");
        return Json(value);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(std::string_view text) { return Parser(text).document(); }

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace lls_bench
