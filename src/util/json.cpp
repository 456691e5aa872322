#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace fg::util {
namespace {

// Recursion guard: a pipeline trace is at most a handful of levels deep,
// so anything past this is hostile or corrupt input, not data.
constexpr int kMaxDepth = 256;

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

class Json::Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError("json: " + why + " at byte " + std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  void expect_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      fail("invalid literal (expected '" + std::string(word) + "')");
    pos_ += word.size();
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    Json v;
    switch (peek()) {
      case '{': parse_object(v, depth); break;
      case '[': parse_array(v, depth); break;
      case '"':
        v.type_ = Type::kString;
        v.str_ = parse_string();
        break;
      case 't': expect_literal("true"); v.type_ = Type::kBool; v.bool_ = true;
        break;
      case 'f': expect_literal("false"); v.type_ = Type::kBool;
        v.bool_ = false;
        break;
      case 'n': expect_literal("null"); break;
      default: parse_number(v); break;
    }
    return v;
  }

  void parse_object(Json& v, int depth) {
    ++pos_;  // '{'
    v.type_ = Type::kObject;
    skip_ws();
    if (!eof() && peek() == '}') { ++pos_; return; }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      for (const auto& [existing, unused] : v.obj_)
        if (existing == key) fail("duplicate object key '" + key + "'");
      skip_ws();
      if (next() != ':') fail("expected ':' after object key");
      v.obj_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  void parse_array(Json& v, int depth) {
    ++pos_;  // '['
    v.type_ = Type::kArray;
    skip_ws();
    if (!eof() && peek() == ']') { ++pos_; return; }
    for (;;) {
      v.arr_.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') { out.push_back(c); continue; }
      const char e = next();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (next() != '\\' || next() != 'u') fail("unpaired surrogate");
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return cp;
  }

  void parse_number(Json& v) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      fail("invalid number");
    if (peek() == '0') ++pos_;  // no leading zeros
    else while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
      ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        fail("invalid number (bare decimal point)");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        fail("invalid number (empty exponent)");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    if (ec != std::errc{} || ptr != tok.data() + tok.size())
      fail("number out of range");
    v.type_ = Type::kNumber;
    v.num_ = value;
  }

  std::string_view text_;
  std::size_t pos_{0};
};

Json Json::parse(std::string_view text) { return Parser(text).run(); }

void Json::expect(Type t) const {
  if (type_ != t)
    throw JsonParseError("json: value has wrong type for accessor");
}

std::uint64_t Json::u64() const {
  expect(Type::kNumber);
  if (num_ < 0 || num_ != std::floor(num_) || num_ > 9007199254740992.0)
    throw JsonParseError("json: number is not a non-negative integer");
  return static_cast<std::uint64_t>(num_);
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr)
    throw std::out_of_range("json: missing key '" + std::string(key) + "'");
  return *v;
}

const Json& Json::at(std::size_t index) const {
  expect(Type::kArray);
  if (index >= arr_.size()) throw std::out_of_range("json: index out of range");
  return arr_[index];
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

JsonWriter::JsonWriter() { out_.reserve(256); }

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (root_written_) {
      throw std::logic_error("util::JsonWriter: multiple root values");
    }
    root_written_ = true;
    return;
  }
  if (stack_.back() == Frame::kObject) {
    if (!key_pending_) {
      throw std::logic_error("util::JsonWriter: value inside an object "
                             "requires a key");
    }
    key_pending_ = false;
  } else {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
}

void JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Frame::kObject) {
    throw std::logic_error("util::JsonWriter: key() outside an object");
  }
  if (key_pending_) {
    throw std::logic_error("util::JsonWriter: key() twice without a value");
  }
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  key_pending_ = true;
}

void JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  has_items_.push_back(false);
}

void JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_) {
    throw std::logic_error("util::JsonWriter: unbalanced end_object()");
  }
  stack_.pop_back();
  has_items_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  has_items_.push_back(false);
}

void JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    throw std::logic_error("util::JsonWriter: unbalanced end_array()");
  }
  stack_.pop_back();
  has_items_.pop_back();
  out_ += ']';
}

void JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
}

void JsonWriter::value(double v) {
  before_value();
  char buf[32];
  // %.9g round-trips the magnitudes we report (seconds, ratios) while
  // keeping blobs compact; NaN/inf are not valid JSON, clamp to null.
  if (v != v) {
    out_ += "null";
    return;
  }
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ += buf;
}

void JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += buf;
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out_ += buf;
}

void JsonWriter::null() {
  before_value();
  out_ += "null";
}

bool JsonWriter::complete() const noexcept {
  return stack_.empty() && root_written_;
}

const std::string& JsonWriter::str() const {
  if (!complete()) {
    throw std::logic_error("util::JsonWriter: document incomplete");
  }
  return out_;
}

}  // namespace fg::util
