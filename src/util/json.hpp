// Machine-readable run output: a streaming JSON writer and a strict
// parser for reading the blobs back.
//
// The writer emits canonical JSON (UTF-8 pass-through, escaped control
// characters, no trailing commas) so that `fgsort --stats-json` and the
// benches can dump one blob per run that any downstream tool can parse.
//
// The observability tooling (tools/fgtrace, the JSON round-trip tests)
// must be able to *consume* those blobs and reject malformed output
// loudly — a trace that chrome://tracing would refuse should fail CI,
// not ship.  Hence a strict parser: the full RFC 8259 grammar, nothing
// more (no trailing commas, no comments, no NaN/Infinity, no unescaped
// control characters), duplicate object keys rejected, and the entire
// input must be one value plus whitespace.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fg::util {

/// Streaming JSON writer with automatic comma placement.  Usage:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("records"); w.value(std::uint64_t{1048576});
///   w.key("stages"); w.begin_array(); ... w.end_array();
///   w.end_object();
///   std::string blob = w.str();
///
/// Nesting mistakes (a value with no pending key inside an object, or
/// unbalanced begin/end) throw std::logic_error rather than emitting
/// malformed output.
class JsonWriter {
 public:
  JsonWriter();

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Name the next value inside an object.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(bool v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void null();

  /// Shorthand for key(k); value(v).
  template <typename T>
  void kv(std::string_view k, T&& v) {
    key(k);
    value(std::forward<T>(v));
  }

  /// True once every begin_* has been matched by its end_*.
  bool complete() const noexcept;

  /// The rendered document; valid only when complete().
  const std::string& str() const;

  static std::string escape(std::string_view s);

 private:
  enum class Frame : std::uint8_t { kObject, kArray };
  void before_value();

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;  // parallel to stack_
  bool key_pending_{false};
  bool root_written_{false};
};

/// Thrown by Json::parse on any grammar violation; the message names the
/// byte offset and the rule that failed.
struct JsonParseError : std::runtime_error {
  explicit JsonParseError(const std::string& what) : std::runtime_error(what) {}
};

/// An immutable parsed JSON value.
class Json {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  /// Object members in source order (duplicate keys are a parse error).
  using Members = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null

  /// Parse `text` as exactly one JSON document; throws JsonParseError.
  static Json parse(std::string_view text);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool boolean() const { return expect(Type::kBool), bool_; }
  double number() const { return expect(Type::kNumber), num_; }
  const std::string& string() const { return expect(Type::kString), str_; }
  const std::vector<Json>& array() const {
    return expect(Type::kArray), arr_;
  }
  const Members& object() const { return expect(Type::kObject), obj_; }

  /// Number as a non-negative integer; throws if the value is negative,
  /// fractional, or too large for exact double representation.
  std::uint64_t u64() const;

  /// Object member lookup; nullptr if absent (or not an object).
  const Json* find(std::string_view key) const noexcept;

  /// Object member / array element access; throws std::out_of_range.
  const Json& at(std::string_view key) const;
  const Json& at(std::size_t index) const;

  std::size_t size() const noexcept {
    return type_ == Type::kArray ? arr_.size()
         : type_ == Type::kObject ? obj_.size() : 0;
  }

 private:
  class Parser;
  void expect(Type t) const;

  Type type_{Type::kNull};
  bool bool_{false};
  double num_{0.0};
  std::string str_;
  std::vector<Json> arr_;
  Members obj_;
};

}  // namespace fg::util
