// Minimal JSON reader, the grammar under sim::read_stats_json. Hand-rolled
// on purpose: the repo has no JSON dependency and does not take one for a
// ~200-line recursive-descent parser. Supports the full JSON grammar
// except `\uXXXX` surrogate pairs (escapes decode to UTF-8 for the BMP,
// which covers everything gnnasim emits).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gnna::sim::json {

/// Thrown by parse() with a byte offset and a short reason.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at byte " + std::to_string(offset)),
        offset_(offset) {}
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// A parsed JSON document node. Objects preserve insertion order; key
/// lookup is linear (profile objects have a handful of keys).
class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Value() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }

  /// Typed accessors; throw std::logic_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array/object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const;

  /// Array element; throws std::out_of_range.
  [[nodiscard]] const Value& at(std::size_t i) const;

  /// Object member, or nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;

  [[nodiscard]] const std::vector<Value>& items() const { return arr_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const {
    return obj_;
  }

  /// Parse a complete document; trailing non-whitespace is an error.
  static Value parse(std::string_view text);

 private:
  friend class Parser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

/// Read a whole file and parse it. Throws ParseError on malformed input
/// and std::runtime_error when the file cannot be read.
Value parse_file(const std::string& path);

}  // namespace gnna::sim::json
