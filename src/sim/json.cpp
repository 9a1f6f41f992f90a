#include "sim/json.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

namespace gnna::sim::json {

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::logic_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::logic_error("json: not a number");
  return num_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::logic_error("json: not a string");
  return str_;
}

std::size_t Value::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  return 0;
}

const Value& Value::at(std::size_t i) const {
  if (type_ != Type::kArray || i >= arr_.size()) {
    throw std::out_of_range("json: array index " + std::to_string(i));
  }
  return arr_[i];
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("json: " + why, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type_ = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      Value key = parse_string();
      skip_ws();
      expect(':');
      v.obj_.emplace_back(std::move(key.str_), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type_ = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value parse_bool() {
    Value v;
    v.type_ = Value::Type::kBool;
    if (consume_literal("true")) {
      v.bool_ = true;
    } else if (consume_literal("false")) {
      v.bool_ = false;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Value parse_string() {
    expect('"');
    Value v;
    v.type_ = Value::Type::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.str_ += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.str_ += '"'; break;
        case '\\': v.str_ += '\\'; break;
        case '/': v.str_ += '/'; break;
        case 'b': v.str_ += '\b'; break;
        case 'f': v.str_ += '\f'; break;
        case 'n': v.str_ += '\n'; break;
        case 'r': v.str_ += '\r'; break;
        case 't': v.str_ += '\t'; break;
        case 'u': v.str_ += parse_unicode_escape(); break;
        default: fail("bad escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4U;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    // BMP-only UTF-8 encoding; surrogate halves come out as-is (gnnasim
    // never emits them).
    std::string out;
    if (cp < 0x80U) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800U) {
      out += static_cast<char>(0xC0U | (cp >> 6U));
      out += static_cast<char>(0x80U | (cp & 0x3FU));
    } else {
      out += static_cast<char>(0xE0U | (cp >> 12U));
      out += static_cast<char>(0x80U | ((cp >> 6U) & 0x3FU));
      out += static_cast<char>(0x80U | (cp & 0x3FU));
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    Value v;
    v.type_ = Value::Type::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, v.num_);
    if (ec != std::errc() || end != last) {
      pos_ = start;
      fail("bad number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return Value::parse(ss.str());
}

}  // namespace gnna::sim::json
