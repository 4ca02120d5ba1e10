#include "sunchase/serve/json.h"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "sunchase/common/error.h"

namespace sunchase::serve {

namespace {

[[noreturn]] void bad(const std::string& what, std::size_t offset) {
  throw InvalidArgument("json: " + what + " at offset " +
                        std::to_string(offset));
}

/// Appends `code` (a Unicode scalar value) as UTF-8.
void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

}  // namespace

class JsonParser {
 public:
  JsonParser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonValue run() {
    skip_whitespace();
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) bad("trailing characters after document", pos_);
    return value;
  }

 private:
  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) bad("unexpected end of input", pos_);
    return text_[pos_];
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (peek() != c)
      bad(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > max_depth_) bad("nesting too deep", pos_);
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) bad("malformed literal", pos_);
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) bad("malformed literal", pos_);
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) bad("malformed literal", pos_);
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue value;
    value.type_ = JsonValue::Type::Object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      value.object_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonValue value;
    value.type_ = JsonValue::Type::Array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_whitespace();
      value.array_.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) bad("truncated \\u escape", pos_);
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else bad("malformed \\u escape", pos_);
    }
    pos_ += 4;
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) bad("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        bad("unescaped control character in string", pos_ - 1);
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) bad("truncated escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (!consume_literal("\\u")) bad("lone high surrogate", pos_);
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF)
              bad("invalid low surrogate", pos_ - 4);
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            bad("lone low surrogate", pos_ - 4);
          }
          append_utf8(out, code);
          break;
        }
        default: bad("unknown escape", pos_ - 1);
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_start = pos_;
    if (digits() == 0) bad("malformed number", start);
    // No leading zeros ("007"), per RFC 8259.
    if (text_[int_start] == '0' && pos_ - int_start > 1)
      bad("leading zero in number", start);
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) bad("malformed number fraction", start);
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) bad("malformed number exponent", start);
    }
    const std::string token(text_.substr(start, pos_ - start));
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text, std::size_t max_depth) {
  return JsonParser(text, max_depth).run();
}

bool JsonValue::as_bool() const {
  if (type_ != Type::Bool) throw InvalidArgument("json: value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::Number)
    throw InvalidArgument("json: value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::String)
    throw InvalidArgument("json: value is not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::Array)
    throw InvalidArgument("json: value is not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::Object)
    throw InvalidArgument("json: value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [name, value] : object_)
    if (name == key) return &value;
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr ? member->as_number() : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr ? member->as_string() : std::string(fallback);
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.type_ = Type::Number;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::String;
  v.string_ = std::move(s);
  return v;
}

}  // namespace sunchase::serve
