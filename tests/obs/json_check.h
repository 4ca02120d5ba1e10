// A minimal recursive-descent JSON syntax checker for the obs tests:
// the exported metrics/trace documents must parse as JSON without
// pulling a parser dependency into the repo. Validates syntax only
// (objects, arrays, strings, numbers, literals), not schemas.
#pragma once

#include <cctype>
#include <cstddef>
#include <string>

namespace sunchase::test {

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  /// True when the whole input is exactly one valid JSON value.
  [[nodiscard]] bool valid() {
    pos_ = 0;
    const bool ok = value();
    skip_ws();
    return ok && pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) == 0) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  /// RFC 8259 §7: bytes below 0x20 must be escaped inside a string.
  bool string() {
    if (!consume('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // skip the escaped character
      if (pos_ < text_.size() &&
          static_cast<unsigned char>(text_[pos_]) < 0x20)
        return false;
      ++pos_;
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
        ++pos_;
      bool exp_digits = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) return false;
    }
    return digits && pos_ > start;
  }

  bool object() {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      skip_ws();
      if (!string()) return false;
      if (!consume(':')) return false;
      if (!value()) return false;
    } while (consume(','));
    return consume('}');
  }

  bool array() {
    if (!consume('[')) return false;
    if (consume(']')) return true;
    do {
      if (!value()) return false;
    } while (consume(','));
    return consume(']');
  }

  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

[[nodiscard]] inline bool json_parses(const std::string& text) {
  return JsonChecker(text).valid();
}

}  // namespace sunchase::test
