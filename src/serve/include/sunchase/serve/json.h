// Minimal JSON document model + recursive-descent parser for request
// bodies. The rest of the codebase only *writes* JSON (metrics, query
// log, ledgers — all hand-serialized); the route server is the first
// consumer of untrusted JSON input, so this parser is strict: full
// RFC 8259 grammar, \uXXXX escapes (incl. surrogate pairs), a depth
// limit against stack-exhaustion bodies, and InvalidArgument with a
// byte offset on any violation. Objects preserve member order.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sunchase/common/json_text.h"

namespace sunchase::serve {

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  /// A null value.
  JsonValue() = default;

  /// Parses a complete JSON document (one value, optional surrounding
  /// whitespace, nothing after it). Throws InvalidArgument with the
  /// offending byte offset on malformed input or nesting deeper than
  /// `max_depth`.
  [[nodiscard]] static JsonValue parse(std::string_view text,
                                       std::size_t max_depth = 64);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::Array;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }

  /// Typed accessors; each throws InvalidArgument when the value holds
  /// a different type (the caller's 400, not a crash).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Member lookup on an object: nullptr when absent or when this value
  /// is not an object (so optional fields read as one call).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Optional-field conveniences: the member's value when present
  /// (throwing on a type mismatch), otherwise the fallback.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;

  /// Factory helpers (used by tests; the server hand-writes output).
  [[nodiscard]] static JsonValue make_bool(bool b);
  [[nodiscard]] static JsonValue make_number(double n);
  [[nodiscard]] static JsonValue make_string(std::string s);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;

  friend class JsonParser;
};

/// The building blocks the server's hand-written response bodies use
/// (see common/json_text.h).
using common::json_escape;
using common::json_quote;

}  // namespace sunchase::serve
