// The two pieces every hand-written JSON document in the codebase is
// built from: string escaping per RFC 8259 §7 and the 12-digit number
// rendering the metrics, query-log and ledger exports share.
#pragma once

#include <string>
#include <string_view>

namespace sunchase::common {

/// `text` with JSON string escaping applied (quotes not included):
/// backslash and quote, the short escapes \b \f \n \r \t, and every
/// other control character below 0x20 as \u00XX. Bytes from 0x20 up
/// pass through, so UTF-8 stays as it is.
[[nodiscard]] std::string json_escape(std::string_view text);

/// `text` escaped and wrapped in double quotes.
[[nodiscard]] std::string json_quote(std::string_view text);

/// `v` with 12 significant digits and no trailing zeros ("%.12g").
[[nodiscard]] std::string format_double(double v);

}  // namespace sunchase::common
