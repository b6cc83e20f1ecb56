// Shared JSON writing primitives for every machine-readable output (bench
// JSON-lines records, the report writers, the wire envelope), so quoting,
// control-char handling and number formatting cannot drift between
// writers.  Writers append into one std::string they reserved up front:
// no stream state, no locale, no per-field temporaries.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace b2h::support {

/// Append `text` escaped for use inside a JSON string literal: quotes and
/// backslashes are escaped, common control characters get their short
/// escapes, and any other control character becomes \u00XX.
inline void JsonEscapeTo(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto u = static_cast<unsigned char>(text[i]);
    if (u >= 0x20 && u != '"' && u != '\\') continue;
    out.append(text, plain, i - plain);
    plain = i + 1;
    switch (u) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        out += "\\u00";
        out += kHex[u >> 4];
        out += kHex[u & 0xf];
    }
  }
  out.append(text, plain, text.size() - plain);
}

inline std::string JsonEscape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  JsonEscapeTo(escaped, text);
  return escaped;
}

/// Append `text` as a quoted, escaped JSON string.
inline void AppendJsonString(std::string& out, std::string_view text) {
  out += '"';
  JsonEscapeTo(out, text);
  out += '"';
}

/// Append `value` exactly as printf("%.9g") prints it — the report format
/// since schema 1 — including "nan", "-nan", "inf", "-inf" and "-0".
/// std::to_chars with general format and precision 9 is byte-equal to
/// "%.9g" and skips printf's format parsing and locale lookup (the
/// equivalence is pinned by a test over special values and random bit
/// patterns).
inline void AppendJsonNumber(std::string& out, double value) {
  char buffer[32];  // "%.9g" needs at most 16: -1.23456789e-308
  const auto written = std::to_chars(buffer, buffer + sizeof buffer, value,
                                     std::chars_format::general, 9);
  out.append(buffer, written.ptr);
}

/// Append an integer in decimal.
template <std::integral Int>
void AppendJsonNumber(std::string& out, Int value) {
  char buffer[24];
  const auto written = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, written.ptr);
}

}  // namespace b2h::support
