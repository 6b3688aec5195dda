// Small string helpers shared across the project.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace cmdare::util {

/// Splits `s` on `delim`; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Joins `parts` with `delim` between them.
std::string join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with / ends with the given prefix/suffix.
bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Formats a double with `precision` digits after the decimal point.
std::string format_double(double value, int precision);

/// Shortest text that std::from_chars (and so parse_number) reads back as
/// exactly `value`; non-finite values come out as "inf", "-inf" or "nan".
std::string format_shortest(double value);

/// Parses the whole of `text` as a number in std::from_chars syntax: no
/// surrounding whitespace, no leading '+', no '-' for unsigned types, and
/// nothing left over. Writes *out only on success.
template <typename T>
bool parse_number(std::string_view text, T* out) {
  const char* last = text.data() + text.size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(text.data(), last, parsed);
  if (ec != std::errc() || ptr != last) return false;
  *out = parsed;
  return true;
}

/// Formats a byte count as a human-readable string ("12.3 MB").
std::string format_bytes(double bytes);

/// Formats a duration in seconds as "1h 02m 03s" / "12.3 s" as appropriate.
std::string format_duration(double seconds);

}  // namespace cmdare::util
