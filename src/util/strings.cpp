#include "util/strings.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace cmdare::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string format_double(double value, int precision) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", precision, value);
  return std::string(buf.data());
}

std::string format_shortest(double value) {
  char buffer[64];  // a double needs at most 24 characters
  return std::string(buffer,
                     std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

std::string format_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  int unit = 0;
  double v = bytes;
  while (std::abs(v) >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  return format_double(v, unit == 0 ? 0 : 1) + " " + kUnits[unit];
}

std::string format_duration(double seconds) {
  if (seconds < 0) return "-" + format_duration(-seconds);
  if (seconds < 60.0) return format_double(seconds, 1) + " s";
  const auto total = static_cast<long long>(seconds + 0.5);
  const long long h = total / 3600;
  const long long m = (total % 3600) / 60;
  const long long s = total % 60;
  std::array<char, 64> buf{};
  if (h > 0) {
    std::snprintf(buf.data(), buf.size(), "%lldh %02lldm %02llds", h, m, s);
  } else {
    std::snprintf(buf.data(), buf.size(), "%lldm %02llds", m, s);
  }
  return std::string(buf.data());
}

}  // namespace cmdare::util
