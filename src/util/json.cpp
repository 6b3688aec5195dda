#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "util/strings.hpp"

namespace cmdare::util::json {
namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int max_depth = 64;
  std::string error;

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void fail(std::string message) {
    if (error.empty()) {
      error = "offset " + std::to_string(pos) + ": " + std::move(message);
    }
  }

  void skip_ws() {
    while (!at_end()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool consume(char c) {
    if (!at_end() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text.substr(pos, literal.size()) == literal) {
      pos += literal.size();
      return true;
    }
    return false;
  }

  std::optional<Value> parse_value(int depth) {
    skip_ws();
    if (at_end()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    if (depth > max_depth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"': {
        std::string s;
        if (!parse_string(&s)) return std::nullopt;
        return make_string(std::move(s));
      }
      case 't':
        if (consume_literal("true")) return make_bool(true);
        fail("invalid literal");
        return std::nullopt;
      case 'f':
        if (consume_literal("false")) return make_bool(false);
        fail("invalid literal");
        return std::nullopt;
      case 'n':
        if (consume_literal("null")) return make_null();
        fail("invalid literal");
        return std::nullopt;
      default:
        return parse_number();
    }
  }

  std::optional<Value> parse_object(int depth) {
    consume('{');
    Object members;
    skip_ws();
    if (consume('}')) return make_object(std::move(members));
    while (true) {
      skip_ws();
      std::string key;
      if (at_end() || peek() != '"' || !parse_string(&key)) {
        fail("expected object key");
        return std::nullopt;
      }
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      auto value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      members[std::move(key)] = std::move(*value);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return make_object(std::move(members));
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array(int depth) {
    consume('[');
    Array items;
    skip_ws();
    if (consume(']')) return make_array(std::move(items));
    while (true) {
      auto value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      items.push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return make_array(std::move(items));
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  bool parse_string(std::string* out) {
    consume('"');
    while (true) {
      if (at_end()) {
        fail("unterminated string");
        return false;
      }
      const unsigned char c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos;
        continue;
      }
      ++pos;  // backslash
      if (at_end()) {
        fail("unterminated escape");
        return false;
      }
      const char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          std::uint32_t code = 0;
          if (!parse_hex4(&code)) return false;
          // Surrogate pair: combine, else keep the lone value (replaced
          // below if unpaired).
          if (code >= 0xD800 && code <= 0xDBFF &&
              text.substr(pos, 2) == "\\u") {
            const std::size_t saved = pos;
            pos += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(&low)) return false;
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              pos = saved;  // not a low surrogate; leave for next loop
            }
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape character");
          return false;
      }
    }
  }

  bool parse_hex4(std::uint32_t* out) {
    if (pos + 4 > text.size()) {
      fail("truncated \\u escape");
      return false;
    }
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
        return false;
      }
    }
    *out = value;
    return true;
  }

  static void append_utf8(std::string* out, std::uint32_t code) {
    // Unpaired surrogates become U+FFFD so output stays valid UTF-8.
    if (code >= 0xD800 && code <= 0xDFFF) code = 0xFFFD;
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos;
    if (consume('-')) {
      // sign consumed
    }
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos = start;
      fail("invalid value");
      return std::nullopt;
    }
    if (peek() == '0') {
      ++pos;
    } else {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    if (!at_end() && peek() == '.') {
      ++pos;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected after decimal point");
        return std::nullopt;
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected in exponent");
        return std::nullopt;
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    double value = 0.0;
    const char* first = text.data() + start;
    const char* last = text.data() + pos;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) {
      fail("number out of range");
      return std::nullopt;
    }
    return make_number(value);
  }
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject || !object) return nullptr;
  const auto it = object->find(key);
  return it == object->end() ? nullptr : &it->second;
}

Value make_null() { return Value{}; }

Value make_bool(bool b) {
  Value v;
  v.kind = Value::Kind::kBool;
  v.boolean = b;
  return v;
}

Value make_number(double value) {
  Value v;
  v.kind = Value::Kind::kNumber;
  v.number = value;
  return v;
}

Value make_string(std::string s) {
  Value v;
  v.kind = Value::Kind::kString;
  v.string = std::move(s);
  return v;
}

Value make_array(Array items) {
  Value v;
  v.kind = Value::Kind::kArray;
  v.array = std::make_shared<Array>(std::move(items));
  return v;
}

Value make_object(Object members) {
  Value v;
  v.kind = Value::Kind::kObject;
  v.object = std::make_shared<Object>(std::move(members));
  return v;
}

ParseResult parse(std::string_view text, int max_depth) {
  Parser parser;
  parser.text = text;
  parser.max_depth = max_depth;
  ParseResult result;
  auto value = parser.parse_value(0);
  if (!value) {
    result.error = parser.error.empty() ? "parse error" : parser.error;
    return result;
  }
  parser.skip_ws();
  if (!parser.at_end()) {
    parser.fail("trailing characters after value");
    result.error = parser.error;
    return result;
  }
  result.value = std::move(*value);
  return result;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += raw;
        }
    }
  }
  return out;
}

std::string format_number(double value) {
  return std::isfinite(value) ? format_shortest(value) : "0";
}

std::string serialize(const Value& value) {
  switch (value.kind) {
    case Value::Kind::kNull:
      return "null";
    case Value::Kind::kBool:
      return value.boolean ? "true" : "false";
    case Value::Kind::kNumber:
      return format_number(value.number);
    case Value::Kind::kString:
      return "\"" + escape(value.string) + "\"";
    case Value::Kind::kArray: {
      std::string out = "[";
      bool first = true;
      if (value.array) {
        for (const Value& item : *value.array) {
          if (!first) out += ",";
          first = false;
          out += serialize(item);
        }
      }
      out += "]";
      return out;
    }
    case Value::Kind::kObject: {
      std::string out = "{";
      bool first = true;
      if (value.object) {
        for (const auto& [key, member] : *value.object) {
          if (!first) out += ",";
          first = false;
          out += "\"" + escape(key) + "\":" + serialize(member);
        }
      }
      out += "}";
      return out;
    }
  }
  return "null";
}

}  // namespace cmdare::util::json
