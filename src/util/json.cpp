#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace antdense::util {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t pos) {
  throw std::invalid_argument("json: " + what + " at offset " +
                              std::to_string(pos));
}

/// Containers may nest at most this deep.  The parser recurses once per
/// level, so a pathological document like ten thousand '[' would
/// otherwise turn into a stack overflow instead of an exception; no
/// artifact this repo emits comes anywhere near 64 levels.
constexpr int kMaxNestingDepth = 64;

/// Appends v under the number contract in json.hpp.  Both branches
/// write through std::to_chars, which formats without locale or
/// allocation; the general/17 form is defined as printf's %.17g, so the
/// bytes are the ones snprintf would print.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("json: cannot serialize non-finite number");
  }
  char buf[32];  // "-d.dddddddddddddddde-308" is 24 bytes
  char* end = buf;
  // Integral values inside the double-exact range print as integers so
  // counts stay counts; everything else gets enough digits to round-trip.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  const double magnitude = std::fabs(v);
  if (magnitude < kExact && magnitude == std::trunc(magnitude)) {
    if (std::signbit(v)) {
      *end++ = '-';  // also for -0.0, which %.0f prints as "-0"
    }
    end = std::to_chars(end, buf + sizeof(buf),
                        static_cast<std::uint64_t>(magnitude))
              .ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        17)
              .ptr;
  }
  out.append(buf, end);
}

/// Recursive-descent parser over the raw text.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document", pos_);
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input (truncated document?)", pos_);
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'", pos_);
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return JsonValue();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    const NestingGuard guard(this);
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    const NestingGuard guard(this);
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string", pos_);
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string", pos_ - 1);
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape", pos_);
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          out += parse_unicode_escape();
          break;
        default:
          fail("unknown escape", pos_ - 1);
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape", pos_);
    }
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape", pos_ - 1);
      }
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      fail("surrogate-pair escapes are not supported", pos_ - 6);
    }
    // Encode the BMP code point as UTF-8.
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token(text_.data() + start, pos_ - start);
    if (!matches_number_grammar(token)) {
      fail("malformed number '" + std::string(token) + "'", start);
    }
    double v = 0.0;
    const char* const last = token.data() + token.size();
    const auto [end, ec] = std::from_chars(token.data(), last, v);
    if (ec == std::errc::result_out_of_range) {
      // from_chars leaves v untouched when the value over- or underflows;
      // strtod saturates (+-HUGE_VAL, a signed zero), which is what the
      // parser has always returned for 1e400 or 1e-400.
      v = std::strtod(std::string(token).c_str(), nullptr);
    } else if (ec != std::errc() || end != last) {
      fail("malformed number '" + std::string(token) + "'", start);
    }
    return JsonValue(v);
  }

  /// RFC 8259 number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  /// — from_chars alone would also accept "01", "-.5", or "1.".
  static bool matches_number_grammar(std::string_view token) {
    std::size_t i = 0;
    const auto digit = [&](std::size_t j) {
      return j < token.size() &&
             std::isdigit(static_cast<unsigned char>(token[j])) != 0;
    };
    if (i < token.size() && token[i] == '-') {
      ++i;
    }
    if (!digit(i)) {
      return false;
    }
    if (token[i] == '0') {
      ++i;  // a leading zero must stand alone
    } else {
      while (digit(i)) {
        ++i;
      }
    }
    if (i < token.size() && token[i] == '.') {
      ++i;
      if (!digit(i)) {
        return false;
      }
      while (digit(i)) {
        ++i;
      }
    }
    if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
      ++i;
      if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
        ++i;
      }
      if (!digit(i)) {
        return false;
      }
      while (digit(i)) {
        ++i;
      }
    }
    return i == token.size();
  }

  /// Counts open containers; parse_object/parse_array hold one for
  /// their whole body so the limit bounds the recursion depth itself.
  struct NestingGuard {
    explicit NestingGuard(Parser* parser) : parser(parser) {
      if (++parser->depth_ > kMaxNestingDepth) {
        fail("nesting depth exceeds the limit of " +
                 std::to_string(kMaxNestingDepth),
             parser->pos_ - 1);
      }
    }
    ~NestingGuard() { --parser->depth_; }
    Parser* parser;
  };

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) {
    throw std::invalid_argument("json: value is not a bool");
  }
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) {
    throw std::invalid_argument("json: value is not a number");
  }
  return num_;
}

std::uint64_t JsonValue::as_uint() const {
  const double v = as_double();
  // Doubles represent integers exactly only below 2^53; anything larger
  // (or non-finite) would silently round or invoke UB in the cast.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (!std::isfinite(v) || v < 0.0 || v != std::floor(v) || v >= kExact) {
    throw std::invalid_argument(
        "json: value is not an exactly-representable non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) {
    throw std::invalid_argument("json: value is not a string");
  }
  return str_;
}

const JsonValue::Array& JsonValue::items() const {
  if (kind_ != Kind::kArray) {
    throw std::invalid_argument("json: value is not an array");
  }
  return array_;
}

const JsonValue::Object& JsonValue::entries() const {
  if (kind_ != Kind::kObject) {
    throw std::invalid_argument("json: value is not an object");
  }
  return object_;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::kNull) {
    kind_ = Kind::kArray;
  }
  if (kind_ != Kind::kArray) {
    throw std::invalid_argument("json: push_back on a non-array");
  }
  array_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ == Kind::kNull) {
    kind_ = Kind::kObject;
  }
  if (kind_ != Kind::kObject) {
    throw std::invalid_argument("json: set on a non-object");
  }
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(v));
  return *this;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

bool JsonValue::erase(const std::string& key) {
  if (kind_ != Kind::kObject) {
    return false;
  }
  for (auto it = object_.begin(); it != object_.end(); ++it) {
    if (it->first == key) {
      object_.erase(it);
      return true;
    }
  }
  return false;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      append_number(out, num_);
      return;
    case Kind::kString:
      out += '"';
      out += json_escape(str_);
      out += '"';
      return;
    case Kind::kArray:
    case Kind::kObject:
      break;
  }
  const bool is_array = kind_ == Kind::kArray;
  const std::size_t size = is_array ? array_.size() : object_.size();
  if (size == 0) {
    out += is_array ? "[]" : "{}";
    return;
  }
  // Pretty-printing puts each member on its own line, one indent deeper
  // than the brackets; compact output has no whitespace at all.
  const bool pretty = indent > 0;
  const std::size_t close_pad =
      pretty ? static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth)
             : 0;
  const std::size_t pad =
      pretty ? close_pad + static_cast<std::size_t>(indent) : 0;
  out += is_array ? '[' : '{';
  for (std::size_t i = 0; i < size; ++i) {
    if (pretty) {
      out += '\n';
    }
    out.append(pad, ' ');
    if (is_array) {
      array_[i].dump_to(out, indent, depth + 1);
    } else {
      out += '"';
      out += json_escape(object_[i].first);
      out += pretty ? "\": " : "\":";
      object_[i].second.dump_to(out, indent, depth + 1);
    }
    if (i + 1 < size) {
      out += ',';
    }
  }
  if (pretty) {
    out += '\n';
  }
  out.append(close_pad, ' ');
  out += is_array ? ']' : '}';
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).run();
}

}  // namespace antdense::util
