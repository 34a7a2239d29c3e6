#include "src/common/json.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace prism {

// ---- writer ----

JsonWriter& JsonWriter::Field(std::string_view key, std::string_view v) {
  Prefix(key);
  Quote(v);
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return Raw(key, buf);
}

JsonWriter& JsonWriter::Raw(std::string_view key, std::string_view json) {
  Prefix(key);
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::BreakLines() {
  scopes_.back().lines = true;
  return *this;
}

bool JsonWriter::WriteFile(const std::string& path) const {
  std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "JsonWriter: cannot open %s\n", path.c_str());
    return false;
  }
  f << out_ << '\n';
  return f.good();
}

void JsonWriter::Prefix(std::string_view key) {
  if (!scopes_.empty()) {
    Scope& s = scopes_.back();
    if (!s.fresh) out_ += ',';
    s.fresh = false;
    if (s.lines) out_ += '\n';
  }
  if (!key.empty()) {
    Quote(key);
    out_ += ':';
  }
}

JsonWriter& JsonWriter::Open(std::string_view key, char c) {
  Prefix(key);
  out_ += c;
  scopes_.emplace_back();
  return *this;
}

JsonWriter& JsonWriter::Close(char c) {
  if (scopes_.back().lines) out_ += '\n';
  scopes_.pop_back();
  out_ += c;
  return *this;
}

void JsonWriter::Quote(std::string_view s) {
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

// ---- reader ----

JsonError::JsonError(const std::string& what, size_t offset)
    : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
      offset_(offset) {}

namespace {

// Recursive descent over the full JSON grammar.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json Parse() {
    Json v = Value();
    SkipWs();
    if (pos_ != text_.size()) Fail("trailing bytes after top-level value");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) { throw JsonError(why, pos_); }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      pos_++;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    pos_++;
  }

  Json Value() {
    SkipWs();
    const size_t begin = pos_;
    Json v;
    switch (Peek()) {
      case '{':
        v = Object();
        break;
      case '[':
        v = Array();
        break;
      case '"':
        v.type = Json::Type::kString;
        v.str = String();
        break;
      case 't':
      case 'f':
        v.type = Json::Type::kBool;
        v.boolean = Peek() == 't';
        Keyword(v.boolean ? "true" : "false");
        break;
      case 'n':
        Keyword("null");
        break;
      default:
        v.type = Json::Type::kNumber;
        v.number = Number();
    }
    v.begin = begin;
    v.end = pos_;
    return v;
  }

  void Keyword(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      Fail("unrecognized literal");
    }
    pos_ += word.size();
  }

  double Number() {
    // strtod alone would also take "inf", "nan" and a leading '+'.
    const char c = Peek();
    if (c != '-' && (c < '0' || c > '9')) Fail("expected a JSON value");
    // The text is not NUL-terminated; copy the number's bytes out first.
    size_t n = 0;
    while (pos_ + n < text_.size() &&
           std::string_view("+-.0123456789eE").find(text_[pos_ + n]) !=
               std::string_view::npos) {
      n++;
    }
    const std::string digits(text_.substr(pos_, n));
    char* end = nullptr;
    const double d = std::strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) Fail("malformed number");
    pos_ += n;
    return d;
  }

  static int HexDigit(char h) {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
  }

  std::string String() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; i++) {
            const int h = HexDigit(text_[pos_]);
            if (h < 0) Fail("bad hex digit in \\u escape");
            code = code << 4 | static_cast<unsigned>(h);
            pos_++;
          }
          // The writer only emits ASCII; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          pos_--;
          Fail("unknown escape");
      }
    }
  }

  Json Array() {
    Expect('[');
    Json v;
    v.type = Json::Type::kArray;
    SkipWs();
    if (Peek() == ']') {
      pos_++;
      return v;
    }
    for (;;) {
      v.arr.push_back(Value());
      SkipWs();
      const char c = Peek();
      if (c != ',' && c != ']') Fail("expected ',' or ']' in array");
      pos_++;
      if (c == ']') return v;
    }
  }

  Json Object() {
    Expect('{');
    Json v;
    v.type = Json::Type::kObject;
    SkipWs();
    if (Peek() == '}') {
      pos_++;
      return v;
    }
    for (;;) {
      SkipWs();
      std::string key = String();
      SkipWs();
      Expect(':');
      v.obj.emplace_back(std::move(key), Value());
      SkipWs();
      const char c = Peek();
      if (c != ',' && c != '}') Fail("expected ',' or '}' in object");
      pos_++;
      if (c == '}') return v;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

const char* TypeName(Json::Type t) {
  static constexpr const char* kNames[] = {"null",     "a bool",   "a number",
                                           "a string", "an array", "an object"};
  return kNames[static_cast<int>(t)];
}

}  // namespace

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::Require(std::string_view key) const {
  const Json* v = Checked(Type::kObject, {}).Find(key);
  if (v == nullptr) {
    throw JsonError("missing required field \"" + std::string(key) + "\"",
                    begin);
  }
  return *v;
}

const Json& Json::Checked(Type want, std::string_view key) const {
  if (type != want) {
    const std::string what =
        key.empty() ? "value" : "field \"" + std::string(key) + "\"";
    throw JsonError(what + " is " + TypeName(type) + ", not " +
                        TypeName(want),
                    begin);
  }
  return *this;
}

Json ParseJson(std::string_view text) { return Parser(text).Parse(); }

Json ParseJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("cannot open " + path, 0);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ParseJson(ss.str());
}

}  // namespace prism
