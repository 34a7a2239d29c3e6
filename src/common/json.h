// The one JSON module behind every machine-readable artifact the repo
// writes or reads (results/BENCH_*.json, METRICS_/ATTRIB_/TS_ dumps, Chrome
// traces): JsonWriter emits documents, ParseJson reads them back.
//
// Unlike protocol code (see status.h), the reader reports failures by
// throwing JsonError: it runs only in bench drivers and tools, where a
// malformed or mistyped artifact must end the run loudly rather than be
// misread. Every error carries the byte offset it refers to.
#ifndef PRISM_SRC_COMMON_JSON_H_
#define PRISM_SRC_COMMON_JSON_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prism {

// Nested objects/arrays with automatic comma placement; strings are escaped
// (control characters as \u00XX); doubles print as %.6g. Keys are passed to
// the Begin*/scalar calls (pass none for array elements).
class JsonWriter {
 public:
  JsonWriter& BeginObject(std::string_view key = {}) { return Open(key, '{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray(std::string_view key = {}) { return Open(key, '['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Field(std::string_view key, std::string_view v);
  JsonWriter& Field(std::string_view key, const char* v) {
    return Field(key, std::string_view(v));
  }
  JsonWriter& Field(std::string_view key, double v);
  JsonWriter& Field(std::string_view key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonWriter& Field(std::string_view key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonWriter& Field(std::string_view key, int v) {
    return Field(key, static_cast<int64_t>(v));
  }
  JsonWriter& Field(std::string_view key, bool v) {
    return Raw(key, v ? "true" : "false");
  }

  // Emits `json`, which must already be one serialized JSON value, verbatim
  // (a fixed-point number, or a member copied from a parsed document).
  JsonWriter& Raw(std::string_view key, std::string_view json);

  // Puts each member of the innermost open scope on its own line, so a
  // long array or map stays line-diffable.
  JsonWriter& BreakLines();

  const std::string& str() const { return out_; }

  // Writes the document plus a newline to `path`, creating parent
  // directories as needed. Returns false (and prints to stderr) on IO
  // failure.
  bool WriteFile(const std::string& path) const;

 private:
  struct Scope {
    bool fresh = true;   // no members emitted yet
    bool lines = false;  // one member per line
  };

  void Prefix(std::string_view key);
  JsonWriter& Open(std::string_view key, char c);
  JsonWriter& Close(char c);
  void Quote(std::string_view s);

  std::string out_;
  std::vector<Scope> scopes_;
};

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, size_t offset);
  size_t offset() const { return offset_; }

 private:
  size_t offset_;
};

// A parsed value. The typed accessors throw JsonError on a missing field
// and on a value of the wrong type alike, pointing at the offending value.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;  // insertion order kept
  size_t begin = 0;  // byte range [begin, end) of this value in the text
  size_t end = 0;

  // Member lookup on an object; nullptr when absent.
  const Json* Find(std::string_view key) const;

  const Json& Require(std::string_view key) const;
  double Num(std::string_view key) const {
    return Member(key, Type::kNumber).number;
  }
  bool Bool(std::string_view key) const {
    return Member(key, Type::kBool).boolean;
  }
  const std::string& Str(std::string_view key) const {
    return Member(key, Type::kString).str;
  }
  const std::vector<Json>& Arr(std::string_view key) const {
    return Member(key, Type::kArray).arr;
  }

  // This value itself, typed (array elements).
  double AsNum() const { return Checked(Type::kNumber, {}).number; }
  const std::string& AsStr() const { return Checked(Type::kString, {}).str; }
  const std::vector<Json>& AsArr() const {
    return Checked(Type::kArray, {}).arr;
  }

 private:
  const Json& Checked(Type want, std::string_view key) const;
  const Json& Member(std::string_view key, Type want) const {
    return Require(key).Checked(want, key);
  }
};

// Parses one complete document; trailing non-whitespace is an error.
Json ParseJson(std::string_view text);

// Reads and parses `path`; an unreadable file throws JsonError too.
Json ParseJsonFile(const std::string& path);

}  // namespace prism

#endif  // PRISM_SRC_COMMON_JSON_H_
