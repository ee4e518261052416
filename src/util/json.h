// Minimal deterministic JSON writers shared by the report emitters
// (scenario matrix, RunMetrics serialization). Not a JSON library: just
// enough to build objects with explicit key order and bit-exact doubles,
// so two runs agree in a report iff they agree bit for bit.

#ifndef LIFERAFT_UTIL_JSON_H_
#define LIFERAFT_UTIL_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace liferaft::util {

/// %.17g survives a binary64 round trip, so a JSON double doubles as a
/// determinism digest of the underlying bits.
inline std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Minimal object writer with explicit key order (determinism by
/// construction; std::map iteration would also be stable but hides the
/// ordering decision).
class JsonObject {
 public:
  void Field(const std::string& key, const std::string& raw) {
    if (!first_) body_ += ", ";
    first_ = false;
    body_ += "\"" + key + "\": " + raw;
  }
  void Str(const std::string& key, const std::string& value) {
    // append, not a `"\"" + ... + "\""` chain: GCC 12 reports a false
    // -Wrestrict on the inlined string insert that chain generates.
    std::string quoted = "\"";
    quoted.append(JsonEscape(value));
    quoted.append("\"");
    Field(key, quoted);
  }
  void Num(const std::string& key, double value) {
    Field(key, JsonDouble(value));
  }
  void Int(const std::string& key, uint64_t value) {
    Field(key, std::to_string(value));
  }
  void Bool(const std::string& key, bool value) {
    Field(key, value ? "true" : "false");
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
  bool first_ = true;
};

}  // namespace liferaft::util

#endif  // LIFERAFT_UTIL_JSON_H_
