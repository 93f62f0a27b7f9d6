//===- support/Json.h - Deterministic JSON values and atomic files --------===//
//
// A small JSON value tree for the sweep subsystem's structured results.
// Objects store their members in a std::map, so serialization always emits
// keys in sorted order; doubles render via a fixed "%.17g" round-trip
// format. Together these make the output a pure function of the values —
// the property the sweep determinism tests (1 thread vs N threads must be
// byte-identical) and the golden-file gate rely on.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SUPPORT_JSON_H
#define JRPM_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace jrpm {

class Json {
public:
  enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

  Json() : K(Kind::Null) {}
  Json(bool V) : K(Kind::Bool), B(V) {}
  Json(std::int64_t V) : K(Kind::Int), I(V) {}
  Json(std::uint64_t V) : K(Kind::Uint), U(V) {}
  Json(int V) : K(Kind::Int), I(V) {}
  Json(unsigned V) : K(Kind::Uint), U(V) {}
  Json(double V) : K(Kind::Double), D(V) {}
  Json(std::string V) : K(Kind::String), S(std::move(V)) {}
  Json(const char *V) : K(Kind::String), S(V) {}

  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }

  Kind kind() const { return K; }

  /// Object member access; inserts a Null member on first use. Asserts the
  /// value is (or becomes) an object.
  Json &operator[](const std::string &Key);

  /// Array append.
  void push(Json V);

  // --- Read access (for parsed documents) ---------------------------------
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const {
    return K == Kind::Int || K == Kind::Uint || K == Kind::Double;
  }
  /// Object member, or null when absent / not an object.
  const Json *find(const std::string &Key) const;
  const std::map<std::string, Json> &members() const { return Obj; }
  const std::vector<Json> &items() const { return Arr; }
  const std::string &str() const { return S; }
  bool boolean() const { return B; }
  /// Unified numeric view (Int/Uint/Double all convert; else 0).
  double number() const;
  std::uint64_t asUint() const;
  /// The value as an exact integer of the target type (an Int, a Uint or
  /// an integral Double, in range), else empty: never a truncated fraction
  /// or an out-of-range double cast, which is undefined behaviour.
  std::optional<std::int64_t> exactInt() const;
  std::optional<std::uint64_t> exactUint() const;

  /// Maximum container nesting depth parse() accepts. Deeper documents are
  /// rejected with a typed error instead of recursing toward a stack
  /// overflow: the tools parse files named on their command line
  /// (`jrpm-metrics` documents, `jrpm-corpus` repros), and a depth bomb in
  /// one of them must fail the command, not crash it.
  static constexpr int MaxParseDepth = 96;

  /// Parses \p Text (the subset this class emits: null, bool, numbers,
  /// strings with the escapes jsonEscape produces plus \/ and \uXXXX for
  /// ASCII, arrays, objects). Returns false with *Err set on malformed
  /// input (including nesting beyond MaxParseDepth). Duplicate object keys
  /// keep the last value.
  static bool parse(const std::string &Text, Json &Out,
                    std::string *Err = nullptr);

  /// Serializes with two-space indentation, sorted object keys, and a
  /// trailing newline at the top level.
  std::string dump() const;

private:
  void render(std::string &Out, int Depth) const;

  Kind K;
  bool B = false;
  std::int64_t I = 0;
  std::uint64_t U = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Arr;
  std::map<std::string, Json> Obj;
};

/// Escapes \p V as a JSON string literal (with surrounding quotes).
std::string jsonEscape(const std::string &V);

} // namespace jrpm

#endif // JRPM_SUPPORT_JSON_H
