//===- support/Json.cpp ---------------------------------------------------==//

#include "support/Json.h"

#include <cassert>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

using namespace jrpm;

Json &Json::operator[](const std::string &Key) {
  if (K == Kind::Null)
    K = Kind::Object;
  assert(K == Kind::Object && "indexing a non-object Json value");
  return Obj[Key];
}

void Json::push(Json V) {
  if (K == Kind::Null)
    K = Kind::Array;
  assert(K == Kind::Array && "appending to a non-array Json value");
  Arr.push_back(std::move(V));
}

std::string jrpm::jsonEscape(const std::string &V) {
  std::string Out;
  Out.reserve(V.size() + 2);
  Out.push_back('"');
  for (unsigned char C : V) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  Out.push_back('"');
  return Out;
}

void Json::render(std::string &Out, int Depth) const {
  const std::string Indent(static_cast<std::size_t>(Depth) * 2, ' ');
  const std::string Inner(static_cast<std::size_t>(Depth + 1) * 2, ' ');
  char Buf[64];
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Int:
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, I);
    Out += Buf;
    break;
  case Kind::Uint:
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64, U);
    Out += Buf;
    break;
  case Kind::Double:
    // %.17g round-trips every finite double and is a pure function of the
    // bit pattern, which the byte-identity contract needs.
    if (std::isfinite(D)) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", D);
      Out += Buf;
    } else {
      Out += "null";
    }
    break;
  case Kind::String:
    Out += jsonEscape(S);
    break;
  case Kind::Array:
    if (Arr.empty()) {
      Out += "[]";
      break;
    }
    Out += "[\n";
    for (std::size_t N = 0; N < Arr.size(); ++N) {
      Out += Inner;
      Arr[N].render(Out, Depth + 1);
      Out += N + 1 < Arr.size() ? ",\n" : "\n";
    }
    Out += Indent + "]";
    break;
  case Kind::Object:
    if (Obj.empty()) {
      Out += "{}";
      break;
    }
    Out += "{\n";
    {
      std::size_t N = 0;
      for (const auto &[Key, Value] : Obj) {
        Out += Inner + jsonEscape(Key) + ": ";
        Value.render(Out, Depth + 1);
        Out += ++N < Obj.size() ? ",\n" : "\n";
      }
    }
    Out += Indent + "}";
    break;
  }
}

const Json *Json::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Obj.find(Key);
  return It == Obj.end() ? nullptr : &It->second;
}

double Json::number() const {
  switch (K) {
  case Kind::Int:
    return static_cast<double>(I);
  case Kind::Uint:
    return static_cast<double>(U);
  case Kind::Double:
    return D;
  default:
    return 0.0;
  }
}

std::uint64_t Json::asUint() const {
  switch (K) {
  case Kind::Int:
    return I >= 0 ? static_cast<std::uint64_t>(I) : 0;
  case Kind::Uint:
    return U;
  case Kind::Double:
    return D >= 0 ? static_cast<std::uint64_t>(D) : 0;
  default:
    return 0;
  }
}

std::optional<std::int64_t> Json::exactInt() const {
  if (K == Kind::Int)
    return I;
  if (K == Kind::Uint && U <= static_cast<std::uint64_t>(INT64_MAX))
    return static_cast<std::int64_t>(U);
  // [-2^63, 2^63) is exactly int64's range; NaN fails both tests.
  if (K == Kind::Double && D >= -0x1p63 && D < 0x1p63 && D == std::trunc(D))
    return static_cast<std::int64_t>(D);
  return std::nullopt;
}

std::optional<std::uint64_t> Json::exactUint() const {
  if (K == Kind::Uint)
    return U;
  if (K == Kind::Int && I >= 0)
    return static_cast<std::uint64_t>(I);
  if (K == Kind::Double && D >= 0 && D < 0x1p64 && D == std::trunc(D))
    return static_cast<std::uint64_t>(D);
  return std::nullopt;
}

namespace {

/// Recursive-descent parser over the serialization subset dump() emits.
class JsonParser {
public:
  JsonParser(const std::string &Text, std::string *Err)
      : T(Text), Err(Err) {}

  bool parse(Json &Out) {
    skipWs();
    if (!value(Out))
      return false;
    skipWs();
    if (Pos != T.size())
      return fail("trailing characters after document");
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    if (Err)
      *Err = "json parse error at offset " + std::to_string(Pos) + ": " +
             Msg;
    return false;
  }

  void skipWs() {
    while (Pos < T.size() && (T[Pos] == ' ' || T[Pos] == '\t' ||
                              T[Pos] == '\n' || T[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    std::size_t N = std::strlen(Word);
    if (T.compare(Pos, N, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += N;
    return true;
  }

  bool value(Json &Out) {
    if (Pos >= T.size())
      return fail("unexpected end of input");
    if (Depth > Json::MaxParseDepth)
      return fail("nesting deeper than " +
                  std::to_string(Json::MaxParseDepth) + " levels");
    switch (T[Pos]) {
    case 'n':
      Out = Json();
      return literal("null");
    case 't':
      Out = Json(true);
      return literal("true");
    case 'f':
      Out = Json(false);
      return literal("false");
    case '"': {
      std::string S;
      if (!string(S))
        return false;
      Out = Json(std::move(S));
      return true;
    }
    case '[':
      return array(Out);
    case '{':
      return object(Out);
    default:
      return numberValue(Out);
    }
  }

  bool string(std::string &Out) {
    if (T[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < T.size() && T[Pos] != '"') {
      char C = T[Pos];
      if (C != '\\') {
        Out.push_back(C);
        ++Pos;
        continue;
      }
      if (Pos + 1 >= T.size())
        return fail("dangling escape");
      char E = T[Pos + 1];
      Pos += 2;
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'u': {
        if (Pos + 4 > T.size())
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int K = 0; K < 4; ++K) {
          char H = T[Pos + static_cast<std::size_t>(K)];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        Pos += 4;
        if (V > 0x7f)
          return fail("non-ASCII \\u escape unsupported");
        Out.push_back(static_cast<char>(V));
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (Pos >= T.size())
      return fail("unterminated string");
    ++Pos; // closing quote
    return true;
  }

  bool numberValue(Json &Out) {
    std::size_t Start = Pos;
    bool Neg = Pos < T.size() && T[Pos] == '-';
    if (Neg)
      ++Pos;
    bool Fractional = false;
    while (Pos < T.size()) {
      char C = T[Pos];
      if (C >= '0' && C <= '9') {
        ++Pos;
      } else if (C == '.' || C == 'e' || C == 'E' || C == '+' || C == '-') {
        Fractional = true;
        ++Pos;
      } else {
        break;
      }
    }
    if (Pos == Start + (Neg ? 1u : 0u))
      return fail("expected value");
    std::string Tok = T.substr(Start, Pos - Start);
    errno = 0;
    if (!Fractional) {
      if (Neg) {
        long long V = std::strtoll(Tok.c_str(), nullptr, 10);
        if (errno == 0) {
          Out = Json(static_cast<std::int64_t>(V));
          return true;
        }
      } else {
        unsigned long long V = std::strtoull(Tok.c_str(), nullptr, 10);
        if (errno == 0) {
          Out = Json(static_cast<std::uint64_t>(V));
          return true;
        }
      }
      errno = 0; // overflow: fall through to double
    }
    char *End = nullptr;
    double D = std::strtod(Tok.c_str(), &End);
    if (End != Tok.c_str() + Tok.size() || errno == ERANGE)
      return fail("malformed number '" + Tok + "'");
    Out = Json(D);
    return true;
  }

  bool array(Json &Out) {
    ++Pos; // '['
    ++Depth;
    Out = Json::array();
    skipWs();
    if (Pos < T.size() && T[Pos] == ']') {
      ++Pos;
      --Depth;
      return true;
    }
    while (true) {
      Json V;
      skipWs();
      if (!value(V))
        return false;
      Out.push(std::move(V));
      skipWs();
      if (Pos >= T.size())
        return fail("unterminated array");
      if (T[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (T[Pos] == ']') {
        ++Pos;
        --Depth;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(Json &Out) {
    ++Pos; // '{'
    ++Depth;
    Out = Json::object();
    skipWs();
    if (Pos < T.size() && T[Pos] == '}') {
      ++Pos;
      --Depth;
      return true;
    }
    while (true) {
      skipWs();
      std::string Key;
      if (Pos >= T.size() || T[Pos] != '"')
        return fail("expected object key");
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= T.size() || T[Pos] != ':')
        return fail("expected ':'");
      ++Pos;
      skipWs();
      Json V;
      if (!value(V))
        return false;
      Out[Key] = std::move(V);
      skipWs();
      if (Pos >= T.size())
        return fail("unterminated object");
      if (T[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (T[Pos] == '}') {
        ++Pos;
        --Depth;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string &T;
  std::string *Err;
  std::size_t Pos = 0;
  int Depth = 0;
};

} // namespace

bool Json::parse(const std::string &Text, Json &Out, std::string *Err) {
  return JsonParser(Text, Err).parse(Out);
}

std::string Json::dump() const {
  std::string Out;
  render(Out, 0);
  Out.push_back('\n');
  return Out;
}
