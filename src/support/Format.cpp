//===- support/Format.cpp -------------------------------------------------==//

#include "support/Format.h"

#include <cstdarg>
#include <cstdio>
#include <vector>

using namespace jrpm;

std::string jrpm::formatString(const char *Fmt, ...) {
  std::va_list Args;
  va_start(Args, Fmt);
  std::va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::vector<char> Buffer(static_cast<size_t>(Needed) + 1);
  std::vsnprintf(Buffer.data(), Buffer.size(), Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return std::string(Buffer.data(), static_cast<size_t>(Needed));
}

std::string jrpm::withCommas(std::int64_t Value) {
  bool Negative = Value < 0;
  std::uint64_t Magnitude =
      Negative ? 0ull - static_cast<std::uint64_t>(Value)
               : static_cast<std::uint64_t>(Value);
  std::string Digits = std::to_string(Magnitude);
  std::string Out;
  int Count = 0;
  for (auto It = Digits.rbegin(); It != Digits.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Out.push_back(',');
    Out.push_back(*It);
    ++Count;
  }
  if (Negative)
    Out.push_back('-');
  return std::string(Out.rbegin(), Out.rend());
}

std::string jrpm::asPercent(double Ratio, int Decimals) {
  return formatString("%.*f%%", Decimals, Ratio * 100.0);
}

std::string jrpm::asKiloCycles(std::uint64_t Cycles) {
  return formatString("%lluK",
                      static_cast<unsigned long long>((Cycles + 500) / 1000));
}

bool jrpm::parseUnsigned(std::string_view Str, std::uint64_t Max,
                         std::uint64_t &Out) {
  if (Str.empty())
    return false;
  std::uint64_t V = 0;
  for (char C : Str) {
    if (C < '0' || C > '9')
      return false;
    std::uint64_t D = static_cast<std::uint64_t>(C - '0');
    if (D > Max || V > (Max - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

std::vector<std::string> jrpm::splitCommas(std::string_view Str) {
  std::vector<std::string> Out;
  std::size_t Pos = 0;
  while (Pos <= Str.size()) {
    std::size_t Comma = Str.find(',', Pos);
    if (Comma == std::string_view::npos)
      Comma = Str.size();
    if (Comma > Pos)
      Out.emplace_back(Str.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}
