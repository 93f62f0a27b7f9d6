//===- tools/ToolCli.h - Option and output helpers of the jrpm-* tools -----==//
//
// How every tool takes an option's value and writes an output file, kept
// once so that a missing value, a malformed number and a failed write are
// reported in the same words by each tool.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TOOLS_TOOLCLI_H
#define JRPM_TOOLS_TOOLCLI_H

#include "support/AtomicFile.h"
#include "support/Format.h"

#include <cstdint>
#include <cstdio>
#include <string>

namespace jrpm {
namespace tools {

/// Walks the options of a command line from Argv[First]. value() and
/// unsignedValue() take the operand of the current option; a missing or
/// malformed operand is reported on stderr and clears ok().
class OptionReader {
public:
  OptionReader(int Argc, char **Argv, int First)
      : Argc(Argc), Argv(Argv), I(First - 1) {}

  /// Moves to the next option; false when none is left.
  bool next() { return ++I < Argc; }
  /// The current option.
  std::string option() const { return Argv[I]; }
  bool ok() const { return Ok; }

  /// The operand of the current option, or "" when it is missing.
  const char *value() {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "missing value for %s\n", Argv[I]);
      Ok = false;
      return "";
    }
    return Argv[++I];
  }

  /// The operand as a strict decimal in [0, Max] (see parseUnsigned), or
  /// 0 when it is missing or malformed.
  std::uint64_t unsignedValue(std::uint64_t Max) {
    const char *Option = Argv[I];
    bool Given = I + 1 < Argc;
    const char *S = value();
    std::uint64_t V = 0;
    if (Given && !parseUnsigned(S, Max, V)) {
      std::fprintf(stderr, "%s: expected an integer in [0, %llu], got '%s'\n",
                   Option, (unsigned long long)Max, S);
      Ok = false;
    }
    return V;
  }

private:
  int Argc;
  char **Argv;
  int I;
  bool Ok = true;
};

/// Writes \p Content to \p Path by atomic rename and then, when \p What is
/// given, prints "<What> written to <Path>". An empty \p Path prints
/// \p Content to stdout instead. A failed write is reported on stderr as
/// "<Tool>: <error>" and returns false.
inline bool writeOutput(const char *Tool, const std::string &Path,
                        const std::string &Content,
                        const char *What = nullptr) {
  if (Path.empty()) {
    std::fputs(Content.c_str(), stdout);
    return true;
  }
  std::string Err;
  if (!writeFileAtomic(Path, Content, &Err)) {
    std::fprintf(stderr, "%s: %s\n", Tool, Err.c_str());
    return false;
  }
  if (What)
    std::printf("%s written to %s\n", What, Path.c_str());
  return true;
}

} // namespace tools
} // namespace jrpm

#endif // JRPM_TOOLS_TOOLCLI_H
