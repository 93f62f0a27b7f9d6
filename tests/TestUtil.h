//===- tests/TestUtil.h - Shared helpers for the test suites ---------------==//

#ifndef JRPM_TESTS_TESTUTIL_H
#define JRPM_TESTS_TESTUTIL_H

#include "frontend/Ast.h"
#include "frontend/Lower.h"
#include "interp/Machine.h"
#include "metrics/Metrics.h"
#include "sim/Config.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace jrpm {
namespace testutil {

/// RAII temporary directory (mkdtemp under TMPDIR or /tmp); recursively
/// removed on destruction. Tests build scratch paths with file() instead of
/// hand-rolling pid-stamped /tmp names, so a crashed run can't leave
/// colliding litter behind for the next one.
class ScopedTempDir {
public:
  explicit ScopedTempDir(const std::string &Tag = "jrpm-test") {
    const char *Base = std::getenv("TMPDIR");
    std::string Template = std::string(Base && *Base ? Base : "/tmp") + "/" +
                           Tag + "-XXXXXX";
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    if (char *D = mkdtemp(Buf.data()))
      P = D;
  }
  ~ScopedTempDir() {
    if (!P.empty()) {
      std::error_code Ec; // best-effort cleanup; never throw in a dtor
      std::filesystem::remove_all(P, Ec);
    }
  }
  ScopedTempDir(const ScopedTempDir &) = delete;
  ScopedTempDir &operator=(const ScopedTempDir &) = delete;

  bool valid() const { return !P.empty(); }
  const std::string &path() const { return P; }
  std::string file(const std::string &Name) const { return P + "/" + Name; }

private:
  std::string P;
};

/// Lowers a single-function program named "main" from \p Body.
inline ir::Module makeMain(front::St Body) {
  front::ProgramDef P;
  front::FuncDef Main;
  Main.Name = "main";
  Main.Body = std::move(Body);
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

/// Runs \p M sequentially and returns the result.
inline interp::RunResult runModule(const ir::Module &M,
                                   const sim::HydraConfig &Cfg = {}) {
  interp::Machine Machine(M, Cfg);
  return Machine.run();
}

/// Convenience: lower and run, returning main's value.
inline std::uint64_t evalMain(front::St Body) {
  ir::Module M = makeMain(std::move(Body));
  return runModule(M).ReturnValue;
}

/// Value of counter \p Name in \p R, or 0 when it was never exported.
inline std::uint64_t counterValue(const metrics::Registry &R,
                                  const std::string &Name) {
  auto It = R.counters().find(Name);
  return It == R.counters().end() ? 0 : It->second.value();
}

/// Json rendering of only the metrics whose name starts with \p Prefix —
/// the comparison key for live-vs-replay identity.
inline std::string dumpWithPrefix(const metrics::Registry &R,
                                  const std::string &Prefix) {
  Json Out = Json::object();
  for (const auto &[Name, C] : R.counters())
    if (Name.rfind(Prefix, 0) == 0)
      Out["counters"][Name] = C.value();
  for (const auto &[Name, G] : R.gauges())
    if (Name.rfind(Prefix, 0) == 0)
      Out["gauges"][Name] = G.value();
  for (const auto &[Name, H] : R.histograms())
    if (Name.rfind(Prefix, 0) == 0)
      Out["histograms"][Name] = H.toJson();
  return Out.dump();
}

} // namespace testutil
} // namespace jrpm

#endif // JRPM_TESTS_TESTUTIL_H
