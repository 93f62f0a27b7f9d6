//===- tools/jrpm_metrics.cpp - Inspect & diff metrics JSON exports --------==//
//
// Usage:
//   jrpm-metrics show <file.json>
//       Pretty-print a metrics export produced by `jrpm-run --metrics` or
//       `jrpm-sweep --metrics`: the counters, gauges, and histogram
//       summaries in tabular form.
//   jrpm-metrics diff <a.json> <b.json>
//       Structural comparison of two exports (works on any JSON document
//       the support/Json writer emits). Prints one line per differing
//       path. Exit 0 when identical, 1 when they differ, 2 on bad
//       invocation or unreadable/malformed input.
//
// Because registry exports are deterministic (sorted keys, fixed double
// format, simulated-cycle values only), `diff` doubles as a regression
// gate: two runs of the same workload under the same configuration must
// compare identical.
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Table.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace jrpm;

namespace {

int usage() {
  std::fprintf(stderr, "usage: jrpm-metrics show <file.json>\n"
                       "       jrpm-metrics diff <a.json> <b.json>\n");
  return 2;
}

bool load(const std::string &Path, Json &Out) {
  std::string Text, Err;
  if (!readFileToString(Path, Text, &Err)) {
    std::fprintf(stderr, "jrpm-metrics: %s\n", Err.c_str());
    return false;
  }
  if (!Json::parse(Text, Out, &Err)) {
    std::fprintf(stderr, "jrpm-metrics: %s: %s\n", Path.c_str(),
                 Err.c_str());
    return false;
  }
  return true;
}

/// Single-line rendering of a scalar for diff output.
std::string brief(const Json &J) {
  std::string S = J.dump();
  while (!S.empty() && (S.back() == '\n' || S.back() == ' '))
    S.pop_back();
  if (S.size() > 48)
    S = S.substr(0, 45) + "...";
  return S;
}

/// Recursive structural diff; appends one "path: explanation" line per
/// difference. Scalars compare via their deterministic rendering.
void diffJson(const Json &A, const Json &B, const std::string &Path,
              std::vector<std::string> &Out) {
  std::string Where = Path.empty() ? "(root)" : Path;
  if (A.kind() != B.kind()) {
    Out.push_back(Where + ": kind differs (" + brief(A) + " vs " + brief(B) +
                  ")");
    return;
  }
  if (A.isObject()) {
    auto It = A.members().begin(), Jt = B.members().begin();
    while (It != A.members().end() || Jt != B.members().end()) {
      std::string Prefix = Path.empty() ? "" : Path + ".";
      if (Jt == B.members().end() ||
          (It != A.members().end() && It->first < Jt->first)) {
        Out.push_back(Prefix + It->first + ": only in first (" +
                      brief(It->second) + ")");
        ++It;
      } else if (It == A.members().end() || Jt->first < It->first) {
        Out.push_back(Prefix + Jt->first + ": only in second (" +
                      brief(Jt->second) + ")");
        ++Jt;
      } else {
        diffJson(It->second, Jt->second, Prefix + It->first, Out);
        ++It;
        ++Jt;
      }
    }
    return;
  }
  if (A.isArray()) {
    if (A.items().size() != B.items().size()) {
      Out.push_back(Where +
                    formatString(": array length %zu vs %zu",
                                 A.items().size(), B.items().size()));
      return;
    }
    for (std::size_t I = 0; I < A.items().size(); ++I)
      diffJson(A.items()[I], B.items()[I],
               Where + formatString("[%zu]", I), Out);
    return;
  }
  if (A.dump() != B.dump())
    Out.push_back(Where + ": " + brief(A) + " != " + brief(B));
}

std::string fmtUint(const Json *J) {
  return formatString("%llu",
                      (unsigned long long)(J ? J->asUint() : 0));
}

int cmdShow(const std::string &Path) {
  Json Root;
  if (!load(Path, Root))
    return 2;
  const Json *Schema = Root.find("schema");
  std::printf("%s (%s)\n", Path.c_str(),
              Schema && Schema->isString() ? Schema->str().c_str()
                                           : "no schema");

  const Json *Counters = Root.find("counters");
  if (Counters && Counters->isObject() && !Counters->members().empty()) {
    TextTable T;
    T.setHeader({"counter", "value"});
    for (const auto &[Name, V] : Counters->members())
      T.addRow({Name, withCommas(static_cast<std::int64_t>(V.asUint()))});
    std::printf("\n");
    T.print();
  }

  const Json *Gauges = Root.find("gauges");
  if (Gauges && Gauges->isObject() && !Gauges->members().empty()) {
    TextTable T;
    T.setHeader({"gauge", "value"});
    for (const auto &[Name, V] : Gauges->members())
      T.addRow({Name, withCommas(static_cast<std::int64_t>(V.asUint()))});
    std::printf("\n");
    T.print();
  }

  const Json *Hists = Root.find("histograms");
  if (Hists && Hists->isObject() && !Hists->members().empty()) {
    TextTable T;
    T.setHeader({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto &[Name, H] : Hists->members()) {
      const Json *Mean = H.find("mean");
      T.addRow({Name, fmtUint(H.find("count")),
                formatString("%.1f", Mean ? Mean->number() : 0.0),
                fmtUint(H.find("p50")), fmtUint(H.find("p95")),
                fmtUint(H.find("p99")), fmtUint(H.find("max"))});
    }
    std::printf("\n");
    T.print();
  }
  return 0;
}

int cmdDiff(const std::string &PathA, const std::string &PathB) {
  Json A, B;
  if (!load(PathA, A) || !load(PathB, B))
    return 2;
  std::vector<std::string> Diffs;
  diffJson(A, B, "", Diffs);
  if (Diffs.empty()) {
    std::printf("metrics identical\n");
    return 0;
  }
  for (const std::string &D : Diffs)
    std::printf("%s\n", D.c_str());
  std::printf("%zu difference(s)\n", Diffs.size());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd == "show" && Argc == 3)
    return cmdShow(Argv[2]);
  if (Cmd == "diff" && Argc == 4)
    return cmdDiff(Argv[2], Argv[3]);
  return usage();
}
