//===- sweep/SweepPlan.cpp ------------------------------------------------==//

#include "sweep/SweepPlan.h"

#include "support/Format.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <set>

using namespace jrpm;
using namespace jrpm::sweep;

const char *sweep::annotationLevelName(jit::AnnotationLevel L) {
  return L == jit::AnnotationLevel::Base ? "base" : "optimized";
}

namespace {

/// The knob table: every name sets one field of the resolved
/// PipelineConfig. Kept alphabetical; knownKnobs() exposes the names.
struct Knob {
  const char *Name;
  void (*Set)(pipeline::PipelineConfig &, std::uint32_t);
};

const Knob Knobs[] = {
    {"assoc",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.Hw.OverflowTableAssoc = V;
     }},
    {"banks",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.Hw.ComparatorBanks = V;
     }},
    {"disable-after",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.DisableLoopAfterThreads = V;
     }},
    {"history",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.Hw.HeapTimestampFifoLines = V;
     }},
    {"line-grain",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.Hw.ViolationGrain = V ? sim::ViolationGranularity::Line
                               : sim::ViolationGranularity::Word;
     }},
    {"load-lines",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.Hw.SpecLoadLines = V;
     }},
    {"oracle",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.AffineOracle = V != 0;
     }},
    {"pc-binning",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.ExtendedPcBinning = V != 0;
     }},
    {"prefilter",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.StaticPrefilter = V != 0;
     }},
    {"slots",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.Hw.LocalVarSlots = V;
     }},
    {"store-lines",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.Hw.SpecStoreLines = V;
     }},
    {"sync",
     [](pipeline::PipelineConfig &C, std::uint32_t V) {
       C.Hw.SyncCarriedLocals = V != 0;
     }},
};

const Knob *findKnob(const std::string &Name) {
  for (const Knob &K : Knobs)
    if (Name == K.Name)
      return &K;
  return nullptr;
}

} // namespace

const std::vector<std::string> &sweep::knownKnobs() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const Knob &K : Knobs)
      N.push_back(K.Name);
    return N;
  }();
  return Names;
}

std::string ConfigPoint::name() const {
  if (Knobs.empty())
    return "default";
  auto Sorted = Knobs;
  std::sort(Sorted.begin(), Sorted.end());
  std::string Out;
  for (const auto &[K, V] : Sorted) {
    if (!Out.empty())
      Out += ',';
    Out += K + "=" + std::to_string(V);
  }
  return Out;
}

bool ConfigPoint::apply(pipeline::PipelineConfig &Cfg,
                        std::string *Err) const {
  for (const auto &[Name, Value] : Knobs) {
    const Knob *K = findKnob(Name);
    if (!K) {
      if (Err)
        *Err = "unknown config knob '" + Name + "'";
      return false;
    }
    K->Set(Cfg, Value);
  }
  if (!sim::hasValidOverflowTables(Cfg.Hw)) {
    if (Err)
      *Err = formatString("assoc=%u must be >= 1 and divide the %u/%u-entry "
                          "load/store timestamp tables",
                          Cfg.Hw.OverflowTableAssoc,
                          Cfg.Hw.LoadTimestampEntries,
                          Cfg.Hw.StoreTimestampEntries);
    return false;
  }
  return true;
}

bool sweep::parseConfigPoint(const std::string &Spec, ConfigPoint &Out,
                             std::string *Err) {
  auto Fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    return false;
  };
  Out.Knobs.clear();
  if (Spec.empty() || Spec == "default")
    return true;
  std::size_t Pos = 0;
  while (Pos < Spec.size()) {
    std::size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Item = Spec.substr(Pos, Comma - Pos);
    std::size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Item.size())
      return Fail("malformed knob '" + Item + "' (expected key=value)");
    std::string Key = Item.substr(0, Eq);
    std::string ValStr = Item.substr(Eq + 1);
    std::uint64_t Value = 0;
    if (!parseUnsigned(ValStr, UINT32_MAX, Value))
      return Fail(ValStr.find_first_not_of("0123456789") != std::string::npos
                      ? "non-numeric value in knob '" + Item + "'"
                      : "value out of range in knob '" + Item + "' (max " +
                            std::to_string(UINT32_MAX) + ")");
    for (const auto &Prev : Out.Knobs)
      if (Prev.first == Key)
        return Fail("duplicate knob '" + Key + "'");
    Out.Knobs.emplace_back(Key, static_cast<std::uint32_t>(Value));
    Pos = Comma + 1;
  }
  return true;
}

bool SweepPlan::expand(std::vector<SweepJob> &Out, std::string *Err) const {
  Out.clear();

  std::vector<std::string> Names = Workloads;
  if (Names.empty())
    for (const workloads::Workload &W : workloads::allWorkloads())
      Names.push_back(W.Name);

  std::vector<jit::AnnotationLevel> Lv = Levels;
  if (Lv.empty())
    Lv.push_back(jit::AnnotationLevel::Optimized);

  std::vector<ConfigPoint> Pts = Configs;
  if (Pts.empty())
    Pts.emplace_back();

  std::set<std::tuple<std::string, int, std::string>> Seen;
  for (const std::string &W : Names) {
    for (jit::AnnotationLevel L : Lv) {
      for (const ConfigPoint &P : Pts) {
        SweepJob J;
        J.Workload = W;
        J.Level = L;
        J.ConfigName = P.name();
        if (!Seen.insert({W, static_cast<int>(L), J.ConfigName}).second)
          continue; // exact duplicate point
        J.Cfg.Level = L;
        J.Cfg.WorkloadName = W;
        if (!P.apply(J.Cfg, Err))
          return false;
        J.Mode = Mode;
        J.TimeoutMs = TimeoutMs;
        J.Index = static_cast<std::uint32_t>(Out.size());
        Out.push_back(std::move(J));
      }
    }
  }
  return true;
}
