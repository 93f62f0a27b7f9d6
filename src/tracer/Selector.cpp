//===- tracer/Selector.cpp ------------------------------------------------==//

#include "tracer/Selector.h"

#include "support/Fnv1a.h"

#include <algorithm>
#include <functional>

using namespace jrpm;
using namespace jrpm::tracer;

SelectionResult tracer::selectStls(const TraceEngine &Engine,
                                   std::uint64_t ProgramCycles,
                                   const sim::HydraConfig &Cfg) {
  SelectionResult R;
  R.ProgramCycles = ProgramCycles;
  std::uint32_t N = Engine.numLoops();
  R.Loops.resize(N);

  std::vector<int> Parents = Engine.dynamicParents();
  for (std::uint32_t L = 0; L < N; ++L) {
    StlReport &Rep = R.Loops[L];
    Rep.LoopId = L;
    Rep.Stats = Engine.stats(L);
    Rep.Estimate = estimateSpeedup(Rep.Stats, Cfg);
    Rep.Parent = Parents[L];
    Rep.Coverage = ProgramCycles
                       ? static_cast<double>(Rep.Stats.Cycles) /
                             static_cast<double>(ProgramCycles)
                       : 0.0;
    if (Rep.Parent >= 0)
      R.Loops[static_cast<std::uint32_t>(Rep.Parent)].Children.push_back(L);
  }

  // Equation 2, bottom-up over the dynamic forest:
  //   bestTime(l) = min(specTime(l), direct(l) + sum_children bestTime(c))
  // where direct(l) is the loop's cycles not covered by traced children (a
  // childless loop's direct time is simply its serial time).
  std::function<double(std::uint32_t)> BestTime =
      [&](std::uint32_t L) -> double {
    StlReport &Rep = R.Loops[L];
    double ChildCycles = 0.0;
    double ChildBest = 0.0;
    for (std::uint32_t C : Rep.Children) {
      ChildCycles += static_cast<double>(R.Loops[C].Stats.Cycles);
      ChildBest += BestTime(C);
    }
    double Direct =
        std::max(0.0, static_cast<double>(Rep.Stats.Cycles) - ChildCycles);
    double Nested = Direct + ChildBest;
    // Loops never traced have no estimate; they stay serial.
    if (Rep.Stats.Threads == 0 || Rep.Stats.Cycles == 0) {
      Rep.BestTime = Nested;
      return Rep.BestTime;
    }
    double Spec = Rep.Estimate.SpecCycles;
    if (Spec < Nested) {
      Rep.Selected = true;
      Rep.BestTime = Spec;
    } else {
      Rep.BestTime = Nested;
    }
    return Rep.BestTime;
  };

  double RootCycles = 0.0;
  double RootBest = 0.0;
  for (std::uint32_t L = 0; L < N; ++L) {
    if (R.Loops[L].Parent >= 0)
      continue;
    RootCycles += static_cast<double>(R.Loops[L].Stats.Cycles);
    RootBest += BestTime(L);
  }

  // A selected ancestor deactivates its whole subtree ("only one thread
  // decomposition may be active at a given time").
  std::function<void(std::uint32_t, bool)> Deactivate =
      [&](std::uint32_t L, bool AncestorSelected) {
        if (AncestorSelected)
          R.Loops[L].Selected = false;
        for (std::uint32_t C : R.Loops[L].Children)
          Deactivate(C, AncestorSelected || R.Loops[L].Selected);
      };
  for (std::uint32_t L = 0; L < N; ++L)
    if (R.Loops[L].Parent < 0)
      Deactivate(L, false);

  for (std::uint32_t L = 0; L < N; ++L)
    if (R.Loops[L].Selected)
      R.SelectedLoops.push_back(L);

  R.SerialCycles =
      std::max(0.0, static_cast<double>(ProgramCycles) - RootCycles);
  R.PredictedCycles = R.SerialCycles + RootBest;
  R.PredictedSpeedup = R.PredictedCycles > 0
                           ? static_cast<double>(ProgramCycles) /
                                 R.PredictedCycles
                           : 1.0;
  return R;
}

//===----------------------------------------------------------------------===//
// Selection digest
//===----------------------------------------------------------------------===//

std::uint64_t tracer::selectionDigest(const SelectionResult &R) {
  Fnv1a F;
  F.mix(R.ProgramCycles);
  F.mixDouble(R.SerialCycles);
  F.mixDouble(R.PredictedCycles);
  F.mixDouble(R.PredictedSpeedup);
  F.mix(R.SelectedLoops.size());
  for (std::uint32_t L : R.SelectedLoops)
    F.mix(L);
  F.mix(R.Loops.size());
  for (const StlReport &Rep : R.Loops) {
    F.mix(Rep.LoopId);
    F.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(Rep.Parent)));
    F.mix(Rep.Selected);
    F.mixDouble(Rep.Coverage);
    F.mixDouble(Rep.BestTime);
    F.mix(Rep.Children.size());
    for (std::uint32_t C : Rep.Children)
      F.mix(C);
    const StlStats &S = Rep.Stats;
    F.mix(S.Cycles);
    F.mix(S.Threads);
    F.mix(S.Entries);
    F.mix(S.UntracedEntries);
    F.mix(S.CritArcsPrev);
    F.mix(S.CritLenPrev);
    F.mix(S.CritArcsEarlier);
    F.mix(S.CritLenEarlier);
    F.mix(S.OverflowThreads);
    F.mix(S.MaxLoadLines);
    F.mix(S.MaxStoreLines);
    F.mix(S.PcBins.size());
    for (const auto &[Pc, Bin] : S.PcBins) {
      F.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(Pc)));
      F.mix(Bin.CriticalArcs);
      F.mix(Bin.AccumulatedLength);
    }
    F.mixDouble(Rep.Estimate.BaseSpeedup);
    F.mixDouble(Rep.Estimate.EffectiveSpeedup);
    F.mixDouble(Rep.Estimate.Speedup);
    F.mixDouble(Rep.Estimate.SpecCycles);
  }
  return F.value();
}
