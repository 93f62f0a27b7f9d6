//===- analysis/Candidates.h - Candidate STL selection ---------------------==//
//
// Bundles the per-function CFG analyses and produces the module-wide list
// of potential speculative thread loops (STLs). Loops are chosen
// optimistically (Section 4.1): only loops whose carried scalar pattern
// obviously serializes execution ("end-of-loop store and start-of-loop
// load") are rejected; inductors and reductions are ignored because the
// compiler eliminates them.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_ANALYSIS_CANDIDATES_H
#define JRPM_ANALYSIS_CANDIDATES_H

#include "analysis/Dominators.h"
#include "analysis/InductionInfo.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/MemDep.h"
#include "analysis/StaticOracle.h"
#include "ir/IR.h"

#include <memory>
#include <string>
#include <vector>

namespace jrpm {
namespace analysis {

/// All CFG analyses of one function.
struct FunctionAnalysis {
  explicit FunctionAnalysis(const ir::Function &F);

  DominatorTree DT;
  LoopInfo LI;
  Liveness LV;
  /// Scalar classification per loop (parallel to LI.loops()).
  std::vector<InductionInfo> LoopScalars;
  /// Memory dependence summary per loop (parallel to LI.loops()).
  std::unique_ptr<MemDepAnalysis> MemDep;
};

/// Why a loop was removed from the candidate list. The paper's optimistic
/// policy (Section 4.1) covers the first four kinds; SerialMemoryRecurrence
/// is the flag-gated static pre-filter on top of it, and the two Affine
/// kinds are the affine oracle's provably-serial verdicts (StaticOracle.h)
/// split by the dependence test that fired.
enum class RejectKind : std::uint8_t {
  None,
  ReturnsFromFunction,
  AllocatesHeap,
  CallsAllocator,
  SerialCarriedScalar,
  SerialMemoryRecurrence,
  AffineSerialZiv,
  AffineSerialSiv,
};

/// Returns a short stable name for \p Kind (for tables and logs).
const char *rejectKindName(RejectKind Kind);

/// Inverse of rejectKindName. Returns false when \p Name matches no kind.
bool rejectKindFromName(const std::string &Name, RejectKind &Out);

/// Every RejectKind value, in declaration order (tables, round-trip tests).
inline constexpr RejectKind AllRejectKinds[] = {
    RejectKind::None,
    RejectKind::ReturnsFromFunction,
    RejectKind::AllocatesHeap,
    RejectKind::CallsAllocator,
    RejectKind::SerialCarriedScalar,
    RejectKind::SerialMemoryRecurrence,
    RejectKind::AffineSerialZiv,
    RejectKind::AffineSerialSiv,
};

/// Tuning knobs for candidate screening.
struct AnalysisOptions {
  /// Enables the static dependence pre-filter: loops whose memory traffic
  /// provably serialises every iteration pair are rejected before they are
  /// ever annotated, saving their share of the Figure-6 profiling
  /// slowdown. Off by default so the paper-figure benches keep measuring
  /// the paper's optimistic policy.
  bool StaticPrefilter = false;
  /// A serial memory recurrence is rejected only when its worst-case
  /// store-to-reload window is at most this many cycles — i.e. the
  /// cross-iteration arc can never beat the Hydra forwarding delay
  /// (sim::HydraConfig::StoreLoadCommCycles, default 10).
  std::uint32_t SerialArcBudget = 10;
  /// Enables the affine speculation oracle (StaticOracle.h): runs the
  /// affine dependence tests over every loop, records per-loop verdicts,
  /// and rejects provably-serial loops under the AffineSerial* kinds. A
  /// strict superset of the StaticPrefilter rejections: the shape-matched
  /// serial-recurrence rule runs as well.
  bool AffineOracle = false;
};

/// One potential STL (or a rejected loop, kept for reporting).
struct CandidateStl {
  std::uint32_t FuncIndex = 0;
  std::uint32_t LoopIdx = 0; // index into the function's LoopInfo
  std::uint32_t LoopId = 0;  // module-global id, used by annotations
  bool Rejected = false;
  RejectKind Kind = RejectKind::None;
  std::string RejectReason;
  /// Carried named locals needing `lwl`/`swl` annotations, in slot order.
  std::vector<std::uint16_t> AnnotatedLocals;

  /// A serial-recurrence rejection, from the pre-filter or the oracle.
  bool rejectedAsSerial() const {
    return Kind == RejectKind::SerialMemoryRecurrence ||
           Kind == RejectKind::AffineSerialZiv ||
           Kind == RejectKind::AffineSerialSiv;
  }
};

/// Module-wide analysis results and candidate list.
class ModuleAnalysis {
public:
  explicit ModuleAnalysis(const ir::Module &M,
                          const AnalysisOptions &Opts = {});
  /// Screens \p Base's module again under \p Opts. Equal to a fresh
  /// ModuleAnalysis(M, Opts), but shares Base's option-independent
  /// per-function analyses and memory effects instead of recomputing them.
  ModuleAnalysis(const ModuleAnalysis &Base, const AnalysisOptions &Opts);

  const FunctionAnalysis &func(std::uint32_t F) const { return *Funcs[F]; }
  const std::vector<CandidateStl> &candidates() const { return Candidates; }

  /// The affine oracle's verdict for loop \p LoopId, or null when the
  /// oracle was not enabled.
  const LoopOracleResult *oracleResult(std::uint32_t LoopId) const {
    return OracleResults.empty() ? nullptr : &OracleResults[LoopId];
  }

  const CandidateStl &candidate(std::uint32_t LoopId) const {
    return Candidates[LoopId];
  }

  const Loop &loopOf(const CandidateStl &C) const {
    return Funcs[C.FuncIndex]->LI.loops()[C.LoopIdx];
  }

  const InductionInfo &scalarsOf(const CandidateStl &C) const {
    return Funcs[C.FuncIndex]->LoopScalars[C.LoopIdx];
  }

  /// Total number of natural loops in the module (Table 6 column c).
  std::uint32_t loopCount() const;

  /// Maximum static loop nesting depth (Table 6 column d is the dynamic
  /// depth; this static bound is reported alongside it).
  std::uint32_t maxStaticLoopDepth() const;

private:
  /// Builds the candidate list (and oracle verdicts) under \p Opts.
  void screen(const AnalysisOptions &Opts);

  const ir::Module &M;
  std::vector<std::shared_ptr<const FunctionAnalysis>> Funcs;
  std::shared_ptr<const std::vector<FuncMemEffects>> Effects;
  std::vector<CandidateStl> Candidates;
  /// Parallel to Candidates when the oracle ran; empty otherwise.
  std::vector<LoopOracleResult> OracleResults;
};

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_CANDIDATES_H
