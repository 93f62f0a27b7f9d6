//===- analysis/Candidates.cpp --------------------------------------------==//

#include "analysis/Candidates.h"

#include "ir/RegUse.h"

#include <algorithm>
#include <set>

using namespace jrpm;
using namespace jrpm::analysis;

FunctionAnalysis::FunctionAnalysis(const ir::Function &F)
    : DT(F), LI(F, DT), LV(F) {
  LoopScalars.reserve(LI.loops().size());
  for (const Loop &L : LI.loops())
    LoopScalars.push_back(analyzeLoopScalars(F, L, DT, LV));
  MemDep = std::make_unique<MemDepAnalysis>(F, LI, LoopScalars);
}

const char *analysis::rejectKindName(RejectKind Kind) {
  switch (Kind) {
  case RejectKind::None:
    return "none";
  case RejectKind::ReturnsFromFunction:
    return "returns";
  case RejectKind::AllocatesHeap:
    return "allocates";
  case RejectKind::CallsAllocator:
    return "calls-allocator";
  case RejectKind::SerialCarriedScalar:
    return "serial-scalar";
  case RejectKind::SerialMemoryRecurrence:
    return "serial-memory";
  case RejectKind::AffineSerialZiv:
    return "affine-ziv";
  case RejectKind::AffineSerialSiv:
    return "affine-siv";
  }
  return "none";
}

bool analysis::rejectKindFromName(const std::string &Name, RejectKind &Out) {
  for (RejectKind Kind : AllRejectKinds)
    if (Name == rejectKindName(Kind)) {
      Out = Kind;
      return true;
    }
  return false;
}

/// Returns true if \p Reg is used before any definition in \p Block.
static bool usedBeforeDef(const ir::BasicBlock &Block, std::uint16_t Reg) {
  for (const ir::Instruction &I : Block.Instructions) {
    bool Used = false;
    ir::forEachUsedReg(I, [&](std::uint16_t R) { Used |= R == Reg; });
    if (Used)
      return true;
    if (ir::definedReg(I) == Reg)
      return false;
  }
  return false;
}

/// Returns true if carried register \p Reg is stored at the end of the loop
/// body and loaded at its start — the paper's "obvious" fully serializing
/// pattern. "Start" covers both the header (do/while conditions) and the
/// header's in-loop successors (while-loop body entries).
static bool isObviousSerializer(const ir::Function &F, const Loop &L,
                                std::uint16_t Reg) {
  bool DefInLatch = false;
  for (std::uint32_t Latch : L.Latches)
    for (const ir::Instruction &I : F.Blocks[Latch].Instructions)
      if (ir::definedReg(I) == Reg)
        DefInLatch = true;
  if (!DefInLatch)
    return false;

  if (usedBeforeDef(F.Blocks[L.Header], Reg))
    return true;
  std::vector<std::uint32_t> Succs;
  F.Blocks[L.Header].appendSuccessors(Succs);
  for (std::uint32_t S : Succs)
    if (L.contains(S) && usedBeforeDef(F.Blocks[S], Reg))
      return true;
  return false;
}

ModuleAnalysis::ModuleAnalysis(const ir::Module &Mod,
                               const AnalysisOptions &Opts)
    : M(Mod) {
  Funcs.reserve(M.Functions.size());
  for (const ir::Function &F : M.Functions)
    Funcs.push_back(std::make_shared<const FunctionAnalysis>(F));

  // Per-function memory-effect summaries subsume the old transitive
  // allocates-bit: call screening reads the Allocates flag, the oracle
  // also wants the read/write facts.
  Effects = std::make_shared<const std::vector<FuncMemEffects>>(
      computeMemEffects(M));
  screen(Opts);
}

ModuleAnalysis::ModuleAnalysis(const ModuleAnalysis &Base,
                               const AnalysisOptions &Opts)
    : M(Base.M), Funcs(Base.Funcs), Effects(Base.Effects) {
  screen(Opts);
}

void ModuleAnalysis::screen(const AnalysisOptions &Opts) {
  for (std::uint32_t FI = 0; FI < M.Functions.size(); ++FI) {
    const ir::Function &F = M.Functions[FI];
    const FunctionAnalysis &FA = *Funcs[FI];
    std::set<std::uint16_t> Named;
    for (const auto &[Name, Reg] : F.NamedLocals)
      Named.insert(Reg);

    for (std::uint32_t LIdx = 0; LIdx < FA.LI.loops().size(); ++LIdx) {
      const Loop &L = FA.LI.loops()[LIdx];
      const InductionInfo &Scalars = FA.LoopScalars[LIdx];

      CandidateStl C;
      C.FuncIndex = FI;
      C.LoopIdx = LIdx;
      C.LoopId = static_cast<std::uint32_t>(Candidates.size());

      // Loops that return from the function or allocate heap memory (also
      // through calls) cannot be recompiled into speculative threads.
      for (std::uint32_t B : L.Blocks) {
        for (const ir::Instruction &I : F.Blocks[B].Instructions) {
          if (I.Op == ir::Opcode::Ret) {
            C.Rejected = true;
            C.Kind = RejectKind::ReturnsFromFunction;
            C.RejectReason = "loop body returns from the function";
          } else if (I.Op == ir::Opcode::Alloc) {
            C.Rejected = true;
            C.Kind = RejectKind::AllocatesHeap;
            C.RejectReason = "loop body allocates heap memory";
          } else if (I.Op == ir::Opcode::Call &&
                     (*Effects)[static_cast<std::uint32_t>(I.Imm)].Allocates) {
            C.Rejected = true;
            C.Kind = RejectKind::CallsAllocator;
            C.RejectReason = "loop body calls an allocating function";
          }
        }
      }

      for (std::uint16_t Reg : Scalars.OtherCarried) {
        if (isObviousSerializer(F, L, Reg)) {
          C.Rejected = true;
          C.Kind = RejectKind::SerialCarriedScalar;
          C.RejectReason = "carried scalar stored at end of body and loaded "
                           "at start of body";
        }
        // Only named locals receive annotations; carried compiler
        // temporaries cannot occur by construction but are tolerated.
        if (Named.count(Reg))
          C.AnnotatedLocals.push_back(Reg);
      }
      std::sort(C.AnnotatedLocals.begin(), C.AnnotatedLocals.end());

      // The static dependence pre-filter (flag-gated; off reproduces the
      // paper's optimistic policy exactly). A loop whose every iteration
      // reloads at the header a cell stored at the latch, with the whole
      // store-to-reload window inside the forwarding budget, can never
      // produce an arc the speedup model values above 1x — profiling it
      // would only pay Figure-6 overhead for a guaranteed "no".
      if ((Opts.StaticPrefilter || Opts.AffineOracle) && !C.Rejected) {
        const LoopMemDep &MD = FA.MemDep->loopDep(LIdx);
        if (MD.Serial.Found &&
            MD.Serial.WindowCycles <= Opts.SerialArcBudget) {
          C.Rejected = true;
          C.Kind = RejectKind::SerialMemoryRecurrence;
          C.RejectReason = "serial memory recurrence: header reloads a cell "
                           "stored at every latch within the forwarding "
                           "budget";
        }
      }

      // The affine oracle runs on every loop (its verdicts feed lint and
      // the conformance harness); only provably-serial verdicts reject.
      if (Opts.AffineOracle) {
        LoopOracleResult R =
            runStaticOracle(F, L, FA.DT, Scalars, FA.MemDep->aliases(),
                            *Effects, Opts.SerialArcBudget);
        if (R.Verdict == OracleVerdict::ProvablySerial && !C.Rejected) {
          C.Rejected = true;
          C.Kind = R.Test == DepTestKind::Ziv ? RejectKind::AffineSerialZiv
                                              : RejectKind::AffineSerialSiv;
          C.RejectReason = "affine serial recurrence: every iteration "
                           "reloads the previous iteration's store within "
                           "the forwarding budget";
        }
        OracleResults.push_back(std::move(R));
      }
      Candidates.push_back(std::move(C));
    }
  }
}

std::uint32_t ModuleAnalysis::loopCount() const {
  return static_cast<std::uint32_t>(Candidates.size());
}

std::uint32_t ModuleAnalysis::maxStaticLoopDepth() const {
  std::uint32_t Max = 0;
  for (const auto &FA : Funcs)
    Max = std::max(Max, FA->LI.maxDepth());
  return Max;
}
