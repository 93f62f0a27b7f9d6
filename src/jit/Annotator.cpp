//===- jit/Annotator.cpp --------------------------------------------------==//

#include "jit/Annotator.h"

#include "ir/RegUse.h"
#include "ir/Verifier.h"
#include "support/Compiler.h"

#include <algorithm>
#include <map>
#include <set>

using namespace jrpm;
using namespace jrpm::jit;

namespace {

/// Instruments the candidate loops of one function.
class FunctionAnnotator {
public:
  FunctionAnnotator(ir::Function &F, const analysis::ModuleAnalysis &MA,
                    std::uint32_t FuncIndex, AnnotationLevel Level,
                    AnnotatedModule &Out)
      : F(F), MA(MA), FuncIndex(FuncIndex), Level(Level), Out(Out) {}

  void run() {
    collectCandidates();
    if (Cands.empty())
      return;
    planWatchedRegs();
    insertLocalAnnotations();
    insertLoopMarkers();
  }

private:
  struct CandInfo {
    const analysis::CandidateStl *C;
    const analysis::Loop *L;
    bool Outermost; // no enclosing candidate loop in this function
  };

  void collectCandidates() {
    const analysis::FunctionAnalysis &FA = MA.func(FuncIndex);
    for (const analysis::CandidateStl &C : MA.candidates()) {
      if (C.FuncIndex != FuncIndex || C.Rejected)
        continue;
      CandInfo Info;
      Info.C = &C;
      Info.L = &FA.LI.loops()[C.LoopIdx];
      Info.Outermost = true;
      Cands.push_back(Info);
    }
    // A candidate is outermost when no other candidate loop in this
    // function strictly contains its header.
    for (CandInfo &A : Cands)
      for (const CandInfo &B : Cands)
        if (A.C != B.C && B.L->contains(A.L->Header) &&
            B.L->Header != A.L->Header)
          A.Outermost = false;
    // Outer loops are instrumented first so that markers on shared exit
    // edges chain inner-to-outer (inner eloop fires before outer eloop).
    std::sort(Cands.begin(), Cands.end(),
              [](const CandInfo &A, const CandInfo &B) {
                return A.L->Depth < B.L->Depth;
              });
  }

  /// For every block, the union of annotated locals of candidate loops
  /// containing it.
  void planWatchedRegs() {
    Watched.assign(F.numBlocks(), {});
    for (const CandInfo &Info : Cands)
      for (std::uint32_t B : Info.L->Blocks)
        for (std::uint16_t Reg : Info.C->AnnotatedLocals)
          Watched[B].insert(Reg);
  }

  void insertLocalAnnotations() {
    for (std::uint32_t B = 0; B < F.numBlocks(); ++B) {
      if (Watched[B].empty())
        continue;
      const std::set<std::uint16_t> &Regs = Watched[B];
      const std::vector<ir::Instruction> &Old = F.Blocks[B].Instructions;

      // Optimized mode annotates only the last definition of a register in
      // a block: intermediate timestamps can only be read by same-thread
      // loads, which never form inter-thread arcs, so dropping them is
      // lossless for the analysis.
      std::map<std::uint16_t, std::uint32_t> LastDef;
      if (Level == AnnotationLevel::Optimized)
        for (std::uint32_t Idx = 0; Idx < Old.size(); ++Idx) {
          std::uint16_t D = ir::definedReg(Old[Idx]);
          if (D != ir::NoReg && Regs.count(D))
            LastDef[D] = Idx;
        }

      std::vector<ir::Instruction> NewInstrs;
      std::set<std::uint16_t> LoadAnnotatedInBlock;
      for (std::uint32_t Idx = 0; Idx < Old.size(); ++Idx) {
        const ir::Instruction &I = Old[Idx];
        // lwl before the instruction for every watched register it reads;
        // optimized mode only annotates the first load in the block (the
        // shortest possible arc).
        std::set<std::uint16_t> Reads;
        ir::forEachUsedReg(I, [&](std::uint16_t R) {
          if (Regs.count(R))
            Reads.insert(R);
        });
        for (std::uint16_t R : Reads) {
          if (Level == AnnotationLevel::Optimized &&
              LoadAnnotatedInBlock.count(R))
            continue;
          LoadAnnotatedInBlock.insert(R);
          ir::Instruction Anno;
          Anno.Op = ir::Opcode::LwlAnno;
          Anno.A = R;
          NewInstrs.push_back(Anno);
          ++Out.LocalAnnotations;
        }
        NewInstrs.push_back(I);
        std::uint16_t D = ir::definedReg(I);
        if (D != ir::NoReg && Regs.count(D)) {
          bool Skip = Level == AnnotationLevel::Optimized &&
                      LastDef.count(D) && LastDef[D] != Idx;
          if (!Skip) {
            ir::Instruction Anno;
            Anno.Op = ir::Opcode::SwlAnno;
            Anno.A = D;
            NewInstrs.push_back(Anno);
            ++Out.LocalAnnotations;
          }
        }
      }
      F.Blocks[B].Instructions = std::move(NewInstrs);
    }
  }

  /// Retargets every branch in \p Block that points to \p From so it points
  /// to \p To.
  void retarget(std::uint32_t Block, std::uint32_t From, std::uint32_t To) {
    ir::Instruction &Term = F.Blocks[Block].Instructions.back();
    switch (Term.Op) {
    case ir::Opcode::Br:
      if (Term.Imm == From)
        Term.Imm = To;
      break;
    case ir::Opcode::CondBr:
      if (Term.Imm == From)
        Term.Imm = To;
      if (Term.Imm2 == static_cast<std::int32_t>(From))
        Term.Imm2 = static_cast<std::int32_t>(To);
      break;
    default:
      break;
    }
  }

  std::uint32_t appendBlock() {
    F.Blocks.emplace_back();
    return F.numBlocks() - 1;
  }

  void insertLoopMarkers() {
    for (const CandInfo &Info : Cands) {
      const analysis::Loop &L = *Info.L;
      std::uint32_t LoopId = Info.C->LoopId;
      // Predecessors must be recomputed for every loop: earlier loops may
      // have re-routed edges through freshly created marker blocks.
      auto Preds = F.computePredecessors();

      // Preheader with sloop: redirect non-backedge edges into the header.
      std::uint32_t Pre = appendBlock();
      {
        ir::Instruction SLoop;
        SLoop.Op = ir::Opcode::SLoop;
        SLoop.Imm = LoopId;
        SLoop.Imm2 =
            static_cast<std::int32_t>(Info.C->AnnotatedLocals.size());
        F.Blocks[Pre].Instructions.push_back(SLoop);
        ir::Instruction Br;
        Br.Op = ir::Opcode::Br;
        Br.Imm = L.Header;
        F.Blocks[Pre].Instructions.push_back(Br);
        ++Out.LoopMarkers;
      }
      for (std::uint32_t P : Preds[L.Header]) {
        if (L.contains(P))
          continue; // backedge
        retarget(P, L.Header, Pre);
      }

      // eloop (+ statistics read) blocks on every exiting edge. This must
      // happen before the eoi blocks are created: the backedge re-route
      // would otherwise make latch successors look like loop exits.
      bool EmitReadStats =
          Level == AnnotationLevel::Base || Info.Outermost;
      for (std::uint32_t B : L.Blocks) {
        std::vector<std::uint32_t> Succs;
        F.Blocks[B].appendSuccessors(Succs);
        for (std::uint32_t S : Succs) {
          if (L.contains(S))
            continue;
          ir::Instruction ELoop;
          ELoop.Op = ir::Opcode::ELoop;
          ELoop.Imm = LoopId;
          ir::Instruction Read;
          Read.Op = ir::Opcode::ReadStats;
          Read.Imm = LoopId;
          ++Out.LoopMarkers;
          if (EmitReadStats)
            ++Out.StatReads;
          // When the exit edge leaves an unconditional branch, the markers
          // go straight into the source block; only conditional exits need
          // a split block.
          if (F.Blocks[B].terminator().Op == ir::Opcode::Br) {
            auto &Instrs = F.Blocks[B].Instructions;
            auto At = Instrs.end() - 1;
            if (EmitReadStats)
              At = Instrs.insert(At, Read);
            Instrs.insert(At, ELoop);
            continue;
          }
          std::uint32_t ExitBlock = appendBlock();
          F.Blocks[ExitBlock].Instructions.push_back(ELoop);
          if (EmitReadStats)
            F.Blocks[ExitBlock].Instructions.push_back(Read);
          ir::Instruction Br;
          Br.Op = ir::Opcode::Br;
          Br.Imm = S;
          F.Blocks[ExitBlock].Instructions.push_back(Br);
          retarget(B, S, ExitBlock);
        }
      }

      // eoi on every backedge: inline into unconditional latches, a split
      // block on conditional ones (a do/while's latch also exits).
      for (std::uint32_t Latch : L.Latches) {
        ir::Instruction Eoi;
        Eoi.Op = ir::Opcode::Eoi;
        Eoi.Imm = LoopId;
        ++Out.LoopMarkers;
        if (F.Blocks[Latch].terminator().Op == ir::Opcode::Br) {
          auto &Instrs = F.Blocks[Latch].Instructions;
          Instrs.insert(Instrs.end() - 1, Eoi);
          continue;
        }
        std::uint32_t EoiBlock = appendBlock();
        F.Blocks[EoiBlock].Instructions.push_back(Eoi);
        ir::Instruction Br;
        Br.Op = ir::Opcode::Br;
        Br.Imm = L.Header;
        F.Blocks[EoiBlock].Instructions.push_back(Br);
        retarget(Latch, L.Header, EoiBlock);
      }
    }
  }

  ir::Function &F;
  const analysis::ModuleAnalysis &MA;
  std::uint32_t FuncIndex;
  AnnotationLevel Level;
  AnnotatedModule &Out;
  std::vector<CandInfo> Cands;
  std::vector<std::set<std::uint16_t>> Watched;
};

} // namespace

AnnotatedModule jit::annotateModule(const ir::Module &M,
                                    const analysis::ModuleAnalysis &MA,
                                    AnnotationLevel Level) {
  AnnotatedModule Out;
  Out.Module = M; // deep copy
  Out.LoopInfos.reserve(MA.candidates().size());
  for (const analysis::CandidateStl &C : MA.candidates())
    Out.LoopInfos.push_back({C.AnnotatedLocals});

  for (std::uint32_t FI = 0; FI < Out.Module.Functions.size(); ++FI) {
    FunctionAnnotator FA(Out.Module.Functions[FI], MA, FI, Level, Out);
    FA.run();
  }

  Out.Module.finalize();
  std::vector<std::string> Errors = ir::verifyModule(Out.Module);
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "annotator verifier: %s\n", E.c_str());
    JRPM_FATAL("annotated module failed verification");
  }
  return Out;
}
