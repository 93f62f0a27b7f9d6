//===- ir/AnnotationVerifier.cpp ------------------------------------------==//

#include "ir/AnnotationVerifier.h"

#include "support/Format.h"

#include <algorithm>

using namespace jrpm;
using namespace jrpm::ir;

namespace {

using LoopStack = std::vector<std::uint32_t>;

class AnnotationVerifierImpl {
public:
  AnnotationVerifierImpl(const Module &M,
                         const std::vector<LoopAnnotationInfo> &Loops)
      : M(M), Loops(Loops), SLoopIn(Loops.size(), 0), SwlIn(Loops.size()) {
    for (std::size_t Id = 0; Id < Loops.size(); ++Id)
      SwlIn[Id].assign(Loops[Id].AnnotatedLocals.size(), 0);
  }

  std::vector<std::string> run() {
    for (std::uint32_t F = 0; F < M.Functions.size(); ++F)
      verifyFunction(F);
    return std::move(Errors);
  }

private:
  void report(std::string Message) { Errors.push_back(std::move(Message)); }

  bool validLoopId(std::int64_t Id) const {
    return Id >= 0 && Id < static_cast<std::int64_t>(Loops.size());
  }

  bool watched(const LoopStack &Stack, std::uint16_t Reg) const {
    for (std::uint32_t Id : Stack) {
      const auto &Regs = Loops[Id].AnnotatedLocals;
      if (std::find(Regs.begin(), Regs.end(), Reg) != Regs.end())
        return true;
    }
    return false;
  }

  /// Walks block \p B from the active-loop stack \p Stack, reporting
  /// violations and leaving the stack at the block's end in \p Stack.
  /// Returns false after an unrecoverable mismatch.
  bool walkBlock(const Function &F, std::uint32_t FIdx, std::uint32_t B,
                 LoopStack &Stack) {
    for (const Instruction &I : F.Blocks[B].Instructions) {
      switch (I.Op) {
      case Opcode::SLoop:
        if (!validLoopId(I.Imm)) {
          report(formatString("func %u bb%u: sloop with unknown loop id %lld",
                              FIdx, B, static_cast<long long>(I.Imm)));
          return false;
        }
        if (std::find(Stack.begin(), Stack.end(),
                      static_cast<std::uint32_t>(I.Imm)) != Stack.end()) {
          report(formatString("func %u bb%u: sloop %lld while loop %lld is "
                              "already active",
                              FIdx, B, static_cast<long long>(I.Imm),
                              static_cast<long long>(I.Imm)));
          return false;
        }
        if (I.Imm2 != static_cast<std::int32_t>(
                          Loops[static_cast<std::size_t>(I.Imm)]
                              .AnnotatedLocals.size()))
          report(formatString(
              "func %u bb%u: sloop %lld declares %d locals, trace info has %u",
              FIdx, B, static_cast<long long>(I.Imm), I.Imm2,
              static_cast<std::uint32_t>(
                  Loops[static_cast<std::size_t>(I.Imm)]
                      .AnnotatedLocals.size())));
        Stack.push_back(static_cast<std::uint32_t>(I.Imm));
        SLoopIn[static_cast<std::size_t>(I.Imm)] = FIdx + 1;
        break;
      case Opcode::Eoi:
        if (Stack.empty() ||
            Stack.back() != static_cast<std::uint32_t>(I.Imm)) {
          report(formatString(
              "func %u bb%u: eoi %lld does not match innermost active loop",
              FIdx, B, static_cast<long long>(I.Imm)));
          return false;
        }
        break;
      case Opcode::ELoop:
        if (Stack.empty() ||
            Stack.back() != static_cast<std::uint32_t>(I.Imm)) {
          report(formatString(
              "func %u bb%u: eloop %lld does not match innermost active loop",
              FIdx, B, static_cast<long long>(I.Imm)));
          return false;
        }
        Stack.pop_back();
        break;
      case Opcode::ReadStats:
        // Fires after its eloop, outside the loop: only the id must exist.
        if (!validLoopId(I.Imm))
          report(formatString(
              "func %u bb%u: readstats with unknown loop id %lld", FIdx, B,
              static_cast<long long>(I.Imm)));
        break;
      case Opcode::LwlAnno:
      case Opcode::SwlAnno: {
        const char *Name = I.Op == Opcode::LwlAnno ? "lwl" : "swl";
        if (!watched(Stack, I.A)) {
          report(formatString(
              "func %u bb%u: %s r%u outside any loop watching that local",
              FIdx, B, Name, I.A));
        } else if (I.Op == Opcode::SwlAnno) {
          for (std::uint32_t Id : Stack) {
            const auto &Regs = Loops[Id].AnnotatedLocals;
            for (std::size_t K = 0; K < Regs.size(); ++K)
              if (Regs[K] == I.A)
                SwlIn[Id][K] = FIdx + 1;
          }
        }
        break;
      }
      case Opcode::Ret:
        if (!Stack.empty()) {
          report(formatString(
              "func %u bb%u: return while loop %u is still active (missing "
              "eloop)",
              FIdx, B, Stack.back()));
          return false;
        }
        break;
      default:
        break;
      }
    }
    return true;
  }

  void verifyFunction(std::uint32_t FIdx) {
    const Function &F = M.Functions[FIdx];
    if (F.Blocks.empty() || !F.Blocks[0].hasTerminator())
      return; // structurally broken; the structural verifier reports it

    // Forward dataflow of the active-loop stack in reverse post-order, so
    // a block's entry stack is set by a predecessor before it is walked.
    // Every join must agree: two paths reaching one block with different
    // stacks means some path skips an eoi/eloop and the tracer's bank
    // bookkeeping diverges.
    std::uint32_t N = F.numBlocks();
    std::vector<LoopStack> AtEntry(N);
    std::vector<bool> Reached(N, false);
    Reached[0] = true;
    LoopStack Stack;
    std::vector<std::uint32_t> Succs;
    for (std::uint32_t B : F.reversePostOrder()) {
      Stack = AtEntry[B];
      if (!walkBlock(F, FIdx, B, Stack))
        return; // unrecoverable: later checks would cascade
      Succs.clear();
      F.Blocks[B].appendSuccessors(Succs);
      for (std::uint32_t S : Succs) {
        if (S >= N)
          continue; // the structural verifier reports bad targets
        if (!Reached[S]) {
          Reached[S] = true;
          AtEntry[S] = Stack;
        } else if (AtEntry[S] != Stack) {
          report(formatString(
              "func %u bb%u: inconsistent loop nesting at join (from bb%u)",
              FIdx, S, B));
          return;
        }
      }
    }

    // Coverage: every local the trace info promises to watch must produce
    // at least one swl inside the loop (each carried local is defined in
    // the loop, and even optimized annotation keeps the last definition).
    for (std::uint32_t Id = 0; Id < Loops.size(); ++Id) {
      if (SLoopIn[Id] != FIdx + 1)
        continue;
      const auto &Regs = Loops[Id].AnnotatedLocals;
      for (std::size_t K = 0; K < Regs.size(); ++K)
        if (SwlIn[Id][K] != FIdx + 1)
          report(formatString(
              "func %u: loop %u watches r%u but no swl annotates it", FIdx,
              Id, Regs[K]));
    }
  }

  const Module &M;
  const std::vector<LoopAnnotationInfo> &Loops;
  std::vector<std::string> Errors;
  // Marks are 1 + the index of the function whose walk set them (0 =
  // never), so the state a walk leaves, however it ended, means nothing to
  // any other function and needs no reset.
  /// Per loop id: the last function whose walk met its sloop marker.
  std::vector<std::uint32_t> SLoopIn;
  /// Per loop id, parallel to its AnnotatedLocals: the last function in
  /// which an swl inside the loop covered that local.
  std::vector<std::vector<std::uint32_t>> SwlIn;
};

} // namespace

std::vector<std::string>
ir::verifyAnnotations(const Module &M,
                      const std::vector<LoopAnnotationInfo> &Loops) {
  return AnnotationVerifierImpl(M, Loops).run();
}
