//===- tests/annotation_verifier_test.cpp ----------------------------------==//
//
// The annotation lint layer: every module the annotator produces must pass
// verifyAnnotations (swept over the whole workload registry and fuzzed
// programs, at both annotation levels), and deliberately corrupted modules
// must be caught. Also covers the def-before-use and register-type checks
// added to ir::verifyModule.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "corpus/Generator.h"
#include "ir/AnnotationVerifier.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "jit/Annotator.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace jrpm;
using namespace jrpm::front;
using jrpm::testutil::makeMain;

namespace {

std::vector<ir::LoopAnnotationInfo>
annotationInfos(const analysis::ModuleAnalysis &MA) {
  std::vector<ir::LoopAnnotationInfo> Infos;
  for (const analysis::CandidateStl &C : MA.candidates())
    Infos.push_back({C.AnnotatedLocals});
  return Infos;
}

void expectCleanAtBothLevels(const ir::Module &M, const std::string &What) {
  analysis::ModuleAnalysis MA(M);
  std::vector<ir::LoopAnnotationInfo> Infos = annotationInfos(MA);
  for (jit::AnnotationLevel Level :
       {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized}) {
    jit::AnnotatedModule AM = jit::annotateModule(M, MA, Level);
    std::vector<std::string> Errors = ir::verifyAnnotations(AM.Module, Infos);
    EXPECT_TRUE(Errors.empty())
        << What << (Level == jit::AnnotationLevel::Base ? " (base): "
                                                        : " (optimized): ")
        << (Errors.empty() ? "" : Errors.front());
    // The instrumented module must also stay structurally valid.
    std::vector<std::string> Structural = ir::verifyModule(AM.Module);
    EXPECT_TRUE(Structural.empty())
        << What << ": " << (Structural.empty() ? "" : Structural.front());
  }
}

/// An annotated module of a simple two-level loop nest with a carried
/// (non-reduction) local, so lwl/swl annotations and watch lists exist.
struct AnnotatedFixture {
  ir::Module Plain;
  analysis::ModuleAnalysis MA;
  std::vector<ir::LoopAnnotationInfo> Infos;
  jit::AnnotatedModule AM;

  AnnotatedFixture()
      : Plain(makeMain(seq({
            assign("s", c(1)),
            forLoop("i", c(0), lt(v("i"), c(6)), 1,
                    forLoop("j", c(0), lt(v("j"), c(6)), 1,
                            assign("s", add(mul(v("s"), c(3)), v("j"))))),
            ret(v("s")),
        }))),
        MA(Plain), Infos(annotationInfos(MA)),
        AM(jit::annotateModule(Plain, MA, jit::AnnotationLevel::Base)) {}

  std::vector<std::string> verify() const {
    return ir::verifyAnnotations(AM.Module, Infos);
  }

  /// First instruction position with opcode \p Op.
  std::pair<std::uint32_t, std::uint32_t> find(ir::Opcode Op) {
    ir::Function &F = AM.Module.Functions[AM.Module.EntryFunction];
    for (std::uint32_t B = 0; B < F.numBlocks(); ++B)
      for (std::uint32_t I = 0; I < F.Blocks[B].Instructions.size(); ++I)
        if (F.Blocks[B].Instructions[I].Op == Op)
          return {B, I};
    ADD_FAILURE() << "opcode not present in annotated module";
    return {0, 0};
  }

  ir::Instruction &at(std::pair<std::uint32_t, std::uint32_t> Pos) {
    ir::Function &F = AM.Module.Functions[AM.Module.EntryFunction];
    return F.Blocks[Pos.first].Instructions[Pos.second];
  }
};

bool anyErrorContains(const std::vector<std::string> &Errors,
                      const std::string &Needle) {
  for (const std::string &E : Errors)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Positive sweep: registry + fuzzed programs
//===----------------------------------------------------------------------===//

TEST(AnnotationVerifier, AllRegistryWorkloadsLintClean) {
  for (const workloads::Workload &W : workloads::allWorkloads())
    expectCleanAtBothLevels(W.Build(), W.Name);
}

TEST(AnnotationVerifier, FuzzedProgramsLintClean) {
  for (std::uint64_t Seed = 1; Seed <= 20; ++Seed) {
    ir::Module M = corpus::ProgramGenerator(Seed).generate();
    expectCleanAtBothLevels(M, "fuzz seed " + std::to_string(Seed));
  }
}

TEST(AnnotationVerifier, FixtureIsCleanBeforeCorruption) {
  AnnotatedFixture Fx;
  ASSERT_FALSE(Fx.Infos.empty());
  // The inner accumulator is a genuinely carried local, so at least one
  // loop watches a register — the negative tests below rely on this.
  bool AnyWatched = false;
  for (const ir::LoopAnnotationInfo &I : Fx.Infos)
    AnyWatched |= !I.AnnotatedLocals.empty();
  ASSERT_TRUE(AnyWatched);
  EXPECT_TRUE(Fx.verify().empty());
}

//===----------------------------------------------------------------------===//
// Negative tests: deliberately corrupted modules
//===----------------------------------------------------------------------===//

TEST(AnnotationVerifier, CatchesRemovedELoop) {
  AnnotatedFixture Fx;
  auto Pos = Fx.find(ir::Opcode::ELoop);
  ir::Function &F = Fx.AM.Module.Functions[Fx.AM.Module.EntryFunction];
  auto &Instrs = F.Blocks[Pos.first].Instructions;
  Instrs.erase(Instrs.begin() + Pos.second);
  EXPECT_FALSE(Fx.verify().empty());
}

TEST(AnnotationVerifier, CatchesWrongLocalCount) {
  AnnotatedFixture Fx;
  Fx.at(Fx.find(ir::Opcode::SLoop)).Imm2 += 1;
  EXPECT_TRUE(anyErrorContains(Fx.verify(), "declares"));
}

TEST(AnnotationVerifier, CatchesUnknownLoopId) {
  AnnotatedFixture Fx;
  Fx.at(Fx.find(ir::Opcode::SLoop)).Imm = 1000;
  EXPECT_TRUE(anyErrorContains(Fx.verify(), "unknown loop id"));
}

TEST(AnnotationVerifier, CatchesMismatchedEoi) {
  AnnotatedFixture Fx;
  Fx.at(Fx.find(ir::Opcode::Eoi)).Imm += 1;
  EXPECT_TRUE(anyErrorContains(Fx.verify(), "eoi"));
}

TEST(AnnotationVerifier, CatchesDuplicateSLoop) {
  AnnotatedFixture Fx;
  auto Pos = Fx.find(ir::Opcode::SLoop);
  ir::Function &F = Fx.AM.Module.Functions[Fx.AM.Module.EntryFunction];
  auto &Instrs = F.Blocks[Pos.first].Instructions;
  Instrs.insert(Instrs.begin() + Pos.second, Instrs[Pos.second]);
  EXPECT_TRUE(anyErrorContains(Fx.verify(), "already active"));
}

TEST(AnnotationVerifier, CatchesStrayLocalAnnotation) {
  AnnotatedFixture Fx;
  // An swl in the entry block, before any sloop: no loop watches it.
  ir::Function &F = Fx.AM.Module.Functions[Fx.AM.Module.EntryFunction];
  ir::Instruction Anno{};
  Anno.Op = ir::Opcode::SwlAnno;
  Anno.A = 0;
  auto &Entry = F.Blocks[0].Instructions;
  Entry.insert(Entry.begin(), Anno);
  EXPECT_TRUE(anyErrorContains(Fx.verify(), "outside any loop"));
}

TEST(AnnotationVerifier, CatchesMissingSwlCoverage) {
  AnnotatedFixture Fx;
  // Strip every swl: each watched local loses its store annotation.
  ir::Function &F = Fx.AM.Module.Functions[Fx.AM.Module.EntryFunction];
  for (ir::BasicBlock &BB : F.Blocks) {
    auto &Instrs = BB.Instructions;
    for (auto It = Instrs.begin(); It != Instrs.end();)
      It = It->Op == ir::Opcode::SwlAnno ? Instrs.erase(It) : It + 1;
  }
  EXPECT_TRUE(anyErrorContains(Fx.verify(), "no swl annotates"));
}

TEST(AnnotationVerifier, ErrorsStayWithTheFunctionThatHasThem) {
  // Function 0 opens loop 0, which watches one local, then ends an
  // iteration of loop 1: an unrecoverable mismatch that stops its walk
  // before its coverage check. Function 1 has no annotations at all, so
  // nothing may be reported under its index.
  ir::Module M;
  ir::IRBuilder B(M);
  B.createFunction("broken", 0);
  ir::Instruction SLoop{};
  SLoop.Op = ir::Opcode::SLoop;
  SLoop.Imm = 0;
  SLoop.Imm2 = 1;
  B.emit(SLoop);
  ir::Instruction Eoi{};
  Eoi.Op = ir::Opcode::Eoi;
  Eoi.Imm = 1;
  B.emit(Eoi);
  B.emitRet();
  B.createFunction("clean", 0);
  B.emitRet();
  M.finalize();
  std::vector<ir::LoopAnnotationInfo> Loops = {{{5}}};
  std::vector<std::string> Errors = ir::verifyAnnotations(M, Loops);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0],
            "func 0 bb0: eoi 1 does not match innermost active loop");
}

//===----------------------------------------------------------------------===//
// verifyModule extensions: def-before-use and register types
//===----------------------------------------------------------------------===//

TEST(ModuleVerifier, CatchesReadBeforeDefinition) {
  ir::Module M;
  ir::IRBuilder B(M);
  B.createFunction("main", 0);
  std::uint16_t One = B.emitConstI(1);
  std::uint16_t Undef = B.newReg();
  std::uint16_t Sum = B.emitBinary(ir::Opcode::Add, One, Undef);
  B.emitRet(Sum);
  M.finalize();
  EXPECT_TRUE(anyErrorContains(ir::verifyModule(M),
                               "may be read before any definition"));
}

TEST(ModuleVerifier, AcceptsDefinitionOnEveryPath) {
  // A diamond defining the register on both arms is fine at the join.
  ir::Module M;
  ir::IRBuilder B(M);
  B.createFunction("main", 0);
  std::uint32_t Then = B.newBlock(), Else = B.newBlock(),
                Join = B.newBlock();
  std::uint16_t C = B.emitConstI(1);
  std::uint16_t X = B.newReg();
  B.emitCondBr(C, Then, Else);
  B.setBlock(Then);
  B.emitConstIInto(X, 2);
  B.emitBr(Join);
  B.setBlock(Else);
  B.emitConstIInto(X, 3);
  B.emitBr(Join);
  B.setBlock(Join);
  B.emitRet(X);
  M.finalize();
  EXPECT_TRUE(ir::verifyModule(M).empty());
}

TEST(ModuleVerifier, CatchesOneArmedDefinition) {
  // Only one arm defines the register: the join may read garbage.
  ir::Module M;
  ir::IRBuilder B(M);
  B.createFunction("main", 0);
  std::uint32_t Then = B.newBlock(), Join = B.newBlock();
  std::uint16_t C = B.emitConstI(1);
  std::uint16_t X = B.newReg();
  B.emitCondBr(C, Then, Join);
  B.setBlock(Then);
  B.emitConstIInto(X, 2);
  B.emitBr(Join);
  B.setBlock(Join);
  B.emitRet(X);
  M.finalize();
  EXPECT_TRUE(anyErrorContains(ir::verifyModule(M),
                               "may be read before any definition"));
}

TEST(ModuleVerifier, CatchesIntegerFedToFloatOp) {
  ir::Module M;
  ir::IRBuilder B(M);
  B.createFunction("main", 0);
  std::uint16_t I = B.emitConstI(3); // definitely an integer bit pattern
  std::uint16_t F = B.emitConstF(1.5);
  std::uint16_t R = B.emitBinary(ir::Opcode::FAdd, I, F);
  B.emitRet(R);
  M.finalize();
  EXPECT_TRUE(
      anyErrorContains(ir::verifyModule(M), "used as float operand"));
}

TEST(ModuleVerifier, CatchesFloatUsedAsAddress) {
  ir::Module M;
  ir::IRBuilder B(M);
  B.createFunction("main", 0);
  std::uint16_t F = B.emitConstF(2.5);
  std::uint16_t V = B.emitLoad(F, ir::NoReg, 0);
  B.emitRet(V);
  M.finalize();
  EXPECT_TRUE(
      anyErrorContains(ir::verifyModule(M), "used as address base"));
}

TEST(ModuleVerifier, LoweredWorkloadsPassExtendedChecks) {
  // lowerProgram fatals on verifier errors, so Build() succeeding means
  // the module passed; assert explicitly anyway for the error text.
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    ir::Module M = W.Build();
    std::vector<std::string> Errors = ir::verifyModule(M);
    EXPECT_TRUE(Errors.empty())
        << W.Name << ": " << (Errors.empty() ? "" : Errors.front());
  }
}
