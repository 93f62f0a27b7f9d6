//===- tests/frontend_test.cpp - DSL lowering + interpreter semantics ------==//
//
// Each test lowers a small structured program and executes it, checking
// the returned value — covering the frontend and the interpreter together.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Generator.h"
#include "support/Fnv1a.h"

#include <gtest/gtest.h>

using namespace jrpm;
using namespace jrpm::front;
using jrpm::testutil::evalMain;
using jrpm::testutil::makeMain;

TEST(Frontend, ArithmeticTree) {
  EXPECT_EQ(evalMain(seq({ret(add(mul(c(6), c(7)), c(0)))})), 42u);
  EXPECT_EQ(evalMain(seq({ret(sub(c(100), add(c(30), c(12))))})), 58u);
}

TEST(Frontend, IntegerOps) {
  EXPECT_EQ(evalMain(seq({ret(sdiv(c(-7), c(2)))})),
            static_cast<std::uint64_t>(-3)); // C/Java truncation
  EXPECT_EQ(evalMain(seq({ret(srem(c(-7), c(2)))})),
            static_cast<std::uint64_t>(-1));
  EXPECT_EQ(evalMain(seq({ret(shl(c(3), c(4)))})), 48u);
  EXPECT_EQ(evalMain(seq({ret(shr(c(-16), c(2)))})),
            static_cast<std::uint64_t>(-4)); // arithmetic shift
  EXPECT_EQ(evalMain(seq({ret(bxor(c(0xF0), c(0xFF)))})), 0x0Fu);
}

TEST(Frontend, Comparisons) {
  EXPECT_EQ(evalMain(seq({ret(lt(c(-5), c(3)))})), 1u);
  EXPECT_EQ(evalMain(seq({ret(ge(c(3), c(3)))})), 1u);
  EXPECT_EQ(evalMain(seq({ret(lnot(eq(c(1), c(2))))})), 1u);
}

TEST(Frontend, FloatingPoint) {
  EXPECT_EQ(evalMain(seq({ret(ftoi(fadd(cf(1.5), cf(2.25))))})), 3u);
  EXPECT_EQ(evalMain(seq({ret(ftoi(fmul(cf(1.5), cf(4.0))))})), 6u);
  EXPECT_EQ(evalMain(seq({ret(ftoi(fsqrt(cf(81.0))))})), 9u);
  EXPECT_EQ(evalMain(seq({ret(ftoi(fneg(cf(-3.0))))})), 3u);
  EXPECT_EQ(evalMain(seq({ret(flt(cf(1.0), cf(2.0)))})), 1u);
  EXPECT_EQ(evalMain(seq({ret(ftoi(fdiv(itof(c(10)), cf(4.0))))})), 2u);
}

TEST(Frontend, IfElse) {
  EXPECT_EQ(evalMain(seq({
                assign("x", c(10)),
                iffElse(gt(v("x"), c(5)), assign("r", c(1)),
                        assign("r", c(2))),
                ret(v("r")),
            })),
            1u);
  EXPECT_EQ(evalMain(seq({
                assign("x", c(3)),
                iff(gt(v("x"), c(5)), assign("x", c(0))),
                ret(v("x")),
            })),
            3u);
}

TEST(Frontend, ForLoopSumsRange) {
  EXPECT_EQ(evalMain(seq({
                assign("s", c(0)),
                forLoop("i", c(0), lt(v("i"), c(10)), 1,
                        assign("s", add(v("s"), v("i")))),
                ret(v("s")),
            })),
            45u);
}

TEST(Frontend, ForLoopNegativeStep) {
  EXPECT_EQ(evalMain(seq({
                assign("s", c(0)),
                forLoop("i", c(9), ge(v("i"), c(0)), -1,
                        assign("s", add(v("s"), v("i")))),
                ret(v("s")),
            })),
            45u);
}

TEST(Frontend, WhileAndDoWhile) {
  EXPECT_EQ(evalMain(seq({
                assign("n", c(100)),
                assign("steps", c(0)),
                whileLoop(gt(v("n"), c(1)),
                          seq({
                              assign("n", sdiv(v("n"), c(2))),
                              assign("steps", add(v("steps"), c(1))),
                          })),
                ret(v("steps")),
            })),
            6u);
  // A do/while body runs at least once even when the condition is false.
  EXPECT_EQ(evalMain(seq({
                assign("x", c(0)),
                doWhile(lt(v("x"), c(0)), assign("x", add(v("x"), c(1)))),
                ret(v("x")),
            })),
            1u);
}

TEST(Frontend, BreakAndContinue) {
  EXPECT_EQ(evalMain(seq({
                assign("s", c(0)),
                forLoop("i", c(0), lt(v("i"), c(100)), 1,
                        seq({
                            iff(eq(v("i"), c(5)), brk()),
                            assign("s", add(v("s"), v("i"))),
                        })),
                ret(v("s")),
            })),
            10u); // 0+1+2+3+4
  EXPECT_EQ(evalMain(seq({
                assign("s", c(0)),
                forLoop("i", c(0), lt(v("i"), c(10)), 1,
                        seq({
                            iff(eq(srem(v("i"), c(2)), c(0)), cont()),
                            assign("s", add(v("s"), v("i"))),
                        })),
                ret(v("s")),
            })),
            25u); // 1+3+5+7+9
}

TEST(Frontend, HeapLoadStore) {
  EXPECT_EQ(evalMain(seq({
                assign("a", allocWords(c(8))),
                store(v("a"), c(3), c(77)),
                store(v("a"), Ex(), 1, c(5)),
                ret(add(ld(v("a"), c(3)), ld(v("a"), Ex(), 1))),
            })),
            82u);
}

TEST(Frontend, CallsAndRecursionDepth) {
  ProgramDef P;
  FuncDef Fib;
  Fib.Name = "fib";
  Fib.Params = {"n"};
  Fib.Body = seq({
      iff(le(v("n"), c(1)), ret(v("n"))),
      ret(add(call("fib", {sub(v("n"), c(1))}),
              call("fib", {sub(v("n"), c(2))}))),
  });
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({ret(call("fib", {c(12)}))});
  P.Functions.push_back(std::move(Fib));
  P.Functions.push_back(std::move(Main));
  ir::Module M = front::lowerProgram(P);
  EXPECT_EQ(testutil::runModule(M).ReturnValue, 144u);
}

TEST(Frontend, NamedLocalsRecorded) {
  ir::Module M = makeMain(seq({
      assign("alpha", c(1)),
      assign("beta", add(v("alpha"), c(1))),
      ret(v("beta")),
  }));
  const auto &Named = M.Functions[M.EntryFunction].NamedLocals;
  bool HasAlpha = false, HasBeta = false;
  for (const auto &[Name, Reg] : Named) {
    HasAlpha |= Name == "alpha";
    HasBeta |= Name == "beta";
  }
  EXPECT_TRUE(HasAlpha);
  EXPECT_TRUE(HasBeta);
}

TEST(Frontend, InductorLowersToAddImm) {
  ir::Module M = makeMain(seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(4)), 1,
              assign("s", add(v("s"), v("i")))),
      ret(v("s")),
  }));
  // Some AddImm on identical src/dst registers must exist (the i++ step).
  bool FoundSelfAddImm = false;
  for (const auto &BB : M.Functions[0].Blocks)
    for (const auto &I : BB.Instructions)
      if (I.Op == ir::Opcode::AddImm && I.Dst == I.A && I.Imm == 1)
        FoundSelfAddImm = true;
  EXPECT_TRUE(FoundSelfAddImm);
}

TEST(Frontend, FallthroughReturnsZero) {
  EXPECT_EQ(evalMain(seq({assign("x", c(5))})), 0u);
}

TEST(Frontend, GeneratedProgramsLowerToPinnedBytes) {
  // FNV-1a of Module::dump() for generator seeds 1-50: every operator the
  // generator draws goes through lowering, so a changed opcode or register
  // order moves a digest.
  static constexpr std::uint64_t Digests[] = {
      0x659b9518edcccdd0ull, 0x88ca58806c0064c2ull, 0xca370cc5c1044014ull,
      0xada861f22beea9bdull, 0x107e2404a593994bull, 0x7167051bc7652c7bull,
      0x7a4eb1d08ed23af7ull, 0xd0fc9a127edca71eull, 0xed84ee879ab82576ull,
      0x6a2281138b92f36eull, 0xf68282de2249f29full, 0x4a22e6e1ad77191bull,
      0xf2e1a8211f45de8bull, 0xb77e5765b1d93c30ull, 0xfcee56c2aab2aa1full,
      0x61060ff99fa96083ull, 0xacc54d9a925a1c3cull, 0x2125b127aac3236dull,
      0x8307fbc02dc67abaull, 0x531fe7343c590386ull, 0xea57556797bfaaf2ull,
      0x1be3f2e56928b5a4ull, 0x342da68a61a70aeeull, 0xafcfc0a856aac0b2ull,
      0x799d6e7f4fdd2ca1ull, 0x8614fcbb1b2bfe14ull, 0xe54d7aa5c8b360f2ull,
      0xef63f027049926adull, 0x91987ec86c6a7644ull, 0x8a45b213c84dcf33ull,
      0x19eb03a54ad72a28ull, 0x4bd8d8fd4b826e07ull, 0x9395a434b6223219ull,
      0x9d78ce4483bf640aull, 0xa57241e4b717b4b7ull, 0xb9c7594d18a23596ull,
      0x467e2c2ba8e73417ull, 0xbc5796657dc090c3ull, 0xafa03d96b5c440d6ull,
      0x657119bf426cf3c8ull, 0x8dfda26e14f6c943ull, 0x15b78b83fbcc74c8ull,
      0xe80890a93b764405ull, 0x51a520da0c02f2f6ull, 0x115621369c7e9886ull,
      0x3cac0d842a8c44c6ull, 0x4375385a1a317473ull, 0xfa43124ac4f948dbull,
      0x216f8587a774af4eull, 0x5f14571447cc6af3ull,
  };
  for (std::uint64_t Seed = 1; Seed <= std::size(Digests); ++Seed)
    EXPECT_EQ(fnv1a(corpus::ProgramGenerator(Seed).generate().dump()),
              Digests[Seed - 1])
        << "seed " << Seed;
}
