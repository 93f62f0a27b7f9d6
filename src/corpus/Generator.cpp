//===- corpus/Generator.cpp ------------------------------------------------==//
//
// The seed-to-module mapping is a compatibility contract (see the header)
// and must not drift.
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"

#include "frontend/Lower.h"

using namespace jrpm;
using namespace jrpm::corpus;

ir::Module ProgramGenerator::generate() {
  using namespace front;
  Locals = {"x0", "x1", "x2"};
  NextLocal = 3;
  NextLoopVar = 0;
  NumHelpers = static_cast<int>(Rng.nextBelow(3)); // 0..2 helpers

  std::vector<St> Body;
  // Arrays, power-of-two sized so masked indices are always in bounds.
  for (int A = 0; A < NumArrays; ++A) {
    std::string Name = arrayName(A);
    std::string IV = freshLoopVar();
    Body.push_back(assign(Name, allocWords(c(ArraySize))));
    Body.push_back(forLoop(
        IV, c(0), lt(v(IV), c(ArraySize)), 1,
        store(v(Name), v(IV),
              band(mul(add(v(IV), c(3)), c(2654435761LL)),
                   c(0xFFFFF)))));
  }
  for (const std::string &L : Locals)
    Body.push_back(assign(L, c(static_cast<std::int64_t>(Rng.nextBelow(100)))));

  int Stmts = 3 + static_cast<int>(Rng.nextBelow(4));
  std::uint64_t Budget = 3000;
  for (int S = 0; S < Stmts; ++S)
    Body.push_back(genStmt(/*Depth=*/0, Budget));

  // Order-sensitive checksum over arrays and locals.
  Body.push_back(assign("chk", c(1)));
  for (int A = 0; A < NumArrays; ++A) {
    std::string IV = freshLoopVar();
    Body.push_back(forLoop(
        IV, c(0), lt(v(IV), c(ArraySize)), 1,
        assign("chk", add(mul(v("chk"), c(31)),
                          band(ld(v(arrayName(A)), v(IV)),
                               c(0xFFFFFFFF))))));
  }
  for (const std::string &L : Locals)
    Body.push_back(
        assign("chk", add(mul(v("chk"), c(33)), band(v(L), c(0xFFFFFFFF)))));
  Body.push_back(ret(v("chk")));

  front::ProgramDef P;
  for (int H = 0; H < NumHelpers; ++H)
    P.Functions.push_back(makeHelper(H));
  front::FuncDef Main;
  Main.Name = "main";
  Main.Body = seq(std::move(Body));
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

front::FuncDef ProgramGenerator::makeHelper(int Index) {
  using namespace front;
  FuncDef F;
  F.Name = "helper" + std::to_string(Index);
  F.Params = {"p0", "p1"};
  std::int64_t Trip = 2 + static_cast<std::int64_t>(Rng.nextBelow(5));
  std::int64_t MulC = 3 + static_cast<std::int64_t>(Rng.nextBelow(60));
  F.Body = seq({
      assign("acc", bxor(v("p0"), c(static_cast<std::int64_t>(
                                      Rng.nextBelow(1000))))),
      forLoop("h", c(0), lt(v("h"), c(Trip)), 1,
              assign("acc", band(add(mul(v("acc"), c(MulC)), v("p1")),
                                 c(0xFFFFF)))),
      ret(v("acc")),
  });
  return F;
}

front::Ex ProgramGenerator::randLocal() {
  return front::v(Locals[Rng.nextBelow(Locals.size())]);
}

front::Ex ProgramGenerator::genExpr(int Depth,
                                    const std::vector<std::string> &LoopVars) {
  using namespace front;
  if (Depth >= 3 || Rng.nextBelow(100) < 30) {
    switch (Rng.nextBelow(3)) {
    case 0:
      return c(static_cast<std::int64_t>(Rng.nextBelow(200)) - 100);
    case 1:
      return randLocal();
    default:
      if (!LoopVars.empty())
        return v(LoopVars[Rng.nextBelow(LoopVars.size())]);
      return randLocal();
    }
  }
  switch (Rng.nextBelow(10)) {
  case 0:
    return add(genExpr(Depth + 1, LoopVars), genExpr(Depth + 1, LoopVars));
  case 1:
    return sub(genExpr(Depth + 1, LoopVars), genExpr(Depth + 1, LoopVars));
  case 2:
    return mul(band(genExpr(Depth + 1, LoopVars), c(0xFFFF)),
               band(genExpr(Depth + 1, LoopVars), c(0xFFFF)));
  case 3:
    return band(genExpr(Depth + 1, LoopVars), c(0x7FFFFFFF));
  case 4:
    return bxor(genExpr(Depth + 1, LoopVars), genExpr(Depth + 1, LoopVars));
  case 5: // division by a nonzero constant only
    return sdiv(genExpr(Depth + 1, LoopVars),
                c(1 + static_cast<std::int64_t>(Rng.nextBelow(9))));
  case 6:
    return srem(genExpr(Depth + 1, LoopVars),
                c(2 + static_cast<std::int64_t>(Rng.nextBelow(17))));
  case 7: // array load with a masked index
    return ld(v(arrayName(static_cast<int>(Rng.nextBelow(NumArrays)))),
              band(genExpr(Depth + 1, LoopVars), c(ArraySize - 1)));
  case 8:
    if (NumHelpers > 0)
      return call("helper" +
                      std::to_string(Rng.nextBelow(
                          static_cast<std::uint64_t>(NumHelpers))),
                  {genExpr(Depth + 1, LoopVars),
                   genExpr(Depth + 1, LoopVars)});
    return randLocal();
  default:
    return lt(genExpr(Depth + 1, LoopVars), genExpr(Depth + 1, LoopVars));
  }
}

front::St ProgramGenerator::genStmt(int Depth, std::uint64_t &Budget) {
  using namespace front;
  std::vector<std::string> LoopVars(ActiveLoopVars);
  std::uint64_t Kind = Rng.nextBelow(100);

  if (Kind < 35 && Depth < 3 && Budget >= 4) {
    // A counted loop.
    std::int64_t Trip = 2 + static_cast<std::int64_t>(Rng.nextBelow(10));
    Trip = std::min<std::int64_t>(Trip,
                                  static_cast<std::int64_t>(Budget / 2));
    std::uint64_t InnerBudget = Budget / static_cast<std::uint64_t>(Trip);
    Budget = InnerBudget; // consumed multiplicatively
    std::string IVar = freshLoopVar();
    ActiveLoopVars.push_back(IVar);
    int N = 1 + static_cast<int>(Rng.nextBelow(3));
    // Choose the loop shape up front: the do/while variant increments
    // its counter in the body, so it must not contain a break or
    // continue that could skip the increment.
    bool AsDoWhile = Rng.nextBelow(100) < 25;
    std::vector<St> Body;
    for (int S = 0; S < N; ++S)
      Body.push_back(genStmt(Depth + 1, InnerBudget));
    if (!AsDoWhile && Rng.nextBelow(100) < 20)
      Body.push_back(iff(eq(band(v(IVar), c(7)), c(6)),
                         Rng.nextBelow(2) ? brk() : cont()));
    ActiveLoopVars.pop_back();
    if (AsDoWhile) {
      // Counted do/while: the latch carries the condition, exercising
      // the annotator's conditional-backedge path.
      Body.push_back(assign(IVar, add(v(IVar), c(1))));
      return seq({assign(IVar, c(0)),
                  doWhile(lt(v(IVar), c(Trip)), seq(Body))});
    }
    return forLoop(IVar, c(0), lt(v(IVar), c(Trip)), 1, seq(Body));
  }
  if (Kind < 55) {
    // Conditional. The condition is generated first: it lowers before
    // the branches, so it must not reference locals first defined there.
    Ex Cond = genExpr(1, LoopVars);
    St Then = genStmt(Depth + 1, Budget);
    if (Rng.nextBelow(2))
      return iff(Cond, Then);
    St Else = genStmt(Depth + 1, Budget);
    return iffElse(Cond, Then, Else);
  }
  if (Kind < 75) {
    // Array store with masked index.
    return store(v(arrayName(static_cast<int>(Rng.nextBelow(NumArrays)))),
                 band(genExpr(1, LoopVars), c(ArraySize - 1)),
                 genExpr(1, LoopVars));
  }
  if (Kind < 90) {
    // Assignment to an existing local (possibly self-referential: a
    // carried chain or reduction when inside a loop).
    std::string Target = Locals[Rng.nextBelow(Locals.size())];
    if (Rng.nextBelow(2))
      return assign(Target, add(v(Target), genExpr(1, LoopVars)));
    return assign(Target, genExpr(0, LoopVars));
  }
  // Fresh local definition.
  std::string Name = "x" + std::to_string(NextLocal++);
  Locals.push_back(Name);
  return assign(Name, genExpr(0, LoopVars));
}
