//===- ir/IR.cpp ----------------------------------------------------------==//

#include "ir/IR.h"

#include <algorithm>
#include <charconv>

using namespace jrpm;
using namespace jrpm::ir;

void BasicBlock::appendSuccessors(std::vector<std::uint32_t> &Out) const {
  if (!hasTerminator())
    return;
  const Instruction &Term = terminator();
  switch (Term.Op) {
  case Opcode::Br:
    Out.push_back(static_cast<std::uint32_t>(Term.Imm));
    break;
  case Opcode::CondBr:
    Out.push_back(static_cast<std::uint32_t>(Term.Imm));
    Out.push_back(static_cast<std::uint32_t>(Term.Imm2));
    break;
  case Opcode::Ret:
    break;
  default:
    break;
  }
}

std::vector<std::vector<std::uint32_t>> Function::computePredecessors() const {
  std::vector<std::vector<std::uint32_t>> Preds(Blocks.size());
  std::vector<std::uint32_t> Succs;
  for (std::uint32_t B = 0; B < Blocks.size(); ++B) {
    Succs.clear();
    Blocks[B].appendSuccessors(Succs);
    for (std::uint32_t S : Succs)
      Preds[S].push_back(B);
  }
  return Preds;
}

std::vector<std::uint32_t> Function::reversePostOrder() const {
  std::uint32_t N = numBlocks();
  std::vector<std::uint32_t> Order;
  if (N == 0)
    return Order;
  std::vector<bool> Seen(N, false);
  // Each frame is a block and the index of its next successor to visit.
  std::vector<std::pair<std::uint32_t, std::size_t>> Stack{{0, 0}};
  std::vector<std::uint32_t> Succs;
  Seen[0] = true;
  while (!Stack.empty()) {
    auto &[B, Next] = Stack.back();
    Succs.clear();
    Blocks[B].appendSuccessors(Succs);
    if (Next == Succs.size()) {
      Order.push_back(B);
      Stack.pop_back();
      continue;
    }
    std::uint32_t S = Succs[Next++];
    if (S < N && !Seen[S]) {
      Seen[S] = true;
      Stack.push_back({S, 0});
    }
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

/// Appends \p Text and then \p V in decimal: printf's bytes, without a
/// format-string parse per operand.
template <typename T>
static void append(std::string &Out, const char *Text, T V) {
  char Buf[24];
  Out += Text;
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

static void appendOperand(std::string &Out, const char *Sep,
                          std::uint16_t Reg) {
  Out += Sep;
  if (Reg == NoReg)
    Out += '_';
  else
    append(Out, "r", Reg);
}

int Module::findFunction(const std::string &Name) const {
  for (std::uint32_t F = 0; F < Functions.size(); ++F)
    if (Functions[F].Name == Name)
      return static_cast<int>(F);
  return -1;
}

void Module::finalize() {
  NextPc = 0;
  for (Function &F : Functions)
    for (BasicBlock &BB : F.Blocks)
      for (Instruction &I : BB.Instructions)
        I.Pc = static_cast<std::int32_t>(NextPc++);
}

std::string Module::dump() const {
  std::string Out;
  for (const Function &F : Functions) {
    Out += "func ";
    Out += F.Name;
    append(Out, "(params=", F.NumParams);
    append(Out, ", regs=", F.NumRegs);
    Out += ")\n";
    for (std::uint32_t B = 0; B < F.Blocks.size(); ++B) {
      append(Out, "  bb", B);
      Out += ":\n";
      for (const Instruction &I : F.Blocks[B].Instructions) {
        Out += "    ";
        Out += opcodeName(I.Op);
        appendOperand(Out, " ", I.Dst);
        appendOperand(Out, ", ", I.A);
        appendOperand(Out, ", ", I.B);
        append(Out, ", imm=", I.Imm);
        append(Out, ", imm2=", I.Imm2);
        Out += '\n';
      }
    }
  }
  return Out;
}
