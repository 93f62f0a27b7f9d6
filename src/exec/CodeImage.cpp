//===- exec/CodeImage.cpp -------------------------------------------------==//

#include "exec/CodeImage.h"

#include "support/Compiler.h"

#include <list>
#include <mutex>
#include <unordered_map>

using namespace jrpm;
using namespace jrpm::exec;

namespace {

constexpr std::uint64_t FnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t FnvPrime = 1099511628211ULL;

inline void hash(std::uint64_t &H, std::uint64_t V) {
  for (int Byte = 0; Byte < 8; ++Byte) {
    H ^= (V >> (Byte * 8)) & 0xFF;
    H *= FnvPrime;
  }
}

std::uint8_t annotationBit(ir::Opcode Op) {
  switch (Op) {
  case ir::Opcode::SLoop:
    return AnnoSLoop;
  case ir::Opcode::Eoi:
    return AnnoEoi;
  case ir::Opcode::ELoop:
    return AnnoELoop;
  case ir::Opcode::LwlAnno:
  case ir::Opcode::SwlAnno:
    return AnnoLocal;
  case ir::Opcode::ReadStats:
    return AnnoReadStats;
  default:
    return AnnoNone;
  }
}

TermClass classifyTerminator(ir::Opcode Op) {
  switch (Op) {
  case ir::Opcode::Br:
    return TermClass::Jump;
  case ir::Opcode::CondBr:
    return TermClass::CondJump;
  case ir::Opcode::Ret:
    return TermClass::Return;
  default:
    JRPM_UNREACHABLE("block terminator is not a terminator opcode");
  }
}

} // namespace

std::uint64_t exec::moduleDigest(const ir::Module &M) {
  std::uint64_t H = FnvOffset;
  hash(H, M.EntryFunction);
  hash(H, M.Functions.size());
  for (const ir::Function &F : M.Functions) {
    hash(H, F.NumParams);
    hash(H, F.NumRegs);
    hash(H, F.Blocks.size());
    for (const ir::BasicBlock &BB : F.Blocks) {
      hash(H, BB.Instructions.size());
      for (const ir::Instruction &I : BB.Instructions) {
        hash(H, static_cast<std::uint64_t>(I.Op));
        hash(H, (std::uint64_t(I.Dst) << 32) | (std::uint64_t(I.A) << 16) |
                    I.B);
        hash(H, static_cast<std::uint64_t>(I.Imm));
        hash(H, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                     I.Imm2))
                 << 32) |
                    static_cast<std::uint32_t>(I.Pc));
      }
    }
  }
  return H;
}

CodeImage::CodeImage(const ir::Module &M) {
  Digest = moduleDigest(M);

  // Pass 1: lay out blocks and functions, assigning flat start PCs in
  // function/block order (the same order Module::finalize() numbers the
  // tracer PCs in).
  std::uint64_t Pc = 0;
  Funcs.reserve(M.Functions.size());
  for (std::uint32_t FI = 0; FI < M.Functions.size(); ++FI) {
    const ir::Function &F = M.Functions[FI];
    FuncDesc FD;
    FD.EntryPc = static_cast<FlatPc>(Pc);
    FD.NumRegs = F.NumRegs;
    FD.NumParams = F.NumParams;
    FD.FirstBlock = static_cast<std::uint32_t>(Blocks.size());
    FD.NumBlocks = F.numBlocks();
    for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
      const ir::BasicBlock &BB = F.Blocks[BI];
      if (!BB.hasTerminator())
        JRPM_FATAL("CodeImage: block without terminator (unverified IR)");
      BlockDesc BD;
      BD.StartPc = static_cast<FlatPc>(Pc);
      BD.NumInsts = static_cast<std::uint32_t>(BB.Instructions.size());
      BD.Func = FI;
      BD.BlockInFunc = BI;
      BD.Term = classifyTerminator(BB.Instructions.back().Op);
      for (const ir::Instruction &I : BB.Instructions)
        BD.Annotations |= annotationBit(I.Op);
      Blocks.push_back(BD);
      Pc += BB.Instructions.size();
    }
    Funcs.push_back(FD);
  }
  if (Pc > 0x7FFFFFFF)
    JRPM_FATAL("CodeImage: module exceeds the 2^31 instruction limit");

  // Pass 2: decode, resolving branch targets to flat PCs.
  Insts.reserve(Pc);
  InstBlock.reserve(Pc);
  for (std::uint32_t FI = 0; FI < M.Functions.size(); ++FI) {
    const ir::Function &F = M.Functions[FI];
    const FuncDesc &FD = Funcs[FI];
    for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
      const ir::BasicBlock &BB = F.Blocks[BI];
      bool First = true;
      for (const ir::Instruction &I : BB.Instructions) {
        DecodedInst D;
        D.Op = I.Op;
        D.Flags = First ? DecodedInst::BlockStartFlag : 0;
        D.Dst = I.Dst;
        D.A = I.A;
        D.B = I.B;
        D.Imm = I.Imm;
        D.Imm2 = I.Imm2;
        D.Pc = I.Pc;
        switch (I.Op) {
        case ir::Opcode::Br:
          D.Imm = Blocks[FD.FirstBlock + static_cast<std::uint32_t>(I.Imm)]
                      .StartPc;
          break;
        case ir::Opcode::CondBr:
          D.Imm = Blocks[FD.FirstBlock + static_cast<std::uint32_t>(I.Imm)]
                      .StartPc;
          D.Imm2 = static_cast<std::int32_t>(
              Blocks[FD.FirstBlock + static_cast<std::uint32_t>(I.Imm2)]
                  .StartPc);
          break;
        default:
          break;
        }
        Insts.push_back(D);
        InstBlock.push_back(FD.FirstBlock + BI);
        First = false;
      }
    }
  }
}

namespace {

/// LRU-bounded digest-memo cache. Entries carry their position in the
/// recency list; a hit splices the key to the front, an insert beyond
/// capacity drops the back. Evicting only unlinks the cache's reference —
/// consumers holding the shared_ptr keep their image alive.
struct ImageCache {
  struct Entry {
    std::shared_ptr<const CodeImage> Image;
    std::list<std::uint64_t>::iterator LruPos;
  };

  std::mutex Mu;
  std::unordered_map<std::uint64_t, Entry> Map;
  std::list<std::uint64_t> Lru; ///< front = most recently used
  ImageCacheStats Stats;

  void evictOverCapacity() {
    while (Map.size() > CodeImage::CacheCapacity) {
      Map.erase(Lru.back());
      Lru.pop_back();
      ++Stats.Evictions;
    }
  }
};

ImageCache &cache() {
  static ImageCache C; // leaked-by-design process-lifetime cache
  return C;
}

} // namespace

std::shared_ptr<const CodeImage> CodeImage::getShared(const ir::Module &M) {
  std::uint64_t Key = moduleDigest(M);
  ImageCache &C = cache();
  {
    std::lock_guard<std::mutex> Lock(C.Mu);
    auto It = C.Map.find(Key);
    if (It != C.Map.end()) {
      ++C.Stats.Hits;
      C.Lru.splice(C.Lru.begin(), C.Lru, It->second.LruPos);
      return It->second.Image;
    }
  }
  // Build outside the lock: sweep jobs compile distinct workloads
  // concurrently, and a racing duplicate build of the same module is
  // harmless (last insert wins; both images are identical).
  auto Image = std::make_shared<const CodeImage>(M);
  std::lock_guard<std::mutex> Lock(C.Mu);
  ++C.Stats.Misses;
  auto It = C.Map.find(Key);
  if (It != C.Map.end()) {
    // Lost the build race; keep the incumbent and refresh its recency.
    C.Lru.splice(C.Lru.begin(), C.Lru, It->second.LruPos);
    return It->second.Image;
  }
  C.Lru.push_front(Key);
  C.Map[Key] = ImageCache::Entry{Image, C.Lru.begin()};
  C.evictOverCapacity();
  return Image;
}

ImageCacheStats CodeImage::cacheStats() {
  ImageCache &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  ImageCacheStats S = C.Stats;
  S.Entries = C.Map.size();
  return S;
}

void CodeImage::clearCache() {
  ImageCache &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  C.Map.clear();
  C.Lru.clear();
  C.Stats = ImageCacheStats();
}
