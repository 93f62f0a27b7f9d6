//===- exec/CodeImage.h - Flattened, pre-decoded execution image -----------==//
//
// The nested ir::Module layout (Functions -> Blocks -> Instructions over
// std::vector) is ideal for the analysis and transformation passes but
// costs the interpreters a three-level pointer chase per simulated
// instruction. A CodeImage is compiled once per module: every function's
// blocks are flattened into one contiguous DecodedInst array addressed by
// an absolute flat program counter, branch and call targets are resolved
// to flat PCs at build time, and per-block / per-function metadata moves
// into dense side tables consulted only at control-flow boundaries. The
// hot loop of ExecContext is then a single indexed load plus an indirect
// jump on the opcode tag.
//
// Flattening is purely a layout change: instruction order, operand fields
// and the tracer's module-global Pc values are preserved exactly, so every
// consumer (sequential machine, Hydra TLS cores, tracer event emission)
// behaves bit-identically to the nested layout.
//
// Images are immutable once built. getShared() memoizes them by a content
// digest of the source module, so sweep jobs that rebuild the same
// workload at the same annotation level share one image across threads.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_EXEC_CODEIMAGE_H
#define JRPM_EXEC_CODEIMAGE_H

#include "ir/IR.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace jrpm {
namespace metrics {
class Registry;
} // namespace metrics
} // namespace jrpm

namespace jrpm {
namespace exec {

/// Absolute instruction index into a CodeImage. For a finalized module the
/// flat PC of an instruction equals its ir::Instruction::Pc (both number
/// instructions in function/block order), but the image does not rely on
/// the module having been finalized.
using FlatPc = std::uint32_t;

/// How a basic block transfers control (per-block metadata; the decoded
/// terminator itself carries the resolved targets).
enum class TermClass : std::uint8_t { Jump, CondJump, Return };

/// Bitmask of annotation opcodes present in a block (per-block metadata
/// for consumers that want to skip annotation-free regions cheaply).
enum AnnoMask : std::uint8_t {
  AnnoNone = 0,
  AnnoSLoop = 1 << 0,
  AnnoEoi = 1 << 1,
  AnnoELoop = 1 << 2,
  AnnoLocal = 1 << 3,
  AnnoReadStats = 1 << 4,
};

/// One pre-decoded instruction. Field meaning matches ir::Instruction
/// except that control-flow targets are resolved to flat PCs:
///   Br:     Imm  = target flat PC
///   CondBr: Imm  = taken flat PC, Imm2 = fall-through flat PC
///   Call:   Imm  = callee function index (entry PC via FuncDesc)
/// Everything else keeps its original operands. Pc is the module-global
/// tracer PC copied verbatim so event emission is unchanged.
struct DecodedInst {
  ir::Opcode Op = ir::Opcode::Nop;
  std::uint8_t Flags = 0;
  std::uint16_t Dst = ir::NoReg;
  std::uint16_t A = ir::NoReg;
  std::uint16_t B = ir::NoReg;
  std::int64_t Imm = 0;
  std::int32_t Imm2 = 0;
  std::int32_t Pc = -1;

  static constexpr std::uint8_t BlockStartFlag = 1;
  bool isBlockStart() const { return Flags & BlockStartFlag; }
};
static_assert(sizeof(DecodedInst) == 24, "hot struct stays 24 bytes");

/// Per-block metadata (cold; consulted at control-flow boundaries only).
struct BlockDesc {
  FlatPc StartPc = 0;
  std::uint32_t NumInsts = 0;
  std::uint32_t Func = 0;
  std::uint32_t BlockInFunc = 0;
  TermClass Term = TermClass::Return;
  std::uint8_t Annotations = AnnoNone;
};

/// Per-function metadata: entry PC plus the frame geometry the Call path
/// needs, in one compact record instead of the full ir::Function.
struct FuncDesc {
  FlatPc EntryPc = 0;
  std::uint32_t NumRegs = 0;
  std::uint32_t NumParams = 0;
  std::uint32_t FirstBlock = 0; ///< global block ordinal of block 0
  std::uint32_t NumBlocks = 0;
};

/// Image-cache counters (diagnostics for benches and the serve daemon's
/// stats endpoint; not exported as run metrics to keep the golden exports
/// stable).
struct ImageCacheStats {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Evictions = 0;
  std::uint64_t Entries = 0;  ///< images currently resident
  std::uint64_t Capacity = 0; ///< LRU bound
};

class CodeImage {
public:
  CodeImage() = default;

  /// Compiles \p M into a flat image. Every block must carry a terminator
  /// (the IR verifier's contract); violations abort.
  explicit CodeImage(const ir::Module &M);

  // --- Hot-path access ----------------------------------------------------
  const DecodedInst *insts() const { return Insts.data(); }
  std::uint32_t numInsts() const {
    return static_cast<std::uint32_t>(Insts.size());
  }
  const DecodedInst &inst(FlatPc Pc) const {
    assert(Pc < Insts.size() && "flat PC out of range");
    return Insts[Pc];
  }
  bool isBlockStart(FlatPc Pc) const { return inst(Pc).isBlockStart(); }

  const FuncDesc &func(std::uint32_t F) const {
    assert(F < Funcs.size() && "function index out of range");
    return Funcs[F];
  }
  std::uint32_t numFuncs() const {
    return static_cast<std::uint32_t>(Funcs.size());
  }

  // --- Cold metadata (control-flow boundaries, diagnostics) ---------------
  const BlockDesc &blockDesc(std::uint32_t GlobalBlock) const {
    assert(GlobalBlock < Blocks.size() && "block ordinal out of range");
    return Blocks[GlobalBlock];
  }
  std::uint32_t numBlocks() const {
    return static_cast<std::uint32_t>(Blocks.size());
  }
  /// Global block ordinal containing \p Pc.
  std::uint32_t blockOrdinalOf(FlatPc Pc) const {
    assert(Pc < InstBlock.size() && "flat PC out of range");
    return InstBlock[Pc];
  }
  const BlockDesc &blockAt(FlatPc Pc) const {
    return Blocks[blockOrdinalOf(Pc)];
  }
  std::uint32_t funcOf(FlatPc Pc) const { return blockAt(Pc).Func; }
  std::uint32_t blockOf(FlatPc Pc) const { return blockAt(Pc).BlockInFunc; }

  /// Flat PC of the first instruction of \p Block in \p Func.
  FlatPc blockStart(std::uint32_t Func, std::uint32_t Block) const {
    const FuncDesc &F = func(Func);
    assert(Block < F.NumBlocks && "block index out of range");
    return Blocks[F.FirstBlock + Block].StartPc;
  }
  FlatPc entry(std::uint32_t Func) const { return func(Func).EntryPc; }

  /// Content digest of the source module this image was compiled from.
  std::uint64_t digest() const { return Digest; }

  // --- Shared image cache -------------------------------------------------
  /// Returns the memoized image for \p M, building it on first use. Keyed
  /// by moduleDigest(M); thread-safe (sweep jobs race on it by design).
  /// The cache is LRU-bounded (see setCacheCapacity): a long-lived process
  /// serving thousands of distinct modules evicts the coldest image
  /// instead of growing without limit. Evicted images stay alive for as
  /// long as a consumer still holds the shared_ptr.
  static std::shared_ptr<const CodeImage> getShared(const ir::Module &M);
  static ImageCacheStats cacheStats();
  /// Default LRU bound: generous for every sweep matrix we run (52
  /// workload x level combinations) while capping a daemon's residency.
  static constexpr std::size_t DefaultCacheCapacity = 256;
  /// Rebounds the LRU (minimum 1), evicting oldest entries immediately if
  /// the cache is over the new capacity. Returns the previous capacity.
  static std::size_t setCacheCapacity(std::size_t Capacity);
  /// Drops every memoized image and resets stats and capacity
  /// (test/bench isolation).
  static void clearCache();

private:
  std::vector<DecodedInst> Insts;
  std::vector<std::uint32_t> InstBlock; ///< global block ordinal per PC
  std::vector<BlockDesc> Blocks;
  std::vector<FuncDesc> Funcs;
  std::uint64_t Digest = 0;
};

/// FNV-1a content digest over everything execution depends on: function
/// geometry, block sizes and every instruction field (including the tracer
/// Pc). Structurally identical modules — e.g. the same workload annotated
/// at the same level by two sweep jobs — digest equal and share an image.
std::uint64_t moduleDigest(const ir::Module &M);

/// Snapshots the shared image cache's counters into \p R as gauges
/// ("exec.image_cache.hits" / ".misses" / ".evictions" / ".entries" /
/// ".capacity") — the daemon-hygiene view of the cache. Gauges, not
/// counters: the snapshot is cumulative process state, not a per-run
/// delta, and gauge merge (max) keeps repeated snapshots monotone.
void exportImageCacheMetrics(metrics::Registry &R);

} // namespace exec
} // namespace jrpm

#endif // JRPM_EXEC_CODEIMAGE_H
