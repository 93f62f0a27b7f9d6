//===- sim/Config.h - Hydra CMP and TEST hardware parameters ---------------==//
//
// All hardware constants from the paper in one place: Table 1 (speculation
// buffer limits), Table 2 (TLS overheads), Section 5.3 (TEST timestamp
// store-buffer partitioning) and Section 3.1 (cache geometry). Everything is
// a plain struct so benches can sweep parameters for ablations.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SIM_CONFIG_H
#define JRPM_SIM_CONFIG_H

#include <cstdint>

namespace jrpm {
namespace sim {

/// Violation detection granularity in the TLS hardware (ablation knob; the
/// default matches Hydra's per-word speculation write bits).
enum class ViolationGranularity { Word, Line };

/// Per-opcode latency model for the single-issue cores: most instructions
/// take one cycle; divides and square roots are multi-cycle.
struct CostModel {
  std::uint32_t Basic = 1;
  std::uint32_t IntDiv = 8;
  std::uint32_t FloatDiv = 10;
  std::uint32_t FloatSqrt = 12;
  std::uint32_t CallOverhead = 2;
};

struct HydraConfig {
  // --- CMP geometry (Section 3.1) ---------------------------------------
  std::uint32_t NumCores = 4;
  /// 32-byte cache lines over 8-byte words.
  std::uint32_t WordsPerLine = 4;
  /// L1 data cache: 16kB of 32B lines, 4-way (Table 1 load buffer).
  std::uint32_t L1Lines = 512;
  std::uint32_t L1Assoc = 4;
  /// Extra cycles for an L1 miss serviced by the on-chip L2.
  std::uint32_t L2HitExtraCycles = 4;

  // --- TLS buffers (Table 1) ---------------------------------------------
  /// Speculative load state limit: L1 lines that may carry read bits.
  std::uint32_t SpecLoadLines = 512;
  /// Store buffer: 2kB = 64 lines x 32B, fully associative.
  std::uint32_t SpecStoreLines = 64;

  // --- TLS overheads (Table 2) -------------------------------------------
  std::uint32_t LoopStartupCycles = 25;
  std::uint32_t LoopShutdownCycles = 25;
  std::uint32_t EndOfIterationCycles = 5;
  std::uint32_t ViolationRestartCycles = 5;
  std::uint32_t StoreLoadCommCycles = 10;

  ViolationGranularity ViolationGrain = ViolationGranularity::Word;

  /// Section 3.2: the speculative compiler can insert synchronization
  /// locks on globalized loop locals so a consuming thread spins until its
  /// predecessor produces the value instead of speculating through it and
  /// restarting on the inevitable violation.
  bool SyncCarriedLocals = false;

  // --- TEST tracer geometry (Sections 5.2 / 5.3) --------------------------
  /// Heap store timestamps: 6kB = 192 cache lines of write history, FIFO.
  std::uint32_t HeapTimestampFifoLines = 192;
  /// Cache-line timestamp table used by the overflow analysis: load state
  /// is indexed with 512 entries (Figure 4 bits 13:5), store state with 64
  /// entries (bits 10:5); both direct mapped.
  std::uint32_t LoadTimestampEntries = 512;
  std::uint32_t StoreTimestampEntries = 64;
  /// Associativity of the overflow-analysis timestamp tables. The paper's
  /// hardware is direct mapped "to keep logic additions simple", accepting
  /// some error; raising this is the ablation of that choice.
  std::uint32_t OverflowTableAssoc = 1;
  /// Local variable store timestamps: one 2kB buffer, 64 slots.
  std::uint32_t LocalVarSlots = 64;
  /// Number of comparator banks (Section 5.2 sizes the array at eight).
  std::uint32_t ComparatorBanks = 8;

  // --- Annotation instruction costs (Section 5.1, Figure 6) ---------------
  std::uint32_t SLoopCost = 2;
  std::uint32_t ELoopCost = 2;
  std::uint32_t EoiCost = 1;
  std::uint32_t LocalAnnoCost = 1;
  /// Reading the collected statistics out of a comparator bank at STL exit
  /// (the "Read Counters" component of Figure 6).
  std::uint32_t ReadStatsCost = 24;

  // --- Software-only profiling model (Section 5 claim of >100x) -----------
  /// Callback cost charged per memory/local access when profiling without
  /// the TEST hardware: the call itself plus software timestamp-table
  /// lookups and comparisons against every active loop's thread starts.
  std::uint32_t SoftwareProfilerCallbackCycles = 250;

  /// Instruction latency model shared by the sequential and TLS engines.
  CostModel Costs;
};

/// True when the cache geometry can be built: at least one word per line,
/// at least one way, and the L1 a non-zero whole number of sets. The L1
/// model, the TLS engine and the tracer's timestamp stores split addresses
/// by these numbers, so a config failing this must be rejected before an
/// engine is constructed.
inline bool hasValidCacheGeometry(const HydraConfig &Hw) {
  return Hw.WordsPerLine >= 1 && Hw.L1Assoc >= 1 &&
         Hw.L1Lines >= Hw.L1Assoc && Hw.L1Lines % Hw.L1Assoc == 0;
}

/// True when both overflow-analysis timestamp tables can be built: at
/// least one way, and each table a non-zero whole number of sets.
/// tracer::CacheLineTimestampTable divides by the associativity, so a
/// config failing this must be rejected before an engine is constructed.
inline bool hasValidOverflowTables(const HydraConfig &Hw) {
  auto Fits = [&](std::uint32_t Entries) {
    return Entries >= Hw.OverflowTableAssoc &&
           Entries % Hw.OverflowTableAssoc == 0;
  };
  return Hw.OverflowTableAssoc >= 1 && Fits(Hw.LoadTimestampEntries) &&
         Fits(Hw.StoreTimestampEntries);
}

} // namespace sim
} // namespace jrpm

#endif // JRPM_SIM_CONFIG_H
