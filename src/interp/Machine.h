//===- interp/Machine.h - Sequential whole-program simulator ---------------==//
//
// Runs a module to completion on one Hydra core: one instruction per cycle
// plus L1 miss latency, with optional profiling (TraceSink) and optional
// speculative dispatch of selected STLs (LoopDispatcher, implemented by the
// Hydra TLS engine). The run is one loop: offer a block start flagged in
// the dispatcher's stop map to the dispatcher, otherwise ExecContext::run()
// to the next flagged block start, then test the cycle watchdog.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_INTERP_MACHINE_H
#define JRPM_INTERP_MACHINE_H

#include "interp/ExecContext.h"
#include "interp/Heap.h"
#include "interp/MemoryPort.h"
#include "interp/TraceSink.h"
#include "sim/CacheModel.h"
#include "sim/Config.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace metrics {
class Registry;
class Timeline;
} // namespace metrics

namespace interp {

class Machine;

/// Hook invoked when sequential execution reaches a block start the
/// dispatcher flagged; the Hydra engine uses it to take over selected loop
/// headers.
class LoopDispatcher {
public:
  virtual ~LoopDispatcher() = default;

  /// Binds the dispatcher to \p M; Machine::run calls it once, before any
  /// onBlockStart(). Returns one entry per flat PC of \p M's image as it
  /// is now: nonzero at the block starts onBlockStart() wants to see. The
  /// map must not change during the run.
  virtual const std::vector<std::uint32_t> &stopMap(Machine &M) = 0;

  /// Returns true if the dispatcher executed the loop speculatively: the
  /// context is then positioned at the loop exit and the consumed cycles
  /// were added via Machine::addCycles().
  virtual bool onBlockStart(ExecContext &Ctx, Machine &M) = 0;
};

/// Result of a whole-program run.
struct RunResult {
  std::uint64_t Cycles = 0;
  std::uint64_t Instructions = 0;
  std::uint64_t ReturnValue = 0;
  std::uint64_t Loads = 0;
  std::uint64_t Stores = 0;
  std::uint64_t L1Misses = 0;

  bool operator==(const RunResult &O) const = default;
};

class Machine {
public:
  Machine(const ir::Module &M, const sim::HydraConfig &Cfg)
      : M(M), Cfg(Cfg), Image(M), Ctx(Image, this->Cfg),
        Port(TheHeap, this->Cfg) {}

  void setTraceSink(TraceSink *S) { Sink = S; }
  void setDispatcher(LoopDispatcher *D) { Dispatcher = D; }

  /// Attaches the observability layer: at the end of run() the machine
  /// exports its run counters under "interp.<phase>." into \p Reg and, when
  /// \p TL is non-null, emits one whole-run span on \p TrackId. Costs
  /// nothing on the per-instruction path — everything is derived from the
  /// totals run() already accumulates.
  void setObservability(metrics::Registry *Reg, std::string Phase,
                        metrics::Timeline *TL = nullptr,
                        std::uint32_t TrackId = 0) {
    Metrics = Reg;
    MetricsPhase = std::move(Phase);
    Timeline = TL;
    TimelineTrack = TrackId;
  }

  /// Runs the entry function to completion.
  RunResult run(const std::vector<std::uint64_t> &Args = {});

  Heap &heap() { return TheHeap; }
  const ir::Module &module() const { return M; }
  /// The module's functions, then whatever install() appended.
  const exec::CodeImage &image() const { return Image; }
  /// Appends \p F to the image and returns its function index. No flat PC
  /// handed out before moves; the machine's context never enters \p F.
  std::uint32_t install(const ir::Function &F) {
    return Image.appendFunction(F);
  }
  const sim::HydraConfig &config() const { return Cfg; }
  std::uint64_t clock() const { return Clock; }
  void addCycles(std::uint64_t C) { Clock += C; }

private:
  const ir::Module &M;
  /// Held by value: callers routinely pass temporaries, and the contexts
  /// below keep references into this copy for the machine's lifetime.
  sim::HydraConfig Cfg;
  Heap TheHeap;
  /// The one image of M, which a dispatcher installs its code into.
  /// Declared before Ctx, which runs on it.
  exec::CodeImage Image;
  ExecContext Ctx;
  DirectMemoryPort Port;
  TraceSink *Sink = nullptr;
  LoopDispatcher *Dispatcher = nullptr;
  metrics::Registry *Metrics = nullptr;
  metrics::Timeline *Timeline = nullptr;
  std::uint32_t TimelineTrack = 0;
  std::string MetricsPhase;
  std::uint64_t Clock = 0;
};

} // namespace interp
} // namespace jrpm

#endif // JRPM_INTERP_MACHINE_H
