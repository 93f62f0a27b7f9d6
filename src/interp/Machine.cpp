//===- interp/Machine.cpp -------------------------------------------------==//

#include "interp/Machine.h"

#include "metrics/Metrics.h"
#include "metrics/Timeline.h"
#include "support/Compiler.h"

using namespace jrpm;
using namespace jrpm::interp;

RunResult Machine::run(const std::vector<std::uint64_t> &Args) {
  const std::uint64_t StartClock = Clock;
  if (Timeline)
    Timeline->begin(TimelineTrack, "run." + MetricsPhase, StartClock);
  Ctx.start(M.EntryFunction, Args);
  // Watchdog against runaway programs: generous for our largest workloads.
  constexpr std::uint64_t MaxCycles = 40ull * 1000 * 1000 * 1000;
  if (!Dispatcher) {
    // Nothing to consult between blocks: stay inside the interpreter's
    // dispatch loop for the whole run. The context tests the watchdog at
    // block starts, exactly where the stepBlock() loop below would.
    Clock += Ctx.run(Port, Sink, Clock, MaxCycles);
    if (Clock > MaxCycles)
      JRPM_FATAL("simulation exceeded the cycle watchdog");
  }
  // Block-granular loop: start(), stepBlock(), and dispatcher repositioning
  // all leave the context at a block start, so the dispatcher check runs
  // once per block instead of once per instruction.
  while (!Ctx.finished()) {
    assert(Ctx.atBlockStart() && "run loop invariant");
    if (Dispatcher && Dispatcher->onBlockStart(Ctx, *this))
      continue;
    Clock += Ctx.stepBlock(Port, Sink, Clock);
    if (Clock > MaxCycles)
      JRPM_FATAL("simulation exceeded the cycle watchdog");
  }
  RunResult R;
  R.Cycles = Clock;
  R.Instructions = Ctx.instructionsExecuted();
  R.ReturnValue = Ctx.returnValue();
  R.Loads = Port.loads();
  R.Stores = Port.stores();
  R.L1Misses = Port.misses();
  if (Timeline)
    Timeline->end(TimelineTrack, Clock);
  if (Metrics) {
    // Exported once per run from the totals above, so the hot loop never
    // touches the registry.
    const std::string P = "interp." + MetricsPhase + ".";
    Metrics->counter(P + "cycles").inc(Clock - StartClock);
    Metrics->counter(P + "instructions").inc(R.Instructions);
    Metrics->counter(P + "loads").inc(R.Loads);
    Metrics->counter(P + "stores").inc(R.Stores);
    Metrics->counter(P + "l1_misses").inc(R.L1Misses);
  }
  return R;
}
