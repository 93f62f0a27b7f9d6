//===- interp/EventBlock.h - perfbench compatibility shim ------------------==//
//
// Shim for perfbench/Workloads.cpp only, which still names EventBlock,
// TraceEngine::eventBlock(), trace::dispatchEventBatched and
// interp::drainPending. Events reach a sink only through its per-event
// methods, so all four are inert. Delete them with runOraclesTraced.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_INTERP_EVENTBLOCK_H
#define JRPM_INTERP_EVENTBLOCK_H

#include "trace/Reader.h"

namespace jrpm {
namespace interp {
class EventBlock;
inline void drainPending(TraceSink &, EventBlock *) {}
} // namespace interp
namespace trace {
inline void dispatchEventBatched(const Event &E, interp::TraceSink &Sink,
                                 interp::EventBlock *) {
  dispatchEvent(E, Sink);
}
} // namespace trace
} // namespace jrpm

#endif // JRPM_INTERP_EVENTBLOCK_H
