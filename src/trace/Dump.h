//===- trace/Dump.h - The one human-readable event formatter ---------------==//
//
// Every tool that pretty-prints trace events (`jrpm-trace dump`,
// `jrpm-trace diff`) goes through formatEvent(), so the textual form of the
// event stream has exactly one implementation. printInfo() is the
// `jrpm-trace info` summary of a trace's header and footer.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_DUMP_H
#define JRPM_TRACE_DUMP_H

#include "trace/Reader.h"

#include <cstdio>
#include <string>

namespace jrpm {
namespace trace {

/// One line per event, cycle column first ("-" for cycle-less events).
std::string formatEvent(const Event &E);

/// Pretty-prints up to \p MaxEvents events from \p R to \p Out. Returns
/// the number of events printed. Throws Error on corruption.
std::uint64_t dumpTrace(Reader &R, std::FILE *Out, std::uint64_t MaxEvents);

/// Prints the header and footer of \p R (O(1): no event decoding).
void printInfo(Reader &R, std::FILE *Out);

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_DUMP_H
