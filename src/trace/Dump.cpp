//===- trace/Dump.cpp ------------------------------------------------------==//

#include "trace/Dump.h"

#include "support/Compiler.h"
#include "support/Format.h"

using namespace jrpm;
using namespace jrpm::trace;

std::string trace::formatEvent(const Event &E) {
  std::string Cycle =
      E.Kind == EventKind::Return
          ? formatString("%8s", "-")
          : formatString("%8llu", static_cast<unsigned long long>(E.Cycle));
  switch (E.Kind) {
  case EventKind::HeapLoad:
  case EventKind::HeapStore:
    return formatString("%s  %-5s addr=%u pc=%d", Cycle.c_str(),
                        eventKindName(E.Kind), E.Addr, E.Pc);
  case EventKind::LocalLoad:
  case EventKind::LocalStore:
    return formatString("%s  %-5s r%u act=%llu pc=%d", Cycle.c_str(),
                        eventKindName(E.Kind), E.Reg,
                        static_cast<unsigned long long>(E.Activation), E.Pc);
  case EventKind::LoopStart:
    return formatString("%s  %-5s #%u act=%llu", Cycle.c_str(),
                        eventKindName(E.Kind), E.LoopId,
                        static_cast<unsigned long long>(E.Activation));
  case EventKind::LoopIter:
  case EventKind::LoopEnd:
  case EventKind::ReadStats:
    return formatString("%s  %-5s #%u", Cycle.c_str(), eventKindName(E.Kind),
                        E.LoopId);
  case EventKind::Return:
    return formatString("%s  %-5s act=%llu", Cycle.c_str(),
                        eventKindName(E.Kind),
                        static_cast<unsigned long long>(E.Activation));
  case EventKind::CallSite:
    return formatString("%s  %-5s pc=%d", Cycle.c_str(),
                        eventKindName(E.Kind), E.Pc);
  case EventKind::CallReturn:
    return formatString("%s  %-5s", Cycle.c_str(), eventKindName(E.Kind));
  }
  JRPM_UNREACHABLE("bad EventKind");
}

std::uint64_t trace::dumpTrace(Reader &R, std::FILE *Out,
                               std::uint64_t MaxEvents) {
  Event E;
  std::uint64_t N = 0;
  while (N < MaxEvents && R.next(E)) {
    std::string Line = formatEvent(E);
    std::fprintf(Out, "%s\n", Line.c_str());
    ++N;
  }
  return N;
}

void trace::printInfo(Reader &R, std::FILE *Out) {
  const TraceHeader &H = R.header();
  const TraceFooter &F = R.footer();
  auto Count = [](std::uint64_t N) {
    return withCommas(static_cast<std::int64_t>(N));
  };
  std::fprintf(Out, "trace        : %s\n", R.path().c_str());
  std::fprintf(Out, "workload     : %s\n",
               H.WorkloadName.empty() ? "(unnamed)" : H.WorkloadName.c_str());
  std::fprintf(Out, "annotations  : %s\n",
               H.AnnotationLevel == 0 ? "base" : "optimized");
  std::fprintf(Out, "pc binning   : %s\n",
               H.ExtendedPcBinning ? "extended" : "off");
  std::fprintf(Out, "loops        : %zu\n", H.LoopLocals.size());
  std::fprintf(Out, "hw           : %u banks, %u history lines, %s grain%s\n",
               H.Hw.ComparatorBanks, H.Hw.HeapTimestampFifoLines,
               H.Hw.ViolationGrain == sim::ViolationGranularity::Word
                   ? "word"
                   : "line",
               H.Hw.SyncCarriedLocals ? ", synced locals" : "");
  std::fprintf(Out, "events       : %s\n", Count(F.TotalEvents).c_str());
  for (std::uint32_t K = 0; K < NumEventKinds; ++K)
    if (F.EventCounts[K])
      std::fprintf(Out, "  %-5s      : %s\n",
                   eventKindName(static_cast<EventKind>(K)),
                   Count(F.EventCounts[K]).c_str());
  std::fprintf(Out, "last cycle   : %s\n", Count(F.LastCycle).c_str());
  std::fprintf(Out, "run cycles   : %s (checksum %llu)\n",
               Count(F.Run.Cycles).c_str(),
               static_cast<unsigned long long>(F.Run.ReturnValue));
}
