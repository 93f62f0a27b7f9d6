//===- metrics/Timeline.h - Span-based event recorder ----------------------==//
//
// Records begin/end spans and instant events on named tracks and exports
// them as Chrome/Perfetto `trace_event` JSON (load the file in
// https://ui.perfetto.dev or chrome://tracing). A track is one (pid, tid)
// pair: the Hydra TLS engine registers one track per CPU, the tracer one
// track for the comparator-bank array, the sweep runner one per worker.
//
// Determinism contract: pid/tid assignment follows track registration
// order, so registering tracks in a fixed order (as every caller does)
// makes the mapping stable across runs; simulator tracks additionally use
// simulated cycles as timestamps (1 cycle = 1us in the viewer), making
// their whole event stream byte-identical run to run. Spans on one track
// must nest: begin/end calls follow a stack discipline, and any span still
// open at export time is closed at the track's last timestamp so every "B"
// event always has a matching "E".
//
// Recording is mutex-guarded; per-event cost is a lock plus a vector push,
// which the coarse users here (thread lifetimes, bank activations, sweep
// jobs — never per-instruction) keep far below simulation cost. An
// unattached timeline (null pointer at the call site) costs one predicted
// branch.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_METRICS_TIMELINE_H
#define JRPM_METRICS_TIMELINE_H

#include "support/Json.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace jrpm {
namespace metrics {

using TrackId = std::uint32_t;

class Timeline {
public:
  /// Registers a track. \p Process groups tracks into one Perfetto
  /// process row (e.g. "hydra"); \p Tid orders tracks within it; \p Name
  /// labels the thread row. Returns the id used by begin/end/instant.
  /// Registering the same (process, tid) twice returns the existing track.
  TrackId track(const std::string &Process, std::uint32_t Tid,
                const std::string &Name);

  void begin(TrackId Track, const std::string &Name, std::uint64_t Ts);
  void end(TrackId Track, std::uint64_t Ts);
  void instant(TrackId Track, const std::string &Name, std::uint64_t Ts);

  /// Events dropped (and counted) once EventLimit were recorded, instead
  /// of growing the trace without bound.
  std::uint64_t droppedEvents() const { return Dropped; }

  /// Chrome trace_event JSON: metadata (process/thread names) first, then
  /// each track's events in recording order — which respects span nesting.
  /// Open spans are closed at the track's last timestamp.
  Json toJson() const;

private:
  struct Event {
    char Ph; // 'B', 'E', 'i'
    std::string Name;
    std::uint64_t Ts;
  };
  struct Track {
    std::string Process;
    std::uint32_t Pid = 0;
    std::uint32_t Tid = 0;
    std::string Name;
    std::vector<Event> Events;
    std::uint32_t OpenSpans = 0;
    std::uint64_t LastTs = 0;
  };

  bool admit(); // must hold M; false once the event cap is hit

  mutable std::mutex M;
  std::vector<Track> Tracks;
  static constexpr std::uint64_t EventLimit = 4u * 1000 * 1000;
  std::uint64_t Recorded = 0;
  std::uint64_t Dropped = 0;
};

} // namespace metrics
} // namespace jrpm

#endif // JRPM_METRICS_TIMELINE_H
