//===- metrics/Metrics.h - Low-overhead instrumentation registry -----------==//
//
// Named monotonic counters, gauges, and log-scale histograms for the
// simulators. Components accumulate into plain struct members on their hot
// paths and export here once per run, so an unattached registry costs
// nothing and an attached one costs a handful of map insertions at
// end-of-run. Export is deterministic: names live in std::map (sorted
// serialization), every value is derived from simulated cycles — never
// wall-clock — and histogram percentiles are integral bucket bounds, so a
// registry dump is a pure function of the simulated execution. That purity
// is what the golden metrics gate and the 1-thread-vs-N-thread sweep
// byte-identity contract rely on.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_METRICS_METRICS_H
#define JRPM_METRICS_METRICS_H

#include "support/Json.h"

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>

namespace jrpm {
namespace metrics {

/// Monotonic counter: the API admits increments only, so a counter can
/// never decrease over the lifetime of a registry (an invariant the test
/// suite checks across pipeline phases).
class Counter {
public:
  void inc(std::uint64_t N = 1) { V += N; }
  std::uint64_t value() const { return V; }

private:
  std::uint64_t V = 0;
};

/// Point-in-time value. merge() keeps the maximum, which is the right
/// combination rule for the peaks (banks, slots, nest depth) we track.
class Gauge {
public:
  void set(std::uint64_t N) { V = N; }
  void peak(std::uint64_t N) {
    if (N > V)
      V = N;
  }
  std::uint64_t value() const { return V; }

private:
  std::uint64_t V = 0;
};

/// Log-scale histogram of unsigned 64-bit samples: power-of-two buckets
/// with four linear sub-buckets each (HdrHistogram-style), giving <= 25%
/// relative error on percentiles over the full range with 256 fixed
/// buckets and O(1) recording.
class Histogram {
public:
  static constexpr std::uint32_t NumBuckets = 256;

  // record() is inline: tracers call it once per loop iteration, so it
  // sits on the block-drain hot path.
  void record(std::uint64_t V) {
    ++Buckets[bucketIndex(V)];
    ++Count;
    Sum += V;
    if (V < Min)
      Min = V;
    if (V > Max)
      Max = V;
  }
  void merge(const Histogram &O);

  std::uint64_t count() const { return Count; }
  std::uint64_t sum() const { return Sum; }
  std::uint64_t min() const { return Count ? Min : 0; }
  std::uint64_t max() const { return Max; }
  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count)
                 : 0.0;
  }

  /// Value at percentile \p P in [0, 100]: the inclusive upper bound of
  /// the bucket holding the sample of rank ceil(P/100 * count). Zero when
  /// empty. Monotone in P by construction (cumulative bucket scan).
  std::uint64_t percentile(double P) const;

  Json toJson() const;

private:
  static std::uint32_t bucketIndex(std::uint64_t V) {
    // Values below 8 get exact buckets; above that, the bucket is the
    // power-of-two magnitude split into four linear sub-buckets keyed by
    // the two bits after the leading one.
    if (V < 8)
      return static_cast<std::uint32_t>(V);
    std::uint32_t B = 63 - static_cast<std::uint32_t>(std::countl_zero(V));
    std::uint32_t Sub = static_cast<std::uint32_t>((V >> (B - 2)) & 3);
    std::uint32_t Idx = 8 + (B - 3) * 4 + Sub;
    return Idx < NumBuckets ? Idx : NumBuckets - 1;
  }
  static std::uint64_t bucketUpperBound(std::uint32_t Idx);

  std::array<std::uint64_t, NumBuckets> Buckets{};
  std::uint64_t Count = 0;
  std::uint64_t Sum = 0;
  std::uint64_t Min = ~std::uint64_t(0);
  std::uint64_t Max = 0;
};

/// The instrumentation registry: named metrics with stable storage (node
/// based maps), so components may cache references to hot metrics. Not
/// thread-safe by design — each sweep job owns a private registry and the
/// per-job registries are merged in plan order afterwards (deterministic
/// whatever the pool's scheduling was).
class Registry {
public:
  Counter &counter(const std::string &Name) { return Counters[Name]; }
  Gauge &gauge(const std::string &Name) { return Gauges[Name]; }
  Histogram &histogram(const std::string &Name) { return Histograms[Name]; }

  const std::map<std::string, Counter> &counters() const { return Counters; }
  const std::map<std::string, Gauge> &gauges() const { return Gauges; }
  const std::map<std::string, Histogram> &histograms() const {
    return Histograms;
  }

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty();
  }

  /// Folds \p O into this registry: counters add, gauges keep the peak,
  /// histograms merge bucket-wise.
  void merge(const Registry &O);

  /// Deterministic export: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count,sum,min,max,mean,p50,p95,p99}}}.
  Json toJson() const;

private:
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
};

} // namespace metrics
} // namespace jrpm

#endif // JRPM_METRICS_METRICS_H
