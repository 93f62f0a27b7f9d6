//===- metrics/Metrics.cpp ------------------------------------------------==//

#include "metrics/Metrics.h"

#include <bit>
#include <cmath>

using namespace jrpm;
using namespace jrpm::metrics;

std::uint64_t Histogram::bucketUpperBound(std::uint32_t Idx) {
  if (Idx < 8)
    return Idx;
  std::uint32_t B = 3 + (Idx - 8) / 4;
  std::uint32_t Sub = (Idx - 8) % 4;
  // Upper bound of sub-bucket Sub within [2^B, 2^(B+1)).
  return (std::uint64_t(1) << B) +
         ((std::uint64_t(1) << (B - 2)) * (Sub + 1)) - 1;
}

void Histogram::merge(const Histogram &O) {
  for (std::uint32_t I = 0; I < NumBuckets; ++I)
    Buckets[I] += O.Buckets[I];
  Count += O.Count;
  Sum += O.Sum;
  if (O.Min < Min)
    Min = O.Min;
  if (O.Max > Max)
    Max = O.Max;
}

std::uint64_t Histogram::percentile(double P) const {
  if (Count == 0)
    return 0;
  if (P <= 0)
    return min();
  double Clamped = P >= 100.0 ? 100.0 : P;
  std::uint64_t Rank = static_cast<std::uint64_t>(
      std::ceil(Clamped / 100.0 * static_cast<double>(Count)));
  if (Rank == 0)
    Rank = 1;
  std::uint64_t Seen = 0;
  for (std::uint32_t I = 0; I < NumBuckets; ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank) {
      // Never report beyond the observed extremes.
      std::uint64_t V = bucketUpperBound(I);
      return V > Max ? Max : V;
    }
  }
  return Max;
}

Json Histogram::toJson() const {
  Json J = Json::object();
  J["count"] = Count;
  J["sum"] = Sum;
  J["min"] = min();
  J["max"] = Max;
  J["mean"] = mean();
  J["p50"] = percentile(50);
  J["p95"] = percentile(95);
  J["p99"] = percentile(99);
  return J;
}

void Registry::merge(const Registry &O) {
  for (const auto &[Name, C] : O.Counters)
    Counters[Name].inc(C.value());
  for (const auto &[Name, G] : O.Gauges)
    Gauges[Name].peak(G.value());
  for (const auto &[Name, H] : O.Histograms)
    Histograms[Name].merge(H);
}

Json Registry::toJson() const {
  Json Root = Json::object();
  Root["schema"] = "jrpm-metrics-v1";
  Json C = Json::object();
  for (const auto &[Name, V] : Counters)
    C[Name] = V.value();
  Root["counters"] = std::move(C);
  Json G = Json::object();
  for (const auto &[Name, V] : Gauges)
    G[Name] = V.value();
  Root["gauges"] = std::move(G);
  Json H = Json::object();
  for (const auto &[Name, V] : Histograms)
    H[Name] = V.toJson();
  Root["histograms"] = std::move(H);
  return Root;
}
