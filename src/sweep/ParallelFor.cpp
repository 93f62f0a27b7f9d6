//===- sweep/ParallelFor.cpp ----------------------------------------------==//

#include "sweep/ParallelFor.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

using namespace jrpm;

unsigned sweep::parallelWidth(std::size_t N, unsigned Threads) {
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<std::size_t>(Threads, N));
}

void sweep::parallelFor(
    std::size_t N, unsigned Threads,
    const std::function<void(std::size_t, unsigned)> &Fn) {
  unsigned Width = parallelWidth(N, Threads);
  if (Width <= 1) {
    for (std::size_t I = 0; I < N; ++I)
      Fn(I, 0);
    return;
  }
  std::atomic<std::size_t> Next{0};
  // jthreads join on destruction, so the workers are joined before Next
  // goes away even if starting a later worker throws.
  std::vector<std::jthread> Workers;
  Workers.reserve(Width);
  for (unsigned W = 0; W < Width; ++W)
    Workers.emplace_back([&Next, &Fn, N, W] {
      for (std::size_t I = Next++; I < N; I = Next++)
        Fn(I, W);
    });
}
