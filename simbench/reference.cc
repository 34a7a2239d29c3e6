// The reference kernel: a fixed load owned by the benchmark, timed between
// passes to track the host's speed.
//
// On a shared machine other tenants' memory and cache traffic slows every
// process by tens of percent for minutes at a time. Within one process the
// passes agree closely, so a per-run median cannot remove such a phase.
// The kernel mixes the same host work as the simulate phase: an event
// heap, small heap allocations, 64 B reads at random offsets of a 32 MiB
// array, ordered-map updates and indirect calls. Pass times divided by the
// kernel's time therefore stay steady while the host speed moves. The
// kernel uses no simulator code, so a change under src/ cannot move it.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "simbench/bench.h"

namespace simbench {
namespace {

constexpr size_t kArrayBytes = size_t{32} << 20;
constexpr int kIterations = 100000;

uint64_t SplitMix(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// 1024 distinct small branchy functions, called in random order: an
// instruction footprint and branch history well beyond L1i and the branch
// predictor, like the simulator's coroutine-heavy code.
template <int N>
uint64_t Step(uint64_t x) {
  x = x * (2 * N + 1) + N;
  if ((x >> (N % 13)) & 1) x ^= x >> (N % 7 + 3);
  if ((x >> (N % 11 + 1)) & 1) x += static_cast<uint64_t>(N) << 3;
  switch ((x >> 17) & 3) {
    case 0: return x ^ (x >> 29);
    case 1: return x + (x << (N % 5 + 1));
    case 2: return x - static_cast<uint64_t>(N);
    default: return ~x;
  }
}

constexpr int kSteps = 1024;
using StepFn = uint64_t (*)(uint64_t);

template <int... N>
constexpr std::array<StepFn, sizeof...(N)> StepTable(
    std::integer_sequence<int, N...>) {
  return {&Step<N>...};
}
constexpr auto kStepTable = StepTable(std::make_integer_sequence<int, kSteps>());

}  // namespace

double ReferenceKernelMs() {
  static std::vector<uint8_t> array(kArrayBytes, 1);
  std::vector<void*> ring(256, nullptr);
  std::vector<std::pair<uint64_t, int>> heap;
  std::map<uint32_t, uint64_t> map;
  uint64_t s = 7;
  uint64_t sink = 0;
  const int64_t t0 = HostNowNs();
  for (int i = 0; i < kIterations; ++i) {
    const uint64_t r = SplitMix(&s);
    heap.emplace_back(r & 0xffffff, i);
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
    void*& slot = ring[static_cast<size_t>(i) & 255];
    std::free(slot);
    auto* p = static_cast<uint8_t*>(std::malloc(64 + (r >> 40) % 960));
    std::memcpy(p, &array[(r % (kArrayBytes / 512)) * 512], 64);
    slot = p;
    sink += p[(r >> 20) & 63];
    map[static_cast<uint32_t>(r >> 32) & 4095] += static_cast<uint64_t>(i);
    for (int k = 0; k < 4; ++k) {
      sink = kStepTable[(r >> (10 * k)) % kSteps](sink + r);
    }
  }
  const int64_t t1 = HostNowNs();
  for (void* p : ring) std::free(p);
  // Keeps the loop's results observable so it is not optimized away.
  if (sink == 42) array[0] = 2;
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace simbench
