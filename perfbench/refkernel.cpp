// The drift-correction reference kernel: a fixed amount of work shaped
// like the simulator's inner loops (dependent loads over a table that lives
// in the per-core L2, integer hashing, data-dependent branches), built from
// nothing in src/ so that a change to the simulator can never move it.
//
// The table size was chosen by measurement. Across 12 processes on a
// 4-vCPU x86-64 container, the median 8W3 fork time spread by 18% (fixed
// memory) and 18% (dram+far); divided by this kernel's median it spread by
// 5% and 8%. A pure ALU kernel did not track the drift (16%, 12%), and
// tables of 1-16 MiB tracked it less well.
#include <cstdint>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

constexpr std::size_t kTableEntries = std::size_t{1} << 16;  // 256 KiB of u32
constexpr std::size_t kSideEntries = std::size_t{1} << 14;   // 128 KiB of u64
constexpr std::uint32_t kSteps = 800'000;

struct Tables {
  std::vector<std::uint32_t> next;  ///< one random cycle (Sattolo)
  std::vector<std::uint64_t> side;

  Tables() : next(kTableEntries), side(kSideEntries) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto rnd = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::size_t i = 0; i < kTableEntries; ++i)
      next[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kTableEntries - 1; i > 0; --i)
      std::swap(next[i], next[rnd() % i]);
    for (auto& s : side) s = rnd();
  }
};

Tables& tables() {
  static Tables t;
  return t;
}

}  // namespace

double run_reference_kernel() {
  Tables& t = tables();
  // Touch the table first, so the timed walk never starts from whatever
  // cache state the work before it left behind.
  std::uint64_t warm = 0;
  for (std::size_t k = 0; k < kTableEntries; k += 16) warm += t.next[k];
  t.side[1] += warm;
  const double t0 = now_s();
  std::uint32_t i = 0;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    i = t.next[i];
    h = (h ^ i) * 0x100000001b3ull;
    std::uint64_t& s = t.side[h & (kSideEntries - 1)];
    if (h >> 63)
      s += h;
    else
      s ^= h >> 17;
  }
  const double elapsed = now_s() - t0;
  // Fold the result into the table so the loop cannot be elided.
  t.side[0] += h;
  return elapsed;
}

}  // namespace perfbench
