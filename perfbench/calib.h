#pragma once

#include <cstdint>

#include "trace.h"

/// \file calib.h
/// A clock meter for the CPU the benchmark runs on.
///
/// On a shared cloud host the core clock moves with the load of the other
/// tenants: the same cells took 1.6–1.9x longer, every cell alike, while
/// the host was busy than while it was quiet, in CPU time as well as wall
/// time. A chain of dependent integer multiply-adds takes a fixed number
/// of cycles per step on a given CPU, whatever the caches and memory do,
/// so timing it gives the clock the core ran at just then. The benchmark
/// converts the program's CPU seconds into seconds at a fixed reference
/// clock with it (HostSpeed in main.cc). The chain shares no code with the
/// program, so a change to the program moves the measurement and not the
/// meter.

namespace perfbench {

class ClockMeter {
 public:
  /// CPU seconds of one chain of kSteps dependent multiply-adds.
  double Seconds() {
    std::uint64_t x = seed_;
    std::int64_t t0 = CpuNs();
    for (int i = 0; i < kSteps; ++i) {
      x = x * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
      // Keeps the compiler from folding or unrolling the chain away.
      asm volatile("" : "+r"(x));
    }
    std::int64_t t1 = CpuNs();
    seed_ = x;
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  std::uint64_t sink() const { return seed_; }

 private:
  static constexpr int kSteps = 1 << 19;
  std::uint64_t seed_ = 1;
};

}  // namespace perfbench
