#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

/// \file stats.h
/// Summary statistics and host probes of the end-to-end benchmark. Header
/// only, so the self-test links nothing but this file and trace.h.

namespace perfbench {

/// Median of `v` (mean of the middle two for an even count; 0 if empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The pass-time rule: each cell's samples (one per round) reduce to their
/// median, and the pass is the sum of those medians. A slow round of one
/// cell then moves the pass only if it is slow in most rounds.
inline double SumOfMedians(const std::map<std::string, std::vector<double>>&
                               per_cell) {
  double sum = 0;
  for (const auto& [cell, samples] : per_cell) sum += Median(samples);
  return sum;
}

/// Smallest of `v` (0 if empty).
inline double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/// The CPU-cost rule: each cell's samples (one per round) reduce to their
/// minimum, and the pass is the sum of those minima. A cell does the same
/// work in every round, and a busy host only ever adds to its time (cache
/// and memory contention, a shared core), so the fastest round is the
/// best estimate of what the work itself costs.
inline double SumOfMins(const std::map<std::string, std::vector<double>>&
                            per_cell) {
  double sum = 0;
  for (const auto& [cell, samples] : per_cell) sum += Min(samples);
  return sum;
}

/// A tail percentile together with the number of samples strictly beyond
/// it, so a reader can see whether the tail is measured or extrapolated.
struct Tail {
  double value = 0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

/// 1-based nearest rank of percentile q in (0, 1) among n samples:
/// ceil(q*n), at least 1.
inline std::size_t NearestRank(std::size_t n, double q) {
  double at = static_cast<double>(n) * q;
  std::size_t rank = static_cast<std::size_t>(at);
  if (static_cast<double>(rank) < at) ++rank;
  return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

/// Nearest-rank percentile q in (0, 1) of `v`.
inline Tail Percentile(std::vector<double> v, double q) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  std::size_t rank = NearestRank(v.size(), q);
  t.value = v[rank - 1];
  t.beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), t.value));
  return t;
}

/// Peak resident set size of this process in MB (VmHWM), or -1 when
/// /proc is unavailable.
inline double ReadVmHwmMb(const char* status_path = "/proc/self/status") {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = -1;
      fields >> kb;
      return kb < 0 ? -1 : kb / 1024.0;
    }
  }
  return -1;
}

/// Resets VmHWM to the current RSS (Linux clear_refs code 5). Returns
/// false when the kernel refuses, in which case peaks include earlier
/// phases of the run.
inline bool ResetVmHwm() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Aggregate CPU jiffies from /proc/stat, for the steal and iowait share
/// of a run (time the host took away from this machine's CPUs).
struct CpuTimes {
  double total = 0;
  double iowait = 0;
  double steal = 0;
};

inline CpuTimes ReadCpuTimes(const char* stat_path = "/proc/stat") {
  CpuTimes t;
  std::ifstream in(stat_path);
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already counted in user/nice).
  double f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (double& x : f) in >> x;
  for (double x : f) t.total += x;
  t.iowait = f[4];
  t.steal = f[7];
  return t;
}

/// Share of CPU time spent in iowait / steal between two readings.
inline double Share(double before, double after, const CpuTimes& b,
                    const CpuTimes& a) {
  double total = a.total - b.total;
  return total > 0 ? (after - before) / total : 0;
}

}  // namespace perfbench
