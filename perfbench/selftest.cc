// Self-test of the benchmark's own helpers (stats.h, trace.h, calib.h).
// run.py runs it before every measurement; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "calib.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentileRule() {
  using perfbench::Percentile;
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  perfbench::Tail p95 = Percentile(v, 0.95);
  Expect(Near(p95.value, 190) && p95.beyond == 10 && p95.samples == 200,
         "p95 of 1..200 is 190 with 10 samples beyond");
  Expect(Percentile(v, 0.50).value == 100, "p50 of 1..200 is 100");
  v.pop_back();
  Expect(Percentile(v, 0.95).beyond < 10, "199 samples leave <10 beyond p95");
  v.assign(240, 0);
  for (int i = 0; i < 240; ++i) v[i] = i;
  Expect(Percentile(v, 0.95).beyond == 12, "a serve pass has 12 beyond p95");
  std::vector<double> ties(300, 5.0);
  Expect(Percentile(ties, 0.95).beyond == 0, "ties are not beyond");
  Expect(Percentile({}, 0.95).samples == 0, "empty input");
}

void TestSumOfMedians() {
  std::map<std::string, std::vector<double>> cells = {
      {"a", {3, 1, 2}}, {"b", {10, 40, 20, 30}}, {"c", {}}};
  // a: 2, b: (20 + 30) / 2, c: 0.
  Expect(Near(perfbench::SumOfMedians(cells), 27), "sum of per-cell medians");
  Expect(Near(perfbench::Median({5, 100, 6}), 6), "median ignores an outlier");
  // a: 1, b: 10, c: 0.
  Expect(Near(perfbench::SumOfMins(cells), 11), "sum of per-cell minima");
  Expect(perfbench::Min({}) == 0, "minimum of nothing is 0");
}

void TestSelfTime() {
  using perfbench::Span;
  std::vector<Span> spans = {
      {1, 0, "cell", "reldb", "c", 0, 100},
      {2, 1, "setup", "reldb", "c", 0, 30},
      {3, 1, "iteration1", "reldb", "c", 20, 60},   // overlaps setup
      {4, 1, "iteration2", "reldb", "c", 90, 150},  // runs past the parent
      {5, 3, "queue", "reldb", "c", 25, 35},
  };
  auto self = perfbench::SelfTimes(spans);
  // Children of 1 cover [0, 60) and [90, 100): 70 of 100.
  Expect(self[1] == 30, "cell self time counts overlapping children once");
  Expect(self[2] == 30, "leaf self time is its duration");
  Expect(self[3] == 30, "iteration minus its queue child");
  Expect(self[4] == 60, "leaf running past its parent keeps its duration");
  perfbench::Tracer tracer;
  std::uint64_t parent = tracer.Add({0, 0, "pass", "bench", "", 0, 0});
  tracer.Add({0, parent, "cell", "bsp", "x", 10, 20});
  tracer.Close(parent, 50);
  auto traced = perfbench::SelfTimes(tracer.spans());
  Expect(parent == 1 && traced[1] == 40, "tracer ids and Close");
}

void TestVmHwm() {
  double before = perfbench::ReadVmHwmMb();
  Expect(before > 0, "VmHWM is readable");
  {
    // Touch 64 MB so the peak rises well above the current RSS.
    std::vector<char> big(64 << 20, 1);
    for (std::size_t i = 0; i < big.size(); i += 4096) big[i] = 2;
    Expect(perfbench::ReadVmHwmMb() >= before + 60, "VmHWM tracks a peak");
  }
  double peak = perfbench::ReadVmHwmMb();
  if (perfbench::ResetVmHwm()) {
    Expect(perfbench::ReadVmHwmMb() < peak - 32, "reset drops the old peak");
  } else {
    std::fprintf(stderr, "selftest: VmHWM reset refused by the kernel\n");
  }
  Expect(perfbench::ReadVmHwmMb("/nonexistent") == -1, "missing file is -1");
}

void TestClockMeter() {
  perfbench::ClockMeter meter;
  double a = meter.Seconds();
  double b = meter.Seconds();
  Expect(a > 0 && b > 0 && a < 1 && b < 1, "clock meter readings are times");
  Expect(meter.sink() != 1, "clock meter chain advances");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSumOfMedians();
  TestSelfTime();
  TestVmHwm();
  TestClockMeter();
  if (failures == 0) std::fprintf(stderr, "selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
