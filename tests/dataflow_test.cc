#include <gtest/gtest.h>

// mlint: allow(raw-thread) — test-only copy counter; partition tasks bump it
#include <atomic>
#include <map>
#include <numeric>
#include <string>

#include "dataflow/rdd.h"
#include "sim/cluster_sim.h"

namespace mlbench::dataflow {
namespace {

class DataflowTest : public ::testing::Test {
 protected:
  DataflowTest() : sim_(sim::Ec2M2XLargeCluster(4)) {
    ContextOptions opts;
    opts.language = sim::Language::kPython;
    opts.scale = 1000.0;  // each actual record stands for 1000 logical
    ctx_ = std::make_unique<Context>(&sim_, opts);
  }

  Rdd<long long> Numbers(long long per_partition) {
    return Generate<long long>(
        *ctx_, per_partition,
        [per_partition](int p, long long i) { return p * per_partition + i; },
        sizeof(long long));
  }

  sim::ClusterSim sim_;
  std::unique_ptr<Context> ctx_;
};

TEST_F(DataflowTest, GenerateAndCollect) {
  auto rdd = Numbers(10);
  auto rows = rdd.Collect();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 40u);
  long long sum = std::accumulate(rows->begin(), rows->end(), 0LL);
  EXPECT_EQ(sum, 39 * 40 / 2);
}

TEST_F(DataflowTest, CountsActualAndLogical) {
  auto rdd = Numbers(25);
  auto actual = rdd.CountActual();
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(*actual, 100);
  EXPECT_DOUBLE_EQ(static_cast<double>(*actual) * rdd.scale(), 100000.0);
}

TEST_F(DataflowTest, MapTransforms) {
  auto rdd = Numbers(5).Map([](const long long& x) { return 2 * x; });
  auto rows = rdd.Collect();
  ASSERT_TRUE(rows.ok());
  for (long long v : *rows) EXPECT_EQ(v % 2, 0);
}

TEST_F(DataflowTest, FlatMapExpands) {
  auto rdd = Numbers(3).FlatMap([](const long long& x) {
    return std::vector<long long>{x, x};
  });
  auto n = rdd.CountActual();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 24);
}

TEST_F(DataflowTest, ReduceSums) {
  auto total = Numbers(10).Reduce(
      [](long long* acc, const long long& x) { *acc += x; });
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 39 * 40 / 2);
}

TEST_F(DataflowTest, ReduceByKeyAggregatesAcrossPartitions) {
  // Key = value % 3; every partition contributes to every key.
  auto pairs = Numbers(30).Map([](const long long& x) {
    return std::pair<int, long long>(static_cast<int>(x % 3), 1LL);
  });
  auto counts = ReduceByKey(
      pairs, [](long long* acc, const long long& x) { *acc += x; });
  auto rows = counts.Collect();
  ASSERT_TRUE(rows.ok());
  std::map<int, long long> m(rows->begin(), rows->end());
  ASSERT_EQ(rows->size(), 3u);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0] + m[1] + m[2], 120);
}

/// A value that counts its copies; moves are free. Copies may happen in
/// partition tasks, so the count is atomic; it is only read between jobs.
struct Counted {
  // mlint: allow(raw-thread) — counts copies made in partition tasks
  static std::atomic<long long> copies;
  long long v = 0;

  Counted() = default;
  explicit Counted(long long x) : v(x) {}
  Counted(const Counted& o) : v(o.v) { copies.fetch_add(1); }
  Counted& operator=(const Counted& o) {
    v = o.v;
    copies.fetch_add(1);
    return *this;
  }
  Counted(Counted&&) noexcept = default;
  Counted& operator=(Counted&&) noexcept = default;
};
// mlint: allow(raw-thread) — the copy counter's definition
std::atomic<long long> Counted::copies{0};

TEST_F(DataflowTest, ReduceByKeyFoldsWithoutCopyingValues) {
  // 4 partitions x 40 records onto 5 keys: 20 map-side combine slots, 140
  // map-side folds and 15 reduce-side folds.
  auto pairs = Numbers(40).Map([](const long long& x) {
    return std::pair<int, Counted>(static_cast<int>(x % 5), Counted(x));
  });
  auto reduced = ReduceByKey(
      pairs, [](Counted* acc, const Counted& in) { acc->v += in.v; });
  Counted::copies = 0;
  auto rows = reduced.Collect();
  ASSERT_TRUE(rows.ok());
  // The reduce node keeps its partitions and hands out a copy, one per
  // output record; the combine and both folds copy nothing.
  EXPECT_EQ(Counted::copies.load(), static_cast<long long>(rows->size()));
  auto all = pairs.Collect();
  ASSERT_TRUE(all.ok());
  std::map<int, long long> folded;
  for (const auto& [k, c] : *all) folded[k] += c.v;
  std::map<int, long long> got;
  for (const auto& [k, c] : *rows) {
    EXPECT_TRUE(got.emplace(k, c.v).second) << "key " << k << " twice";
  }
  EXPECT_EQ(got, folded);
}

TEST_F(DataflowTest, ReduceFoldsWithoutCopyingValues) {
  auto values = Numbers(10).Map([](const long long& x) { return Counted(x); });
  Counted::copies = 0;
  auto total =
      values.Reduce([](Counted* acc, const Counted& x) { acc->v += x.v; });
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(Counted::copies.load(), 0);
  EXPECT_EQ(total->v, 39 * 40 / 2);
}

TEST_F(DataflowTest, JoinMatchesKeys) {
  auto left = Numbers(4).Map([](const long long& x) {
    return std::pair<int, long long>(static_cast<int>(x % 4), x);
  });
  // One record per partition: keys 0 and 1 match, keys 12 and 13 do not.
  auto right = Generate<std::pair<int, std::string>>(
      *ctx_, 1,
      [](int p, long long) {
        return std::pair<int, std::string>(p < 2 ? p : p + 10, "v");
      },
      16);
  auto joined = Join(left, right, /*out_scale=*/1000.0);
  auto rows = joined.Collect();
  ASSERT_TRUE(rows.ok());
  // 16 left records, keys 0..3 uniformly -> 8 match keys {0, 1}.
  EXPECT_EQ(rows->size(), 8u);
  for (const auto& [k, vw] : *rows) EXPECT_TRUE(k == 0 || k == 1);
}

TEST_F(DataflowTest, CacheAllocatesLogicalBytes) {
  // First run a trivial job so the lifetime peer buffers are pinned and
  // the cache delta can be measured cleanly.
  ASSERT_TRUE(Numbers(1).CountActual().ok());
  double baseline = 0;
  for (int m = 0; m < sim_.machines(); ++m) baseline += sim_.used_bytes(m);

  auto rdd = Numbers(100);
  rdd.Cache();
  ASSERT_TRUE(rdd.CountActual().ok());
  double used = 0;
  for (int m = 0; m < sim_.machines(); ++m) used += sim_.used_bytes(m);
  // 400 actual * 1000 scale * 8 bytes
  EXPECT_DOUBLE_EQ(used - baseline, 400.0 * 1000 * 8);
  // Second evaluation hits the cache (and must give the same answer).
  auto n = rdd.CountActual();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 400);
}

TEST_F(DataflowTest, ActionsAdvanceSimulatedClock) {
  auto rdd = Numbers(1000);
  double before = sim_.elapsed_seconds();
  ASSERT_TRUE(rdd.CountActual().ok());
  double after = sim_.elapsed_seconds();
  // At least the job-launch cost must have elapsed.
  EXPECT_GT(after - before, ctx_->options().costs.job_launch_s * 0.99);
}

TEST_F(DataflowTest, PythonSlowerThanJavaOnSameJob) {
  auto run = [](sim::Language lang) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(4));
    ContextOptions opts;
    opts.language = lang;
    opts.scale = 1e6;
    Context ctx(&sim, opts);
    auto rdd = Generate<long long>(
        ctx, 100, [](int p, long long i) { return p + i; }, 8);
    auto mapped = rdd.Map([](const long long& x) { return x + 1; });
    EXPECT_TRUE(mapped.CountActual().ok());
    return sim.elapsed_seconds();
  };
  EXPECT_GT(run(sim::Language::kPython), 1.5 * run(sim::Language::kJava));
}

TEST_F(DataflowTest, OversizedCacheFailsWithOutOfMemory) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(1));
  ContextOptions opts;
  opts.scale = 1e9;  // 1000 actual -> 1e12 logical records * 8 B = 8 TB
  Context ctx(&sim, opts);
  auto rdd = Generate<long long>(
      ctx, 1000, [](int, long long i) { return i; }, 8);
  rdd.Cache();
  auto n = rdd.CountActual();
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(n.status().IsOutOfMemory());
}

TEST_F(DataflowTest, OversizedInputReduceByKeySucceeds) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(1));
  ContextOptions opts;
  opts.scale = 2e9;
  Context ctx(&sim, opts);
  auto pairs = Generate<std::pair<int, long long>>(
                   ctx, 1000,
                   [](int, long long i) {
                     return std::pair<int, long long>(
                         static_cast<int>(i % 4), i);
                   },
                   48);
  // 1000 * 2e9 logical records * 48 B is far past RAM, but reduceByKey
  // combines map-side down to 4 keys and stays tiny.
  auto reduced = ReduceByKey(
      pairs, [](long long* acc, const long long& x) { *acc += x; });
  EXPECT_TRUE(reduced.Collect().ok());
}

TEST_F(DataflowTest, TransientBuffersFreedAfterJob) {
  ASSERT_TRUE(Numbers(1).CountActual().ok());  // pin lifetime buffers
  std::vector<double> baseline(sim_.machines());
  for (int m = 0; m < sim_.machines(); ++m) baseline[m] = sim_.used_bytes(m);

  auto pairs = Numbers(50).Map([](const long long& x) {
    return std::pair<int, long long>(static_cast<int>(x % 5), x);
  });
  auto reduced = ReduceByKey(
      pairs, [](long long* acc, const long long& x) { *acc += x; });
  ASSERT_TRUE(reduced.Collect().ok());
  for (int m = 0; m < sim_.machines(); ++m) {
    EXPECT_DOUBLE_EQ(sim_.used_bytes(m), baseline[m]) << "machine " << m;
  }
}

TEST_F(DataflowTest, ReleaseLifetimeStateFreesPeersAndResiduals) {
  ASSERT_TRUE(Numbers(1).CountActual().ok());
  ctx_->BeginJob("broadcast", 4);
  ASSERT_TRUE(ctx_->BroadcastClosure(1e6).ok());
  ctx_->EndJob();
  double used = 0;
  for (int m = 0; m < sim_.machines(); ++m) used += sim_.used_bytes(m);
  EXPECT_GT(used, 0.0);  // peers + closure residuals
  ctx_->ReleaseLifetimeState();
  used = 0;
  for (int m = 0; m < sim_.machines(); ++m) used += sim_.used_bytes(m);
  EXPECT_DOUBLE_EQ(used, 0.0);
}

}  // namespace
}  // namespace mlbench::dataflow
