#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bsp/engine.h"
#include "exec/thread_pool.h"
#include "sim/cluster_sim.h"

namespace mlbench::bsp {
namespace {

struct VData {
  double value = 0;
  double received = 0;
};

using Engine = BspEngine<VData, double>;

// n data vertices (ids 1..n) + one hub (id 0).
void BuildStar(Engine& eng, int n, double data_scale,
               double state_bytes = 64) {
  eng.AddVertex(0, VData{0, 0}, 1.0, 1024);
  for (int i = 1; i <= n; ++i) {
    eng.AddVertex(i, VData{static_cast<double>(i), 0}, data_scale,
                  state_bytes);
  }
}

TEST(BspEngineTest, BootChargesJobLaunchAndPinsState) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
  Engine eng(&sim);
  BuildStar(eng, 10, 1.0);
  ASSERT_TRUE(eng.Boot().ok());
  EXPECT_GE(sim.elapsed_seconds(), eng.costs().job_launch_s);
  double used = 0;
  for (int m = 0; m < 3; ++m) used += sim.used_bytes(m);
  EXPECT_GT(used, 2 * eng.costs().peer_buffer_bytes);  // peers + graph
  eng.Shutdown();
  used = 0;
  for (int m = 0; m < 3; ++m) used += sim.used_bytes(m);
  EXPECT_DOUBLE_EQ(used, 0.0);
}

TEST(BspEngineTest, MessagesDeliverNextSuperstep) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 4, 1.0);
  ASSERT_TRUE(eng.Boot().ok());

  // Superstep 0: every data vertex sends its value to the hub.
  auto send = [](Engine::Vertex& v, const std::vector<double>&,
                 Engine::Context& ctx) {
    if (v.id != 0) ctx.Send(0, v.data.value, 8);
  };
  ASSERT_TRUE(eng.RunSuperstep(send, {}).ok());

  // Superstep 1: the hub sums its inbox.
  auto recv = [](Engine::Vertex& v, const std::vector<double>& inbox,
                 Engine::Context&) {
    if (v.id == 0) {
      for (double m : inbox) v.data.received += m;
    }
  };
  ASSERT_TRUE(eng.RunSuperstep(recv, {}).ok());
  EXPECT_DOUBLE_EQ(eng.vertex(0).data.received, 1 + 2 + 3 + 4);
  EXPECT_EQ(eng.superstep(), 2);
}

TEST(BspEngineTest, CombinerFoldsPerMachine) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 8, 1.0);
  eng.SetCombiner([](double* acc, const double& in) { *acc += in; });
  ASSERT_TRUE(eng.Boot().ok());
  auto send = [](Engine::Vertex& v, const std::vector<double>&,
                 Engine::Context& ctx) {
    if (v.id != 0) ctx.Send(0, v.data.value, 8);
  };
  ASSERT_TRUE(eng.RunSuperstep(send, {}).ok());
  double sum = 0;
  int arrivals = 0;
  auto recv = [&](Engine::Vertex& v, const std::vector<double>& inbox,
                  Engine::Context&) {
    if (v.id == 0) {
      for (double m : inbox) {
        sum += m;
        ++arrivals;
      }
    }
  };
  ASSERT_TRUE(eng.RunSuperstep(recv, {}).ok());
  EXPECT_DOUBLE_EQ(sum, 36.0);
  // At most one combined message per machine.
  EXPECT_LE(arrivals, 2);
}

// One payload per sender, shared by every destination it is sent to.
using Payload = std::shared_ptr<std::vector<double>>;

struct SharedSender {
  Payload sent;
  std::vector<double> received;
  std::size_t messages = 0;
};

using SharedEngine = BspEngine<SharedSender, Payload>;

struct SharedCombineRun {
  std::vector<double> at0, at1;  // payload values in delivery order
  std::size_t messages0 = 0, messages1 = 0;
  std::size_t machines0 = 0, machines1 = 0;  // machines holding senders
  bool senders_unchanged = true;
};

// Senders 2.. share one payload {id} between destination 0 (every
// sender) and destination 1 (odd senders only); enough senders that the
// compute loop splits into parallel chunks. The combiner appends in
// place, copying a shared accumulator first.
SharedCombineRun RunSharedPayloadCombine(int threads) {
  exec::ThreadPool::SetGlobalThreads(threads);
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  SharedEngine eng(&sim);
  const int kSenders = 4000;
  for (int i = 0; i < 2 + kSenders; ++i) eng.AddVertex(i, {}, 1.0, 64);
  eng.SetCombiner([](Payload* acc, const Payload& in) {
    if (acc->use_count() > 1) {
      *acc = std::make_shared<std::vector<double>>(**acc);
    }
    (*acc)->insert((*acc)->end(), in->begin(), in->end());
  });
  EXPECT_TRUE(eng.Boot().ok());
  auto send = [](SharedEngine::Vertex& v, const std::vector<Payload>&,
                 SharedEngine::Context& ctx) {
    if (v.id < 2) return;
    v.data.sent = std::make_shared<std::vector<double>>(
        1, static_cast<double>(v.id));
    ctx.Send(0, v.data.sent, 8);
    if (v.id % 2 == 1) ctx.Send(1, v.data.sent, 8);
  };
  EXPECT_TRUE(eng.RunSuperstep(send, {}).ok());
  auto recv = [](SharedEngine::Vertex& v, const std::vector<Payload>& inbox,
                 SharedEngine::Context&) {
    if (v.id >= 2) return;
    for (const Payload& m : inbox) {
      v.data.received.insert(v.data.received.end(), m->begin(), m->end());
    }
    v.data.messages = inbox.size();
  };
  EXPECT_TRUE(eng.RunSuperstep(recv, {}).ok());

  SharedCombineRun run;
  run.at0 = eng.vertex(0).data.received;
  run.at1 = eng.vertex(1).data.received;
  run.messages0 = eng.vertex(0).data.messages;
  run.messages1 = eng.vertex(1).data.messages;
  std::vector<bool> used0(2, false), used1(2, false);
  for (std::size_t s = 2; s < eng.size(); ++s) {
    const auto& v = eng.vertex(s);
    used0[static_cast<std::size_t>(eng.MachineOf(s))] = true;
    if (v.id % 2 == 1) {
      used1[static_cast<std::size_t>(eng.MachineOf(s))] = true;
    }
    run.senders_unchanged =
        run.senders_unchanged && v.data.sent->size() == 1 &&
        (*v.data.sent)[0] == static_cast<double>(v.id);
  }
  run.machines0 = static_cast<std::size_t>(used0[0]) + used0[1];
  run.machines1 = static_cast<std::size_t>(used1[0]) + used1[1];
  exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
  return run;
}

TEST(BspEngineTest, InPlaceCombinerCopiesSharedPayloadsOnWrite) {
  SharedCombineRun one = RunSharedPayloadCombine(1);
  SharedCombineRun four = RunSharedPayloadCombine(4);
  for (const SharedCombineRun* run : {&one, &four}) {
    // One combined message per sending machine and destination.
    EXPECT_EQ(run->messages0, run->machines0);
    EXPECT_EQ(run->messages1, run->machines1);
    EXPECT_EQ(run->machines0, 2u);
    // Each destination holds exactly its own senders' payloads.
    std::vector<double> want0, want1;
    for (int id = 2; id < 2 + 4000; ++id) {
      want0.push_back(id);
      if (id % 2 == 1) want1.push_back(id);
    }
    std::vector<double> got0 = run->at0, got1 = run->at1;
    std::sort(got0.begin(), got0.end());
    std::sort(got1.begin(), got1.end());
    EXPECT_EQ(got0, want0);
    EXPECT_EQ(got1, want1);
    // No sender's payload was mutated by a combine.
    EXPECT_TRUE(run->senders_unchanged);
  }
  // Delivery order does not depend on the host thread count.
  EXPECT_EQ(one.at0, four.at0);
  EXPECT_EQ(one.at1, four.at1);
}

TEST(BspEngineTest, AggregatorsSumAndBroadcast) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 3, 1.0);
  ASSERT_TRUE(eng.Boot().ok());
  auto contribute = [](Engine::Vertex& v, const std::vector<double>&,
                       Engine::Context& ctx) {
    if (v.id != 0) ctx.Aggregate("total", {v.data.value, 1.0}, 16);
  };
  ASSERT_TRUE(eng.RunSuperstep(contribute, {}).ok());
  const std::vector<double>& seen = eng.LastAggregate("total");
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 6.0);
  EXPECT_DOUBLE_EQ(seen[1], 3.0);
}

TEST(BspEngineTest, ScaledVerticesScaleAggregates) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 2, /*data_scale=*/1000.0);
  ASSERT_TRUE(eng.Boot().ok());
  auto contribute = [](Engine::Vertex& v, const std::vector<double>&,
                       Engine::Context& ctx) {
    if (v.id != 0) ctx.Aggregate("n", {1.0}, 8);
  };
  ASSERT_TRUE(eng.RunSuperstep(contribute, {}).ok());
  const std::vector<double>& n = eng.LastAggregate("n");
  ASSERT_EQ(n.size(), 1u);
  EXPECT_DOUBLE_EQ(n[0], 2000.0);  // logical vertex count
}

TEST(BspEngineTest, UncombinedMessageFloodExceedsMemory) {
  // 10M logical senders each buffering a 9 KB model message at receivers.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 20, /*data_scale=*/1e6);
  ASSERT_TRUE(eng.Boot().ok());
  auto flood = [](Engine::Vertex& v, const std::vector<double>&,
                  Engine::Context& ctx) {
    if (v.id == 0) return;
    // Each logical data vertex receives a 9 KB message (sent to itself
    // here to spread destinations).
    ctx.Send(v.id, 1.0, 9000);
  };
  ASSERT_TRUE(eng.RunSuperstep(flood, {}).ok());
  Status st = eng.RunSuperstep(flood, {});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
}

TEST(BspEngineTest, OutOfCoreMessagingSurvivesTheFloodButPaysDiskTime) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 20, /*data_scale=*/1e6);
  eng.SetOutOfCoreMessages(true);
  ASSERT_TRUE(eng.Boot().ok());
  auto flood = [](Engine::Vertex& v, const std::vector<double>&,
                  Engine::Context& ctx) {
    if (v.id != 0) ctx.Send(v.id, 1.0, 9000);
  };
  ASSERT_TRUE(eng.RunSuperstep(flood, {}).ok());
  double t0 = sim.elapsed_seconds();
  ASSERT_TRUE(eng.RunSuperstep(flood, {}).ok());
  // 10M x 9KB = 90 GB per machine written + read back: minutes of disk.
  EXPECT_GT(sim.elapsed_seconds() - t0, 300.0);
}

TEST(BspEngineTest, OutOfCoreSpillIsCappedByDisk) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 20, /*data_scale=*/1e6);
  eng.SetOutOfCoreMessages(true);
  ASSERT_TRUE(eng.Boot().ok());
  auto flood = [](Engine::Vertex& v, const std::vector<double>&,
                  Engine::Context& ctx) {
    if (v.id != 0) ctx.Send(v.id, 1.0, 8e6);  // 8 MB per logical vertex
  };
  ASSERT_TRUE(eng.RunSuperstep(flood, {}).ok());
  Status st = eng.RunSuperstep(flood, {});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
}

TEST(BspEngineTest, AllocationChurnKillsTheWorker) {
  // The naive Bayesian Lasso: every logical data vertex allocates an 8 MB
  // Gram-matrix message -> 800 GB of garbage per superstep per machine.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 10, /*data_scale=*/1e5);
  ASSERT_TRUE(eng.Boot().ok());
  ComputeCost cost;
  cost.temp_bytes_per_vertex = 8e6;
  auto noop = [](Engine::Vertex&, const std::vector<double>&,
                 Engine::Context&) {};
  Status st = eng.RunSuperstep(noop, cost);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_NE(st.message().find("churn"), std::string::npos);
}

TEST(BspEngineTest, PeerBuffersGrowWithClusterSize) {
  auto boot_used = [](int machines) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(machines));
    Engine eng(&sim);
    eng.AddVertex(0, VData{}, 1.0, 64);
    EXPECT_TRUE(eng.Boot().ok());
    // Peer buffers dominate: measure machine 1 (graph is on one machine).
    return sim.used_bytes(1);
  };
  EXPECT_GT(boot_used(50), 5 * boot_used(5));
}

TEST(BspEngineTest, SuperstepBarrierAdvancesClock) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Engine eng(&sim);
  BuildStar(eng, 2, 1.0);
  ASSERT_TRUE(eng.Boot().ok());
  double t0 = sim.elapsed_seconds();
  auto noop = [](Engine::Vertex&, const std::vector<double>&,
                 Engine::Context&) {};
  ASSERT_TRUE(eng.RunSuperstep(noop, {}).ok());
  EXPECT_GE(sim.elapsed_seconds() - t0, eng.costs().superstep_barrier_s);
}

}  // namespace
}  // namespace mlbench::bsp
