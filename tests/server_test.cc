#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

// mlint: allow(raw-thread) — end-to-end suite: real concurrent clients
// against a live server are the subject under test
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
// mlint: allow(raw-thread) — see above
#include <mutex>
#include <string>
// mlint: allow(raw-thread) — see above
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace mlbench {
namespace {

using server::Client;
using server::ClientOptions;
using server::ExperimentRequest;
using server::ProgressMsg;
using server::ResultMsg;
using server::Server;
using server::ServerOptions;
using server::SqlRequest;

ExperimentRequest Gmm(std::uint64_t id, const char* platform,
                      std::uint64_t seed) {
  ExperimentRequest req;
  req.id = id;
  req.workload = "gmm";
  req.platform = platform;
  req.machines = 2;
  req.iterations = 2;
  req.seed = seed;
  req.actual_per_machine = 250;
  return req;
}

ClientOptions Opts(int port) {
  ClientOptions opts;
  opts.port = port;
  return opts;
}

SqlRequest Sql(std::uint64_t id, std::uint64_t seed) {
  SqlRequest req;
  req.id = id;
  req.seed = seed;
  req.rows = 64;
  req.sql = "SELECT grp, SUM(val) FROM data GROUP BY grp";
  return req;
}

TEST(ServerTest, PingPongAndCounters) {
  Server srv(ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_GT(srv.port(), 0);

  Client client(Opts(srv.port()));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());
  client.Close();
  srv.Stop();
  EXPECT_GE(srv.counters().sessions_accepted, 1);
  EXPECT_EQ(srv.counters().protocol_errors, 0);
}

TEST(ServerTest, SqlIsDeterministicAcrossRuns) {
  Server srv(ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  Client client(Opts(srv.port()));

  auto first = client.RunSql(Sql(1, /*seed=*/99));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->code, StatusCode::kOk);
  EXPECT_GT(first->result_rows, 0);

  auto second = client.RunSql(Sql(2, /*seed=*/99));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->digest, first->digest)
      << "same seed+statement must be bit-identical";

  auto other_seed = client.RunSql(Sql(3, /*seed=*/100));
  ASSERT_TRUE(other_seed.ok());
  EXPECT_NE(other_seed->digest, first->digest);
  srv.Stop();
}

TEST(ServerTest, ExperimentStreamsProgressWhenAsked) {
  Server srv(ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  Client client(Opts(srv.port()));

  ExperimentRequest req = Gmm(7, "dataflow", 2014);
  req.want_progress = true;
  std::vector<ProgressMsg> progress;
  auto res = client.RunExperiment(req, &progress);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->code, StatusCode::kOk);
  // Heartbeats fire at each iteration boundary (the cancel poll points),
  // i.e. with 0 and 1 iterations completed for a 2-iteration run.
  ASSERT_EQ(progress.size(), 2u) << "one heartbeat per iteration";
  EXPECT_EQ(progress.front().iteration, 0);
  EXPECT_EQ(progress.back().iteration, 1);
  EXPECT_EQ(progress.back().total, 2);
  EXPECT_EQ(res->iteration_seconds.size(), 2u);
  srv.Stop();
}

// The bit-identical-under-concurrency guarantee: N sessions running the
// same request stream concurrently produce digest-for-digest the results
// of a serial replay.
TEST(ServerTest, ConcurrentSessionsMatchSerialDigests) {
  Server srv(ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());

  struct Work {
    bool is_sql;
    ExperimentRequest exp;
    SqlRequest sql;
  };
  std::vector<Work> stream;
  const char* platforms[] = {"dataflow", "gas", "reldb", "bsp"};
  for (std::uint64_t i = 0; i < 8; ++i) {
    Work w;
    if (i % 4 == 3) {
      w.is_sql = true;
      w.sql = Sql(i, 7000 + i);
    } else {
      w.is_sql = false;
      w.exp = Gmm(i, platforms[i % 4], 9000 + i);
    }
    stream.push_back(w);
  }

  auto run_one = [](Client& c, const Work& w) {
    return w.is_sql ? c.RunSql(w.sql) : c.RunExperiment(w.exp);
  };

  // Serial baseline through a single session.
  std::map<std::uint64_t, std::uint64_t> serial;
  {
    Client client(Opts(srv.port()));
    for (const Work& w : stream) {
      auto res = run_one(client, w);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      serial[res->id] = res->digest;
    }
  }

  // Concurrent replay: 4 sessions, each its own client, racing.
  std::map<std::uint64_t, std::uint64_t> concurrent;
  // mlint: allow(raw-thread) — the race under test
  std::mutex mu;
  // mlint: allow(raw-thread) — see above
  std::vector<std::thread> workers;
  // mlint: allow(raw-thread) — work queue for the racing clients
  std::atomic<std::size_t> next{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      Client client(Opts(srv.port()));
      for (std::size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        auto res = run_one(client, stream[i]);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        // mlint: allow(raw-thread) — guards the digest map
        std::lock_guard<std::mutex> lock(mu);
        concurrent[res->id] = res->digest;
      }
    });
  }
  for (auto& th : workers) th.join();
  srv.Stop();

  ASSERT_EQ(concurrent.size(), serial.size());
  for (const auto& [id, digest] : serial) {
    EXPECT_EQ(concurrent.at(id), digest) << "request " << id;
  }
}

TEST(ServerTest, RejectsExperimentsThatCanNeverFit) {
  ServerOptions opts;
  opts.budget_bytes = 1000;  // smaller than any experiment's estimate
  Server srv(opts);
  ASSERT_TRUE(srv.Start().ok());

  ClientOptions copts;
  copts.port = srv.port();
  copts.retry.max_retries = 1;  // don't grind through the full backoff
  Client client(copts);
  auto res = client.RunExperiment(Gmm(1, "dataflow", 2014));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(client.stats().sheds_seen, 0);
  srv.Stop();
  EXPECT_GT(srv.admission_stats().rejected_never_fits, 0);
  // The reject path sent a well-formed kError, not a dropped connection.
  EXPECT_GT(srv.counters().errors_sent, 0);
  EXPECT_EQ(srv.counters().protocol_errors, 0);
}

TEST(ServerTest, QueuedSessionsAllCompleteWhenBudgetFitsOneAtATime) {
  constexpr int kSessions = 6;
  // Whether anyone actually *queued* depends on host scheduling: under a
  // loaded machine the first run can finish before the other sessions
  // even connect, and everyone admits instantly. Each attempt asserts the
  // hard invariants (all complete, never oversubscribed); attempts repeat
  // until at least one session demonstrably waited.
  std::int64_t admitted_after_wait = 0;
  for (int attempt = 0; attempt < 3 && admitted_after_wait == 0; ++attempt) {
    ServerOptions opts;
    opts.budget_bytes = 160e3;  // one ~86KB gmm reservation at a time
    opts.max_queue = 16;
    Server srv(opts);
    ASSERT_TRUE(srv.Start().ok());

    // mlint: allow(raw-thread) — counts completions across sessions
    std::atomic<int> ok{0};
    // mlint: allow(raw-thread) — concurrent sessions contending for admission
    std::vector<std::thread> workers;
    for (int i = 0; i < kSessions; ++i) {
      workers.emplace_back([&, i] {
        Client client(Opts(srv.port()));
        ExperimentRequest req =
            Gmm(static_cast<std::uint64_t>(i), "dataflow", 5000 + i);
        req.iterations = 8;  // hold the reservation long enough to overlap
        auto res = client.RunExperiment(req);
        // A deterministic Fail cell (res->code != kOk) still proves the
        // admission path: what matters is a well-formed terminal kResult.
        if (res.ok()) ok.fetch_add(1);
      });
      if (i == 0) {
        // Let the first session take the whole budget before the rest
        // pile in, so they contend with a live reservation.
        for (int spin = 0; spin < 2000 && srv.admission_stats().admitted == 0;
             ++spin) {
          // mlint: allow(raw-thread) — polling the server's admission state
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
    for (auto& th : workers) th.join();
    srv.Stop();

    EXPECT_EQ(ok.load(), kSessions) << "queued sessions must drain to done";
    auto stats = srv.admission_stats();
    EXPECT_EQ(stats.admitted, kSessions);
    EXPECT_LE(stats.peak_reserved_bytes, opts.budget_bytes)
        << "admission oversubscribed the budget";
    admitted_after_wait = stats.admitted_after_wait;
  }
  EXPECT_GE(admitted_after_wait, 1) << "nobody queued in any attempt";
}

TEST(ServerTest, MalformedFrameDropsThatConnectionOnly) {
  Server srv(ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());

  // Raw socket speaking garbage: a length word past the frame ceiling.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(srv.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::uint32_t bad_len = server::kMaxFrameBytes * 2;
  char hdr[5];
  std::memcpy(hdr, &bad_len, 4);
  hdr[4] = 3;  // kPing
  ASSERT_EQ(::send(fd, hdr, sizeof(hdr), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(hdr)));
  // The server must close this connection (EOF), not try to resync.
  char buf[16];
  ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_LE(n, 0) << "server kept a corrupt stream alive";
  ::close(fd);

  // ... and keep serving well-behaved clients.
  Client client(Opts(srv.port()));
  EXPECT_TRUE(client.Ping().ok());
  srv.Stop();
  EXPECT_GE(srv.counters().protocol_errors, 1);
}

TEST(ServerTest, DrainCancelsInflightWithWellFormedResponse) {
  Server srv(ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());

  // A run long enough (~seconds) that the drain below lands mid-flight.
  ExperimentRequest slow;
  slow.id = 1;
  slow.workload = "hmm";
  slow.platform = "bsp";
  slow.machines = 4;
  slow.iterations = 60;
  slow.seed = 2014;
  slow.actual_per_machine = 20;

  Status seen = Status::OK();
  // mlint: allow(raw-thread) — client blocks while the main thread drains
  std::thread runner([&] {
    ClientOptions copts;
    copts.port = srv.port();
    copts.retry.max_retries = 0;  // the drained server won't come back
    Client client(copts);
    auto res = client.RunExperiment(slow);
    if (!res.ok()) {
      seen = res.status();
    } else if (res->code != StatusCode::kOk) {
      seen = Status::Internal("failed cell");
    }
  });

  // mlint: allow(raw-thread) — lets the run get in-flight before drain
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  srv.RequestDrain();
  srv.CancelInflight();
  srv.Join();
  runner.join();

  // The client saw a clean terminal response or a clean close — never a
  // torn frame (which would surface as InvalidArgument).
  ASSERT_FALSE(seen.ok()) << "drain landed after the run finished; make "
                             "the workload slower";
  EXPECT_NE(seen.code(), StatusCode::kInvalidArgument) << seen.ToString();

  // Fully stopped: new connections are refused.
  Client late(Opts(srv.port()));
  EXPECT_FALSE(late.Connect().ok());
}

}  // namespace
}  // namespace mlbench
