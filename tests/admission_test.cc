#include <gtest/gtest.h>

// mlint: allow(raw-thread) — this suite tests the admission controller's
// cross-thread contract (races for last bytes, FIFO wakeups) and must
// observe it from real concurrent callers
#include <atomic>
#include <chrono>
// mlint: allow(raw-thread) — see above
#include <mutex>
// mlint: allow(raw-thread) — see above
#include <thread>
#include <vector>

#include "server/admission.h"
#include "sim/reservation.h"

namespace mlbench {
namespace {

using server::AdmissionController;
using server::Ticket;
using sim::ReservationLedger;

// ---- Pure ledger edge cases -------------------------------------------------

TEST(ReservationLedgerTest, ExactFitSucceedsAndOneMoreByteDoesNot) {
  ReservationLedger ledger(100.0);
  auto a = ledger.Reserve(60.0, "a");
  ASSERT_TRUE(a.ok());
  // Exactly the remaining budget must fit — no hidden slack.
  auto b = ledger.Reserve(40.0, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ledger.available_bytes(), 0.0);
  auto c = ledger.Reserve(1e-9, "c");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Releasing frees exactly what was reserved.
  ASSERT_TRUE(ledger.Release(*b).ok());
  EXPECT_EQ(ledger.available_bytes(), 40.0);
  EXPECT_TRUE(ledger.Fits(40.0));
}

TEST(ReservationLedgerTest, NeverFitsIsAboutTheWholeBudget) {
  ReservationLedger ledger(100.0);
  EXPECT_FALSE(ledger.NeverFits(100.0));
  EXPECT_TRUE(ledger.NeverFits(100.5));
  ASSERT_TRUE(ledger.Reserve(100.0, "all").ok());
  // Still not "never": it would fit on an idle ledger.
  EXPECT_FALSE(ledger.NeverFits(100.0));
  EXPECT_FALSE(ledger.Fits(1.0));
}

TEST(ReservationLedgerTest, DoubleReleaseIsAnError) {
  ReservationLedger ledger(10.0);
  auto id = ledger.Reserve(10.0, "x");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(ledger.Release(*id).ok());
  Status again = ledger.Release(*id);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
  EXPECT_EQ(ledger.reserved_bytes(), 0.0);
}

TEST(ReservationLedgerTest, PeakTracksHighWaterMark) {
  ReservationLedger ledger(100.0);
  auto a = ledger.Reserve(70.0, "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ledger.Release(*a).ok());
  auto b = ledger.Reserve(30.0, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ledger.peak_reserved_bytes(), 70.0);
  EXPECT_EQ(ledger.reserved_bytes(), 30.0);
  EXPECT_EQ(ledger.active(), 1u);
}

// ---- Controller: admission, shedding, FIFO ----------------------------------

TEST(AdmissionControllerTest, ExactFitAdmitsImmediately) {
  AdmissionController ctl(100.0, /*max_queue=*/4);
  auto t = ctl.Admit(100.0, /*deadline_ms=*/0, "whole budget");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->admitted());
  EXPECT_EQ(ctl.reserved_bytes(), 100.0);
  EXPECT_EQ(ctl.stats().admitted, 1);
  EXPECT_EQ(ctl.stats().admitted_after_wait, 0);
}

TEST(AdmissionControllerTest, NeverFitsRejectsWithoutQueueing) {
  AdmissionController ctl(100.0, /*max_queue=*/4);
  auto t = ctl.Admit(101.0, /*deadline_ms=*/0, "too big");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctl.stats().rejected_never_fits, 1);
  EXPECT_EQ(ctl.queue_depth(), 0u);
}

TEST(AdmissionControllerTest, ReservationReleasedOnFailurePath) {
  AdmissionController ctl(100.0, /*max_queue=*/4);
  // A session that admits and then bails early (engine failure, protocol
  // error, crash recovery) must return its bytes via the Ticket's RAII —
  // no explicit release call on the failure path.
  auto failing_session = [&ctl]() -> Status {
    auto t = ctl.Admit(80.0, 0, "doomed run");
    MLBENCH_RETURN_NOT_OK(t.status());
    return Status::Internal("simulated mid-run crash");
  };
  EXPECT_FALSE(failing_session().ok());
  EXPECT_EQ(ctl.reserved_bytes(), 0.0);
  // The budget is whole again: an exact-fit admission still works.
  auto t = ctl.Admit(100.0, 0, "after crash");
  ASSERT_TRUE(t.ok());
}

TEST(AdmissionControllerTest, DeadlineShedsWhileQueued) {
  AdmissionController ctl(100.0, /*max_queue=*/4);
  auto hog = ctl.Admit(100.0, 0, "hog");
  ASSERT_TRUE(hog.ok());
  auto start = std::chrono::steady_clock::now();
  auto t = ctl.Admit(10.0, /*deadline_ms=*/50, "impatient");
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(waited.count(), 40);
  EXPECT_EQ(ctl.stats().shed_deadline, 1);
  EXPECT_EQ(ctl.queue_depth(), 0u) << "shed waiter must leave the queue";
}

TEST(AdmissionControllerTest, FullQueueShedsImmediately) {
  AdmissionController ctl(10.0, /*max_queue=*/1);
  auto hog = ctl.Admit(10.0, 0, "hog");
  ASSERT_TRUE(hog.ok());

  // mlint: allow(raw-thread) — a real blocked waiter occupies the queue
  std::thread waiter([&] {
    // This occupies the single queue slot until the hog releases.
    auto t = ctl.Admit(10.0, 0, "patient");
    EXPECT_TRUE(t.ok());
  });
  // mlint: allow(raw-thread) — test synchronisation
  while (ctl.queue_depth() < 1) std::this_thread::yield();

  // Queue full: the next request is shed now, not enqueued.
  auto shed = ctl.Admit(10.0, 0, "one too many");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctl.stats().shed_queue_full, 1);

  hog->Release();
  waiter.join();
  EXPECT_EQ(ctl.stats().admitted_after_wait, 1);
}

TEST(AdmissionControllerTest, TwoSessionsRaceForTheLastBytes) {
  AdmissionController ctl(100.0, /*max_queue=*/4);
  auto held = ctl.Admit(60.0, 0, "held");
  ASSERT_TRUE(held.ok());

  // Two sessions race for the remaining 40 bytes. Exactly one can hold
  // them at a time; the budget must never oversubscribe, and both must
  // eventually be admitted once the winner releases.
  // mlint: allow(raw-thread) — observes the race under test
  std::atomic<int> concurrently_holding{0};
  // mlint: allow(raw-thread) — observes the race under test
  std::atomic<int> max_holding{0};
  // mlint: allow(raw-thread) — the race under test
  std::vector<std::thread> racers;
  for (int i = 0; i < 2; ++i) {
    racers.emplace_back([&ctl, &concurrently_holding, &max_holding] {
      auto t = ctl.Admit(40.0, /*deadline_ms=*/5000, "racer");
      ASSERT_TRUE(t.ok());
      int now = concurrently_holding.fetch_add(1) + 1;
      int seen = max_holding.load();
      while (now > seen && !max_holding.compare_exchange_weak(seen, now)) {
      }
      // The first winner keeps the bytes until the other racer has
      // queued behind it (bounded), so the race happens even when a
      // loaded host starts the second thread late.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (ctl.stats().admitted < 3 && ctl.stats().peak_queue_depth == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        // mlint: allow(raw-thread) — polls for the other racer to queue
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // mlint: allow(raw-thread) — widens the hold window
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrently_holding.fetch_sub(1);
    });
  }
  for (auto& th : racers) th.join();

  EXPECT_EQ(max_holding.load(), 1) << "both racers held the last bytes";
  EXPECT_LE(ctl.stats().peak_reserved_bytes, 100.0);
  EXPECT_EQ(ctl.stats().admitted, 3);
  EXPECT_GE(ctl.stats().admitted_after_wait, 1);
  EXPECT_EQ(ctl.reserved_bytes(), 60.0);  // only `held` is still live
}

TEST(AdmissionControllerTest, QueueThenAdmitOrderIsFifoDeterministic) {
  AdmissionController ctl(100.0, /*max_queue=*/8);
  auto hog = ctl.Admit(100.0, 0, "hog");
  ASSERT_TRUE(hog.ok());

  // Enqueue four waiters in a known arrival order (each thread is only
  // started once the previous one is visibly queued), then free the
  // budget. Strict FIFO admission means the admit order must equal the
  // arrival order on every run — this is the determinism half of the
  // queue-then-admit contract.
  // mlint: allow(raw-thread) — arrival order is the property under test
  std::mutex order_mu;
  std::vector<int> admit_order;
  // mlint: allow(raw-thread) — see above
  std::vector<std::thread> waiters;
  constexpr int kWaiters = 4;
  for (int i = 0; i < kWaiters; ++i) {
    std::size_t depth_before = ctl.queue_depth();
    waiters.emplace_back([&ctl, &order_mu, &admit_order, i] {
      auto t = ctl.Admit(100.0, /*deadline_ms=*/10000, "waiter");
      ASSERT_TRUE(t.ok()) << "waiter " << i;
      {
        // mlint: allow(raw-thread) — guards the admit-order log
        std::lock_guard<std::mutex> lock(order_mu);
        admit_order.push_back(i);
      }
      // Ticket released at scope end; the next-in-line waiter admits.
    });
    // mlint: allow(raw-thread) — pins the arrival order
    while (ctl.queue_depth() == depth_before) std::this_thread::yield();
  }

  hog->Release();
  for (auto& th : waiters) th.join();

  ASSERT_EQ(admit_order.size(), static_cast<std::size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(admit_order[i], i) << "FIFO order violated at position " << i;
  }
  EXPECT_EQ(ctl.stats().admitted, 1 + kWaiters);
  EXPECT_EQ(ctl.stats().admitted_after_wait, kWaiters);
}

TEST(AdmissionControllerTest, ShutdownWakesWaitersAndFailsNewAdmits) {
  AdmissionController ctl(10.0, /*max_queue=*/4);
  auto hog = ctl.Admit(10.0, 0, "hog");
  ASSERT_TRUE(hog.ok());

  // mlint: allow(raw-thread) — waiter must be woken by Shutdown
  std::thread waiter([&ctl] {
    auto t = ctl.Admit(10.0, 0, "waiter");
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kResourceExhausted);
  });
  // mlint: allow(raw-thread) — test synchronisation
  while (ctl.queue_depth() < 1) std::this_thread::yield();

  ctl.Shutdown();
  waiter.join();

  auto late = ctl.Admit(1.0, 0, "late");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kResourceExhausted);
  // The hog's live ticket still releases cleanly after shutdown.
  hog->Release();
  EXPECT_EQ(ctl.reserved_bytes(), 0.0);
}

}  // namespace
}  // namespace mlbench
