// Unit tests for the discrete-event simulator: event ordering, the clock
// watch, coroutine tasks, delays, and the synchronization primitives.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace efac::sim {
namespace {

using timeconst::kMicrosecond;

// -------------------------------------------------------------- callbacks

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulator, CallbacksFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.call_at(30, [&] { order.push_back(3); });
  sim.call_at(10, [&] { order.push_back(1); });
  sim.call_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.call_at(100, [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.call_at(50, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_THROW(sim.call_at(10, [] {}), CheckFailure);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.call_at(10, [&] { ++fired; });
  sim.call_at(20, [&] { ++fired; });
  sim.call_at(30, [&] { ++fired; });
  const std::size_t n = sim.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(12345);
  EXPECT_EQ(sim.now(), 12345u);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.call_at(10, [&] {
    times.push_back(sim.now());
    sim.call_after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.call_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

// ------------------------------------------------------------ clock watch

TEST(ClockWatch, WatchesFireInBoundaryOrderAfterTheirEvents) {
  Simulator sim;
  std::vector<std::pair<char, SimTime>> log;
  const auto alive = std::make_shared<bool>(true);
  sim.watch_clock(3, alive, [&log](SimTime b) { log.emplace_back('A', b); });
  sim.watch_clock(5, alive, [&log](SimTime b) { log.emplace_back('B', b); });
  sim.call_at(6, [&] { log.emplace_back('E', sim.now()); });
  sim.call_at(7, [&] { log.emplace_back('E', sim.now()); });
  sim.run_until(15);
  // An event on a boundary comes before that boundary's tick; at a shared
  // boundary the earlier registration fires first.
  const std::vector<std::pair<char, SimTime>> expected{
      {'A', 3}, {'B', 5}, {'E', 6}, {'A', 6}, {'E', 7}, {'A', 9},
      {'B', 10}, {'A', 12}, {'A', 15}, {'B', 15}};
  EXPECT_EQ(log, expected);
  // The ticks are outside the event queue.
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(ClockWatch, WatchOfAGoneOwnerFiresNothing) {
  Simulator sim;
  int ticks = 0;
  {
    const auto alive = std::make_shared<bool>(true);
    sim.watch_clock(10, alive, [&ticks](SimTime) { ++ticks; });
    *alive = false;  // what the owner's destructor does
  }
  sim.call_at(55, [] {});
  sim.run();
  sim.run_until(100);
  EXPECT_EQ(ticks, 0);
}

TEST(ClockWatch, RunUntilFiresABoundaryAtItsDeadlineOnce) {
  Simulator sim;
  sim.run_until(5);
  std::vector<SimTime> ticks;
  const auto alive = std::make_shared<bool>(true);
  // Boundaries count from the clock at registration: 15, 25, ...
  sim.watch_clock(10, alive, [&ticks](SimTime b) { ticks.push_back(b); });
  sim.run_until(15);
  sim.run_until(15);
  sim.run_until(24);
  EXPECT_EQ(ticks, (std::vector<SimTime>{15}));
  sim.run_until(25);
  EXPECT_EQ(ticks, (std::vector<SimTime>{15, 25}));
}

// ------------------------------------------------------------------ tasks

Task<int> return_number(int n) { co_return n; }

Task<int> add_numbers() {
  const int a = co_await return_number(20);
  const int b = co_await return_number(22);
  co_return a + b;
}

TEST(Task, SpawnedTaskRunsToCompletion) {
  Simulator sim;
  int result = 0;
  sim.spawn([](int* out) -> Task<void> {
    *out = co_await add_numbers();
  }(&result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim.active_root_tasks(), 0u);
}

TEST(Task, LazyUntilAwaited) {
  Simulator sim;
  bool ran = false;
  auto t = [](bool* flag) -> Task<void> {
    *flag = true;
    co_return;
  }(&ran);
  EXPECT_FALSE(ran);  // not started yet
  sim.spawn(std::move(t));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Task, DelayAdvancesVirtualTime) {
  Simulator sim;
  SimTime observed = 0;
  sim.spawn([](Simulator& s, SimTime* out) -> Task<void> {
    co_await delay(s, 5 * kMicrosecond);
    co_await delay(s, 3 * kMicrosecond);
    *out = s.now();
  }(sim, &observed));
  sim.run();
  EXPECT_EQ(observed, 8 * kMicrosecond);
}

TEST(Task, ManyConcurrentActorsInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::pair<int, SimTime>> log;
  for (int id = 0; id < 4; ++id) {
    sim.spawn([](Simulator& s, int actor,
                 std::vector<std::pair<int, SimTime>>* out) -> Task<void> {
      for (int round = 0; round < 3; ++round) {
        co_await delay(s, static_cast<SimDuration>(10 + actor));
        out->emplace_back(actor, s.now());
      }
    }(sim, id, &log));
  }
  sim.run();
  ASSERT_EQ(log.size(), 12u);
  // Actor 0 has the shortest period, so it finishes first at t=30.
  EXPECT_EQ(log.back().second, 39u);  // actor 3: 3 * 13
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].second, log[i].second);
  }
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulator sim;
  bool caught = false;
  sim.spawn([](bool* flag) -> Task<void> {
    auto thrower = []() -> Task<int> {
      EFAC_CHECK_MSG(false, "boom");
      co_return 0;
    };
    try {
      co_await thrower();
    } catch (const CheckFailure&) {
      *flag = true;
    }
  }(&caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, DetachedExceptionSurfacesFromRun) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<void> {
    co_await delay(s, 10);
    throw std::runtime_error("detached failure");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Task, DetachedExceptionBeforeFirstSuspendSurfacesFromSpawn) {
  Simulator sim;
  EXPECT_THROW(sim.spawn([]() -> Task<void> {
                 throw std::runtime_error("immediate");
                 co_return;  // unreachable but makes this a coroutine
               }()),
               std::runtime_error);
}

TEST(Task, AbandonedActorsAreDestroyedWithSimulator) {
  // An actor parked on a long delay must not leak when the simulator is
  // destroyed (exercised under ASan in CI-like runs).
  auto sim = std::make_unique<Simulator>();
  sim->spawn([](Simulator& s) -> Task<void> {
    for (;;) co_await delay(s, 1000);
  }(*sim));
  sim->run_until(5000);
  EXPECT_EQ(sim->active_root_tasks(), 1u);
  EXPECT_NO_THROW(sim.reset());
}

// ---------------------------------------------------------------- OneShot

TEST(OneShot, SetThenWait) {
  Simulator sim;
  OneShot<int> slot{sim};
  slot.set(7);
  int got = 0;
  sim.spawn([](OneShot<int>& s, int* out) -> Task<void> {
    *out = co_await s.wait();
  }(slot, &got));
  sim.run();
  EXPECT_EQ(got, 7);
}

TEST(OneShot, WaitThenSet) {
  Simulator sim;
  OneShot<std::string> slot{sim};
  std::string got;
  sim.spawn([](OneShot<std::string>& s, std::string* out) -> Task<void> {
    *out = co_await s.wait();
  }(slot, &got));
  sim.call_at(100, [&] { slot.set("late"); });
  sim.run();
  EXPECT_EQ(got, "late");
}

TEST(OneShot, DoubleSetThrows) {
  Simulator sim;
  OneShot<int> slot{sim};
  slot.set(1);
  EXPECT_THROW(slot.set(2), CheckFailure);
}

// ------------------------------------------------------------------- Gate

TEST(Gate, WaitersReleaseOnOpen) {
  Simulator sim;
  Gate gate{sim};
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Gate& g, int* out) -> Task<void> {
      co_await g.wait();
      ++*out;
    }(gate, &released));
  }
  sim.run();
  EXPECT_EQ(released, 0);
  gate.open();
  sim.run();
  EXPECT_EQ(released, 3);
}

TEST(Gate, OpenGatePassesImmediately) {
  Simulator sim;
  Gate gate{sim, /*open=*/true};
  bool passed = false;
  sim.spawn([](Gate& g, bool* out) -> Task<void> {
    co_await g.wait();
    *out = true;
  }(gate, &passed));
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(Gate, CloseBlocksSubsequentWaiters) {
  Simulator sim;
  Gate gate{sim, /*open=*/true};
  gate.close();
  bool passed = false;
  sim.spawn([](Gate& g, bool* out) -> Task<void> {
    co_await g.wait();
    *out = true;
  }(gate, &passed));
  sim.run();
  EXPECT_FALSE(passed);
  gate.open();
  sim.run();
  EXPECT_TRUE(passed);
}

// -------------------------------------------------------------- Semaphore

TEST(Semaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore cores{sim, 2};
  int peak = 0;
  int active = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn([](Simulator& s, Semaphore& sem, int* act,
                 int* pk) -> Task<void> {
      co_await sem.acquire();
      ++*act;
      *pk = std::max(*pk, *act);
      co_await delay(s, 100);
      --*act;
      sem.release();
    }(sim, cores, &active, &peak));
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(cores.available(), 2u);
}

TEST(Semaphore, FifoHandOff) {
  Simulator sim;
  Semaphore sem{sim, 1};
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, Semaphore& sm, int id,
                 std::vector<int>* out) -> Task<void> {
      co_await sm.acquire();
      out->push_back(id);
      co_await delay(s, 10);
      sm.release();
    }(sim, sem, i, &order));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Semaphore, OverReleaseThrows) {
  Simulator sim;
  Semaphore sem{sim, 1};
  EXPECT_THROW(sem.release(), CheckFailure);
}

TEST(Semaphore, HandOffDoesNotDoubleConsume) {
  // Regression: a release-to-waiter followed by a counter release at the
  // same instant must leave exactly the right number of permits.
  Simulator sim;
  Semaphore sem{sim, 2};
  sim.spawn([](Simulator& s, Semaphore& sm) -> Task<void> {
    co_await sm.acquire();
    co_await sm.acquire();  // both permits held
    co_await delay(s, 10);
    sm.release();
    sm.release();
  }(sim, sem));
  bool ran = false;
  sim.spawn([](Semaphore& sm, bool* out) -> Task<void> {
    co_await sm.acquire();  // waits until t=10 hand-off
    *out = true;
    sm.release();
  }(sem, &ran));
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, LockReleasesOnScopeExit) {
  Simulator sim;
  Semaphore sem{sim, 1};
  sim.spawn([](Simulator& s, Semaphore& sm) -> Task<void> {
    {
      SemaphoreLock lock = co_await SemaphoreLock::acquire(sm);
      co_await delay(s, 5);
      EXPECT_EQ(sm.available(), 0u);
    }
    EXPECT_EQ(sm.available(), 1u);
  }(sim, sem));
  sim.run();
  EXPECT_EQ(sem.available(), 1u);
}

// ---------------------------------------------------------------- Channel

TEST(Channel, PushThenPop) {
  Simulator sim;
  Channel<int> ch{sim};
  ch.push(1);
  ch.push(2);
  std::vector<int> got;
  sim.spawn([](Channel<int>& c, std::vector<int>* out) -> Task<void> {
    out->push_back(co_await c.pop());
    out->push_back(co_await c.pop());
  }(ch, &got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, PopBlocksUntilPush) {
  Simulator sim;
  Channel<int> ch{sim};
  int got = 0;
  sim.spawn([](Channel<int>& c, int* out) -> Task<void> {
    *out = co_await c.pop();
  }(ch, &got));
  sim.run();
  EXPECT_EQ(got, 0);
  sim.call_at(sim.now() + 10, [&] { ch.push(99); });
  sim.run();
  EXPECT_EQ(got, 99);
}

TEST(Channel, MultipleConsumersFifo) {
  Simulator sim;
  Channel<int> ch{sim};
  std::vector<std::pair<int, int>> got;  // (consumer, value)
  for (int id = 0; id < 3; ++id) {
    sim.spawn([](Channel<int>& c, int consumer,
                 std::vector<std::pair<int, int>>* out) -> Task<void> {
      const int v = co_await c.pop();
      out->emplace_back(consumer, v);
    }(ch, id, &got));
  }
  sim.run();
  ch.push(10);
  ch.push(20);
  ch.push(30);
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  // Oldest waiter gets the first value.
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 10}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 20}));
  EXPECT_EQ(got[2], (std::pair<int, int>{2, 30}));
}

TEST(Channel, HandOffCannotBeStolen) {
  // A value pushed to a waiting consumer must go to that consumer even if
  // another consumer pops at the same instant.
  Simulator sim;
  Channel<int> ch{sim};
  std::vector<int> first, second;
  sim.spawn([](Channel<int>& c, std::vector<int>* out) -> Task<void> {
    out->push_back(co_await c.pop());
  }(ch, &first));
  sim.run();  // first consumer now waiting
  sim.call_at(10, [&] { ch.push(1); });
  sim.call_at(10, [&] {
    // Second consumer arrives at the same instant as the push.
    sim.spawn([](Channel<int>& c, std::vector<int>* out) -> Task<void> {
      out->push_back(co_await c.pop());
    }(ch, &second));
  });
  sim.call_at(10, [&] { ch.push(2); });
  sim.run();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0], 1);
  EXPECT_EQ(second[0], 2);
}

TEST(Channel, SizeTracksQueue) {
  Simulator sim;
  Channel<int> ch{sim};
  EXPECT_TRUE(ch.empty());
  ch.push(1);
  ch.push(2);
  EXPECT_EQ(ch.size(), 2u);
}

// ----------------------------------------------------- producer/consumer

TEST(Integration, ProducerConsumerPipelineKeepsVirtualTime) {
  Simulator sim;
  Channel<int> queue{sim};
  std::vector<SimTime> service_times;

  // Producer: one item every 100 ns.
  sim.spawn([](Simulator& s, Channel<int>& q) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await delay(s, 100);
      q.push(i);
    }
  }(sim, queue));

  // Consumer: 250 ns of service per item — it is the bottleneck.
  sim.spawn([](Simulator& s, Channel<int>& q,
               std::vector<SimTime>* out) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await q.pop();
      co_await delay(s, 250);
      out->push_back(s.now());
    }
  }(sim, queue, &service_times));

  sim.run();
  ASSERT_EQ(service_times.size(), 10u);
  // First completion: arrival at 100 + 250 of service.
  EXPECT_EQ(service_times.front(), 350u);
  // Steady state is limited by the 250 ns service time.
  EXPECT_EQ(service_times.back(), 100 + 250 * 10u);
}

// ------------------------------------------------------------- RunContext
//
// Every event runs under the context it was scheduled in; a sync-primitive
// wake-up runs under its waiter's. Context X is (actor 1, op 10), Y is
// (actor 2, op 20); the flight-recorder domain is an opaque address.

constexpr int kLog = 0;

void enter(Simulator& sim, std::uint32_t actor, std::uint32_t op) {
  sim.set_actor(actor);
  sim.set_op(&kLog, op);
}

void expect_context(const Context& got, std::uint32_t actor,
                    std::uint32_t op) {
  EXPECT_EQ(got.actor, actor);
  EXPECT_EQ(got.op, op);
  EXPECT_EQ(got.domain, &kLog);
}

TEST(RunContext, CallbackRunsUnderItsSchedulersContext) {
  Simulator sim;
  Context seen;
  enter(sim, 1, 10);
  sim.call_at(20, [&] { seen = sim.context(); });
  // A coroutine of Y resumes in between, leaving Y's context behind.
  enter(sim, 2, 20);
  sim.spawn([](Simulator& s) -> Task<void> { co_await delay(s, 10); }(sim));
  enter(sim, 0, 0);
  sim.run();
  expect_context(seen, 1, 10);
}

TEST(RunContext, DelayResumesUnderTheContextItSuspendedIn) {
  Simulator sim;
  Context resumed;
  enter(sim, 1, 10);
  sim.spawn([](Simulator& s, Context* out) -> Task<void> {
    co_await delay(s, 20);
    *out = s.context();
  }(sim, &resumed));
  enter(sim, 2, 20);
  sim.call_at(10, [&] { enter(sim, 3, 30); });
  sim.run();
  expect_context(resumed, 1, 10);
}

TEST(RunContext, OneShotWakesItsWaiterUnderTheWaitersContext) {
  Simulator sim;
  OneShot<int> slot{sim};
  Context resumed;
  enter(sim, 1, 10);
  sim.spawn([](Simulator& s, OneShot<int>& o, Context* out) -> Task<void> {
    static_cast<void>(co_await o.wait());
    *out = s.context();
  }(sim, slot, &resumed));
  enter(sim, 2, 20);
  sim.call_at(10, [&] { slot.set(1); });
  sim.run();
  expect_context(resumed, 1, 10);
}

TEST(RunContext, GateWakesEachWaiterUnderItsOwnContext) {
  Simulator sim;
  Gate gate{sim};
  std::vector<Context> resumed(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    enter(sim, 1 + 2 * i, 10 + 20 * i);  // (1, 10), then (3, 30)
    sim.spawn([](Simulator& s, Gate& g, Context* out) -> Task<void> {
      co_await g.wait();
      *out = s.context();
    }(sim, gate, &resumed[i]));
  }
  enter(sim, 2, 20);
  sim.call_at(10, [&] { gate.open(); });
  sim.run();
  expect_context(resumed[0], 1, 10);
  expect_context(resumed[1], 3, 30);
}

TEST(RunContext, SemaphoreHandsOffUnderTheWaitersContext) {
  Simulator sim;
  Semaphore sem{sim, 1};
  Context resumed;
  enter(sim, 2, 20);
  sim.spawn([](Simulator& s, Semaphore& sm) -> Task<void> {
    co_await sm.acquire();
    co_await delay(s, 10);
    sm.release();
  }(sim, sem));
  enter(sim, 1, 10);
  sim.spawn([](Simulator& s, Semaphore& sm, Context* out) -> Task<void> {
    co_await sm.acquire();
    *out = s.context();
    sm.release();
  }(sim, sem, &resumed));
  sim.run();
  expect_context(resumed, 1, 10);
}

TEST(RunContext, ChannelHandsTheValueToItsWaiterUnderTheWaitersContext) {
  Simulator sim;
  Channel<int> ch{sim};
  Context resumed;
  enter(sim, 1, 10);
  sim.spawn([](Simulator& s, Channel<int>& c, Context* out) -> Task<void> {
    static_cast<void>(co_await c.pop());
    *out = s.context();
  }(sim, ch, &resumed));
  enter(sim, 2, 20);
  sim.call_at(10, [&] { ch.push(1); });
  sim.run();
  expect_context(resumed, 1, 10);
}

}  // namespace
}  // namespace efac::sim
