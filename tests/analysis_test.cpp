// The conflict sanitizer: happens-before classification, durability lint,
// arena wiring, end-to-end cleanliness of all ten systems, and the
// determinism guarantee (the checker observes the schedule, never alters
// it).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "analysis/checker.hpp"
#include "nvm/arena.hpp"
#include "sim/simulator.hpp"
#include "stores/factory.hpp"
#include "workload/runner.hpp"

namespace efac {
namespace {

using analysis::AnalysisOptions;
using analysis::Checker;
using analysis::Guard;
using analysis::Violation;
using analysis::ViolationKind;

AnalysisOptions enabled_options() {
  AnalysisOptions options;
  options.enabled = true;
  return options;
}

// ------------------------------------------------- race classification

TEST(Checker, GuardOutlivingItsCheckerDoesNotTouchIt) {
  // Guards held across co_await live in coroutine frames, which the
  // Simulator destroys after the store (and its checker) at teardown.
  sim::Simulator sim;
  auto checker = std::make_unique<Checker>(sim, enabled_options());
  auto guard = std::make_unique<analysis::AccessGuard>(
      checker.get(), Guard::kCrcVerify, "test.outlives");
  checker.reset();
  guard.reset();  // a use after free here is what ASan builds catch
}

TEST(Checker, UnorderedCrossActorReadIsARace) {
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  const std::uint32_t a = checker.register_client_actor();
  const std::uint32_t b = checker.register_client_actor();
  checker.switch_to(a, "put");
  checker.on_cpu_write(64, 8);
  checker.switch_to(b, "get");
  checker.on_read(64, 8);
  EXPECT_EQ(checker.unguarded_races(), 1u);
  EXPECT_FALSE(checker.clean());
  ASSERT_FALSE(checker.violations().empty());
  const Violation& v = checker.violations().front();
  EXPECT_EQ(v.kind, ViolationKind::kReadWriteRace);
  EXPECT_EQ(v.actor, b);
  EXPECT_EQ(v.prior_actor, a);
  // The report must be actionable: both actors, both sites, the range.
  const std::string report = checker.report();
  EXPECT_NE(report.find("client-1"), std::string::npos);
  EXPECT_NE(report.find("client-2"), std::string::npos);
  EXPECT_NE(report.find("read-write race"), std::string::npos);
  EXPECT_NE(report.find("[64"), std::string::npos);
}

TEST(Checker, HappensBeforeEdgeOrdersTheAccesses) {
  // A writes, releases its clock (e.g. into an RPC reply), B acquires it:
  // the same read that raced above is now ordered.
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  const std::uint32_t a = checker.register_client_actor();
  const std::uint32_t b = checker.register_client_actor();
  checker.switch_to(a, "put");
  checker.on_cpu_write(64, 8);
  sim::VectorClock clock;
  checker.release(clock);
  checker.switch_to(b, "get");
  checker.acquire(clock);
  checker.on_read(64, 8);
  EXPECT_EQ(checker.unguarded_races(), 0u);
  EXPECT_TRUE(checker.clean());
}

TEST(Checker, ReadInsideDmaArrivalWindowIsTornEvenWhenOrdered) {
  // A DMA payload materializes across [0, 5000): a reader at t=0 sees a
  // torn prefix no matter what happens-before says.
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  const std::uint32_t a = checker.register_client_actor();
  const std::uint32_t b = checker.register_client_actor();
  checker.switch_to(a, "put");
  checker.on_dma_write(128, 64, 0, 5000);
  sim::VectorClock clock;
  checker.release(clock);
  checker.switch_to(b, "get");
  checker.acquire(clock);
  checker.on_read(128, 64);
  EXPECT_EQ(checker.unguarded_races(), 1u);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            ViolationKind::kReadOfInFlightWrite);
}

TEST(Checker, ReaderSideGuardExcusesTheConflict) {
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  const std::uint32_t a = checker.register_client_actor();
  const std::uint32_t b = checker.register_client_actor();
  checker.switch_to(a, "put");
  checker.on_cpu_write(64, 8);
  checker.switch_to(b, "get");
  {
    analysis::AccessGuard guard(&checker, Guard::kCrcVerify, "test.verify");
    checker.on_read(64, 8);
  }
  EXPECT_EQ(checker.unguarded_races(), 0u);
  EXPECT_EQ(checker.guarded_conflicts(), 1u);
  EXPECT_TRUE(checker.clean());
}

TEST(Checker, WriterSideGuardExcusesTheConflict) {
  // kDeclaredRacy on the writer covers later unguarded readers — the
  // "either side" excuse rule.
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  const std::uint32_t a = checker.register_client_actor();
  const std::uint32_t b = checker.register_client_actor();
  checker.switch_to(a, "put");
  {
    analysis::AccessGuard guard(&checker, Guard::kDeclaredRacy,
                                "test.overwrite");
    checker.on_cpu_write(64, 8);
  }
  checker.switch_to(b, "get");
  checker.on_read(64, 8);
  EXPECT_EQ(checker.unguarded_races(), 0u);
  EXPECT_EQ(checker.guarded_conflicts(), 1u);
}

// ----------------------------------------------------- durability lint

TEST(Checker, DurabilityLintFlagsUnflushedBytes) {
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  const std::uint32_t a = checker.register_client_actor();
  checker.switch_to(a, "put");
  checker.on_cpu_write(0, 64);
  checker.assert_durable(0, 64, "test.claim");
  EXPECT_EQ(checker.durability_violations(), 1u);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            ViolationKind::kUnflushedDurability);
  // After the flush the same claim is legitimate.
  checker.on_flush(0, 64);
  checker.assert_durable(0, 64, "test.claim");
  EXPECT_EQ(checker.durability_violations(), 1u);
}

TEST(Checker, DurabilityLintFlagsInFlightDma) {
  // Flushing does not help while the payload is still arriving: the lint
  // catches the exposed-before-landed case separately.
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  const std::uint32_t a = checker.register_client_actor();
  checker.switch_to(a, "put");
  checker.on_dma_write(256, 64, 0, 9000);
  checker.on_flush(256, 64);
  checker.assert_durable(256, 64, "test.claim");
  EXPECT_EQ(checker.durability_violations(), 1u);
  ASSERT_FALSE(checker.violations().empty());
  const Violation& v = checker.violations().front();
  EXPECT_EQ(v.kind, ViolationKind::kUnflushedDurability);
  EXPECT_EQ(v.prior_actor, a);
  EXPECT_EQ(v.prior_time, 9000u);
}

TEST(Checker, AllowUnflushedDurabilitySuppressesTheLint) {
  // Fault plans that intentionally compromise durability (dropped
  // persists) run with the lint suppressed but still counted.
  sim::Simulator sim;
  AnalysisOptions options = enabled_options();
  options.allow_unflushed_durability = true;
  Checker checker{sim, options};
  const std::uint32_t a = checker.register_client_actor();
  checker.switch_to(a, "put");
  checker.on_cpu_write(0, 64);
  checker.assert_durable(0, 64, "test.claim");
  EXPECT_EQ(checker.durability_violations(), 0u);
  EXPECT_TRUE(checker.clean());
}

// --------------------------------------------------------- arena wiring

TEST(Checker, ArenaAccessHooksFeedTheChecker) {
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  nvm::Arena arena{sim, 64 * 1024};
  arena.set_checker(&checker);
  const std::uint32_t a = checker.register_client_actor();
  const std::uint32_t b = checker.register_client_actor();
  const Bytes payload(32, std::uint8_t{0xAB});
  checker.switch_to(a, "put");
  arena.store(512, payload);
  checker.switch_to(b, "get");
  (void)arena.load(512, 32);
  EXPECT_EQ(checker.unguarded_races(), 1u);

  // A crash voids all shadow state: post-crash reads are fresh.
  arena.crash();
  checker.switch_to(b, "get");
  (void)arena.load(512, 32);
  EXPECT_EQ(checker.unguarded_races(), 1u);
}

TEST(Checker, ForgetRegionDropsStaleStamps) {
  // Pool recycling: a retired object's stamps must not conflict with the
  // fresh allocation reusing its bytes.
  sim::Simulator sim;
  Checker checker{sim, enabled_options()};
  nvm::Arena arena{sim, 64 * 1024};
  arena.set_checker(&checker);
  const std::uint32_t a = checker.register_client_actor();
  const std::uint32_t b = checker.register_client_actor();
  checker.switch_to(a, "put");
  arena.store(1024, Bytes(16, std::uint8_t{1}));
  arena.forget_shadow(1024, 16);
  checker.switch_to(b, "put");
  arena.store(1024, Bytes(16, std::uint8_t{2}));
  EXPECT_EQ(checker.unguarded_races(), 0u);
}

// ------------------------------------------------ end-to-end workloads

workload::RunOptions small_run_options() {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kWriteIntensive;
  options.workload.key_count = 48;
  options.workload.key_len = 16;
  options.workload.value_len = 128;
  options.workload.seed = 0xA11;
  options.clients = 3;
  options.ops_per_client = 60;
  return options;
}

TEST(AnalysisWorkload, AllTenSystemsRunCleanUnderTheChecker) {
  const workload::RunOptions options = small_run_options();
  std::uint64_t guarded = 0;
  for (const stores::SystemKind kind : stores::all_systems()) {
    auto sim = std::make_unique<sim::Simulator>();
    stores::StoreConfig config = workload::sized_store_config(options);
    config.analysis.enabled = true;
    stores::Cluster cluster = stores::make_cluster(*sim, kind, config);
    workload::run_workload(*sim, cluster, options);
    Checker* checker = cluster.store->checker();
    ASSERT_NE(checker, nullptr) << stores::to_string(kind);
    EXPECT_TRUE(checker->clean())
        << stores::to_string(kind) << ":\n"
        << checker->report();
    guarded += checker->guarded_conflicts();
  }
  // The tolerated races the paper designs around must actually be seen —
  // a checker that never observes a conflict is not checking anything.
  EXPECT_GT(guarded, 0u);
}

TEST(AnalysisWorkload, CheckerPublishesItsCounters) {
  const workload::RunOptions options = small_run_options();
  auto sim = std::make_unique<sim::Simulator>();
  stores::StoreConfig config = workload::sized_store_config(options);
  config.analysis.enabled = true;
  stores::Cluster cluster =
      stores::make_cluster(*sim, stores::SystemKind::kEFactory, config);
  workload::RunResult result = workload::run_workload(*sim, cluster, options);
  const metrics::Counter* reads =
      result.metrics.find_counter("analysis.reads_checked");
  const metrics::Counter* writes =
      result.metrics.find_counter("analysis.writes_checked");
  ASSERT_NE(reads, nullptr);
  ASSERT_NE(writes, nullptr);
  EXPECT_GT(reads->value(), 0u);
  EXPECT_GT(writes->value(), 0u);
}

// ----------------------------------------------------------- determinism

TEST(AnalysisDeterminism, CheckerDoesNotPerturbTheSchedule) {
  // The sanitizer must be a pure observer: enabling it cannot change the
  // event count or the dispatch order of a seeded run.
  const workload::RunOptions options = small_run_options();
  const auto run = [&options](bool analysis) {
    auto sim = std::make_unique<sim::Simulator>();
    stores::StoreConfig config = workload::sized_store_config(options);
    config.analysis.enabled = analysis;
    stores::Cluster cluster =
        stores::make_cluster(*sim, stores::SystemKind::kEFactory, config);
    workload::run_workload(*sim, cluster, options);
    return std::pair{sim->events_processed(), sim->dispatch_hash()};
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

}  // namespace
}  // namespace efac
