// RetryPolicy unit tests: the backoff schedule, the seeded jitter stream,
// and the KvClient retry wrappers (attempt budget, give-up accounting,
// pass-through when disabled). Uses a scripted in-test client so every
// attempt outcome is exact — no store, no network.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/kv_client.hpp"
#include "stores/retry.hpp"

namespace efac {
namespace {

using stores::RetryPolicy;

// ------------------------------------------------------------ the policy

TEST(RetryPolicy, BackoffDoublesUpToCapWithoutJitter) {
  RetryPolicy p;
  p.backoff_base_ns = 1000;
  p.backoff_cap_ns = 8000;
  p.jitter = 0.0;
  Rng rng{1};
  EXPECT_EQ(p.backoff(1, rng), 1000);
  EXPECT_EQ(p.backoff(2, rng), 2000);
  EXPECT_EQ(p.backoff(3, rng), 4000);
  EXPECT_EQ(p.backoff(4, rng), 8000);
  EXPECT_EQ(p.backoff(5, rng), 8000);   // capped from here on
  EXPECT_EQ(p.backoff(64, rng), 8000);  // shift is clamped: no UB, no wrap
}

TEST(RetryPolicy, JitterStreamIsSeededAndBounded) {
  RetryPolicy p;
  p.backoff_base_ns = 10'000;
  p.backoff_cap_ns = 1'000'000;
  p.jitter = 0.25;
  const auto sequence = [&p](std::uint64_t seed) {
    Rng rng{seed};
    std::vector<SimDuration> out;
    for (int attempt = 1; attempt <= 6; ++attempt) {
      out.push_back(p.backoff(attempt, rng));
    }
    return out;
  };
  const std::vector<SimDuration> a = sequence(42);
  EXPECT_EQ(a, sequence(42));  // same seed -> bit-identical delays
  EXPECT_NE(a, sequence(43));  // a different stream actually differs
  for (int i = 0; i < 6; ++i) {
    const SimDuration nominal =
        std::min<SimDuration>(SimDuration{10'000} << i, 1'000'000);
    EXPECT_GE(a[i], static_cast<SimDuration>(0.75 * nominal) - 1) << i;
    EXPECT_LE(a[i], static_cast<SimDuration>(1.25 * nominal) + 1) << i;
  }
}

TEST(RetryPolicy, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(RetryPolicy::retryable(StatusCode::kTimeout));
  EXPECT_TRUE(RetryPolicy::retryable(StatusCode::kUnavailable));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kOk));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kNotFound));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kCorrupt));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kOutOfSpace));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kUnimplemented));
}

TEST(RetryPolicy, DefaultPolicyIsDisabled) {
  EXPECT_FALSE(RetryPolicy{}.enabled());
  RetryPolicy p;
  p.max_attempts = 2;
  EXPECT_TRUE(p.enabled());
}

// --------------------------------------------------------- the wrappers

/// A client whose attempt outcomes are scripted: attempt k returns
/// script[k] (sticking on the last element), after 10 ns of virtual time.
class ScriptedClient final : public stores::KvClient {
 public:
  ScriptedClient(sim::Simulator& sim, stores::ClientOptions options,
                 std::vector<StatusCode> script)
      : KvClient(sim, options), script_(std::move(script)) {}

  int attempts = 0;

 protected:
  sim::Task<Status> put_attempt(Bytes, Bytes) override {
    const StatusCode code = next();
    co_await sim::delay(sim_, 10);
    co_return Status{code};
  }
  sim::Task<Expected<Bytes>> get_attempt(Bytes) override {
    const StatusCode code = next();
    co_await sim::delay(sim_, 10);
    if (code == StatusCode::kOk) co_return Bytes{1, 2, 3};
    co_return Status{code};
  }
  // del_attempt deliberately not overridden: exercises the kUnimplemented
  // default below.
  // Never reached: has_batch_put() is false, so put_batch pipelines the
  // members through put_attempt.
  sim::Task<std::vector<Status>> put_batch_attempt(
      std::vector<PutOp>&, const std::vector<std::uint32_t>&) override {
    co_return std::vector<Status>{};
  }

 private:
  StatusCode next() {
    const auto i = static_cast<std::size_t>(attempts);
    ++attempts;
    return script_[std::min(i, script_.size() - 1)];
  }
  std::vector<StatusCode> script_;
};

stores::ClientOptions retrying_options(int max_attempts) {
  stores::ClientOptions options;
  options.retry.max_attempts = max_attempts;
  options.retry.backoff_base_ns = 1000;
  options.retry.backoff_cap_ns = 8000;
  options.retry.jitter = 0.0;  // exact virtual-time assertions below
  return options;
}

Status drive_put(sim::Simulator& sim, stores::KvClient& client) {
  std::optional<Status> result;
  Bytes key(1, 'k');
  Bytes value(1, 'v');
  sim.spawn([](stores::KvClient& c, Bytes k, Bytes v,
               std::optional<Status>* out) -> sim::Task<void> {
    *out = co_await c.put(std::move(k), std::move(v));
  }(client, std::move(key), std::move(value), &result));
  sim.run();
  return result.value_or(Status{StatusCode::kInternal, "never resolved"});
}

TEST(RetryLoop, BudgetExhaustionSurfacesLastStatusAndCountsGiveup) {
  sim::Simulator sim;
  ScriptedClient client{sim, retrying_options(4), {StatusCode::kTimeout}};
  const Status status = drive_put(sim, client);
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(client.attempts, 4);
  EXPECT_EQ(client.stats().retries, 3u);
  EXPECT_EQ(client.stats().giveups, 1u);
  // 4 attempts x 10 ns, plus the deterministic 1000+2000+4000 backoffs.
  EXPECT_EQ(sim.now(), SimTime{4 * 10 + 7000});
}

TEST(RetryLoop, StopsRetryingOnSuccess) {
  sim::Simulator sim;
  ScriptedClient client{
      sim, retrying_options(4),
      {StatusCode::kTimeout, StatusCode::kUnavailable, StatusCode::kOk}};
  const Status status = drive_put(sim, client);
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(client.attempts, 3);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().giveups, 0u);
}

TEST(RetryLoop, NonRetryableStatusSurfacesImmediately) {
  sim::Simulator sim;
  ScriptedClient client{sim, retrying_options(4), {StatusCode::kNotFound}};
  std::optional<Expected<Bytes>> result;
  Bytes key(1, 'k');
  sim.spawn([](stores::KvClient& c, Bytes k,
               std::optional<Expected<Bytes>>* out) -> sim::Task<void> {
    out->emplace(co_await c.get(std::move(k)));
  }(client, std::move(key), &result));
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), StatusCode::kNotFound);
  EXPECT_EQ(client.attempts, 1);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().giveups, 0u);
}

TEST(RetryLoop, DisabledPolicyIsPassThrough) {
  sim::Simulator sim;
  ScriptedClient client{sim, stores::ClientOptions{},  // max_attempts = 1
                        {StatusCode::kTimeout}};
  const Status status = drive_put(sim, client);
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(client.attempts, 1);
  EXPECT_EQ(client.stats().retries, 0u);
  // A single attempt that fails without a budget is not a "give-up": the
  // caller asked for exactly one try.
  EXPECT_EQ(client.stats().giveups, 0u);
  EXPECT_EQ(sim.now(), SimTime{10});  // no backoff event was scheduled
}

TEST(RetryLoop, UnimplementedDeleteIsNeverRetried) {
  sim::Simulator sim;
  ScriptedClient client{sim, retrying_options(4), {StatusCode::kTimeout}};
  std::optional<Status> result;
  Bytes key(1, 'k');
  sim.spawn([](stores::KvClient& c, Bytes k,
               std::optional<Status>* out) -> sim::Task<void> {
    *out = co_await c.del(std::move(k));
  }(client, std::move(key), &result));
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), StatusCode::kUnimplemented);
  EXPECT_EQ(client.attempts, 0);  // put/get scripts untouched
  EXPECT_EQ(client.stats().retries, 0u);
}

}  // namespace
}  // namespace efac
