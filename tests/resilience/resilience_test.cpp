/// Unit + scenario tests for the overload-resilience subsystem: backoff
/// policy, retry budget, circuit-breaker state machine, ServerPort queue
/// disciplines (FIFO/LIFO/deadline-EDF) with deadline shedding, the
/// OpenWorkload config validation, seed-determinism with resilience on,
/// and the metastable-failure regression (an outage-then-heal storm
/// converges with budgets and breakers, and stays degraded without).

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "gridmon/core/open_workload.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/resilience/backoff.hpp"
#include "gridmon/resilience/circuit_breaker.hpp"
#include "gridmon/resilience/policy.hpp"
#include "gridmon/resilience/retry_budget.hpp"
#include "gridmon/sim/rng.hpp"
#include "gridmon/sim/simulation.hpp"

namespace gridmon {
namespace {

using resilience::BackoffPolicy;
using resilience::CircuitBreaker;
using resilience::CircuitBreakerConfig;
using resilience::QueueDiscipline;
using resilience::RetryBudget;
using resilience::RetryBudgetConfig;

// ---------------------------------------------------------------- backoff

TEST(BackoffPolicy, ScheduleModeReusesLastEntryPastTheEnd) {
  BackoffPolicy p;
  p.schedule = {3, 6, 12};
  EXPECT_DOUBLE_EQ(p.raw_delay(0), 3);
  EXPECT_DOUBLE_EQ(p.raw_delay(1), 6);
  EXPECT_DOUBLE_EQ(p.raw_delay(2), 12);
  EXPECT_DOUBLE_EQ(p.raw_delay(3), 12);
  EXPECT_DOUBLE_EQ(p.raw_delay(100), 12);
}

TEST(BackoffPolicy, ExponentialModeGrowsAndCaps) {
  BackoffPolicy p;  // empty schedule -> exponential
  p.base = 2.0;
  p.growth = 2.0;
  p.cap = 30.0;
  EXPECT_DOUBLE_EQ(p.raw_delay(0), 2);
  EXPECT_DOUBLE_EQ(p.raw_delay(1), 4);
  EXPECT_DOUBLE_EQ(p.raw_delay(2), 8);
  EXPECT_DOUBLE_EQ(p.raw_delay(3), 16);
  EXPECT_DOUBLE_EQ(p.raw_delay(4), 30);   // capped
  EXPECT_DOUBLE_EQ(p.raw_delay(50), 30);  // stays capped, no overflow
}

TEST(BackoffPolicy, GrowthOneReproducesConstantLegacyFallback) {
  BackoffPolicy p;
  p.base = 1.0;
  p.growth = 1.0;
  EXPECT_DOUBLE_EQ(p.raw_delay(0), 1);
  EXPECT_DOUBLE_EQ(p.raw_delay(7), 1);
}

TEST(BackoffPolicy, DelayConsumesExactlyOneDrawEvenAtZeroJitter) {
  // The determinism contract: a jittered delay and the legacy inline
  // arithmetic leave the RNG stream in the same position.
  BackoffPolicy p;
  p.schedule = {3, 6, 12};
  p.jitter = 0;
  sim::Rng a(1234), b(1234);
  double d = p.delay(0, a);
  EXPECT_DOUBLE_EQ(d, 3.0 * b.uniform(1.0, 1.0));
  EXPECT_EQ(a.next_u64(), b.next_u64());  // streams still aligned
}

TEST(BackoffPolicy, JitterBoundsTheDelayMultiplicatively) {
  BackoffPolicy p;
  p.schedule = {10};
  p.jitter = 0.02;
  sim::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double d = p.delay(0, rng);
    EXPECT_GE(d, 10.0 * 0.98);
    EXPECT_LE(d, 10.0 * 1.02);
  }
}

// ------------------------------------------------------------ retry budget

TEST(RetryBudget, StartsFullAndExhausts) {
  RetryBudgetConfig cfg;
  cfg.capacity = 3.0;
  cfg.fill_ratio = 0.1;
  RetryBudget b(cfg);
  EXPECT_DOUBLE_EQ(b.tokens(), 3.0);
  EXPECT_TRUE(b.try_withdraw());
  EXPECT_TRUE(b.try_withdraw());
  EXPECT_TRUE(b.try_withdraw());
  EXPECT_FALSE(b.try_withdraw());  // drained
  EXPECT_EQ(b.withdrawals(), 3u);
  EXPECT_EQ(b.suppressed(), 1u);
}

TEST(RetryBudget, DepositsAreCappedAtCapacity) {
  RetryBudgetConfig cfg;
  cfg.capacity = 1.0;
  cfg.fill_ratio = 0.4;
  RetryBudget b(cfg);
  for (int i = 0; i < 100; ++i) b.deposit();
  EXPECT_DOUBLE_EQ(b.tokens(), 1.0);
}

TEST(RetryBudget, FillRatioBoundsRetryAmplification) {
  // Four fresh requests at fill_ratio 0.25 fund exactly one retry: in
  // steady state retries are ~25% of offered load, never a storm.
  // (0.25 is binary-exact, so "exactly one token" really is exact.)
  RetryBudgetConfig cfg;
  cfg.capacity = 10.0;
  cfg.fill_ratio = 0.25;
  RetryBudget b(cfg);
  while (b.try_withdraw()) {
  }  // drain the initial bank
  ASSERT_EQ(b.withdrawals(), 10u);
  for (int i = 0; i < 4; ++i) b.deposit();
  EXPECT_TRUE(b.try_withdraw());
  EXPECT_FALSE(b.try_withdraw());
}

// ---------------------------------------------------------- circuit breaker

CircuitBreakerConfig small_breaker() {
  CircuitBreakerConfig cfg;
  cfg.window = 8;
  cfg.min_samples = 4;
  cfg.failure_threshold = 0.5;
  cfg.open_duration = 10.0;
  cfg.half_open_probes = 1;
  return cfg;
}

TEST(CircuitBreaker, StaysClosedBelowMinSamples) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 3; ++i) cb.record(0.0, false);
  EXPECT_EQ(cb.state(0.0), CircuitBreaker::State::Closed);
  EXPECT_TRUE(cb.allow(0.0));
  EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreaker, TripsAtFailureThresholdAndFastFails) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(1.0, false);
  EXPECT_EQ(cb.state(1.0), CircuitBreaker::State::Open);
  EXPECT_EQ(cb.trips(), 1u);
  EXPECT_FALSE(cb.allow(1.0));
  EXPECT_FALSE(cb.allow(5.0));
  EXPECT_EQ(cb.fast_fails(), 2u);
}

TEST(CircuitBreaker, MixedOutcomesBelowThresholdDoNotTrip) {
  CircuitBreaker cb(small_breaker());
  // One failure in four — and no prefix of the stream ever reaches the
  // 50% trip fraction either (2/5 is the worst case).
  for (int i = 0; i < 20; ++i) cb.record(0.0, i % 4 != 0);
  EXPECT_EQ(cb.state(0.0), CircuitBreaker::State::Closed);
  EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreaker, HalfOpenGrantsOnlyTheProbeSlot) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(0.0, false);  // trip at t=0
  EXPECT_EQ(cb.state(9.9), CircuitBreaker::State::Open);
  EXPECT_EQ(cb.state(10.0), CircuitBreaker::State::HalfOpen);
  EXPECT_TRUE(cb.allow(10.0));    // the probe
  EXPECT_FALSE(cb.allow(10.0));   // everyone else keeps fast-failing
  EXPECT_FALSE(cb.allow(11.0));
}

TEST(CircuitBreaker, ProbeSuccessClosesAndClearsTheWindow) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(0.0, false);
  ASSERT_TRUE(cb.allow(10.0));
  cb.record(10.5, true);
  EXPECT_EQ(cb.state(10.5), CircuitBreaker::State::Closed);
  // The window was cleared: three fresh failures are below min_samples.
  for (int i = 0; i < 3; ++i) cb.record(11.0, false);
  EXPECT_EQ(cb.state(11.0), CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, ProbeFailureReopensAndRestartsTheTimer) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(0.0, false);  // open at t=0
  ASSERT_TRUE(cb.allow(10.0));                        // probe at t=10
  cb.record(10.0, false);                             // probe fails
  EXPECT_EQ(cb.trips(), 2u);
  EXPECT_EQ(cb.state(19.9), CircuitBreaker::State::Open);  // timer restarted
  EXPECT_EQ(cb.state(20.0), CircuitBreaker::State::HalfOpen);
}

TEST(CircuitBreaker, StaleOutcomeAfterTripIsIgnored) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(0.0, false);
  cb.record(1.0, true);  // a response from before the trip arrives late
  EXPECT_EQ(cb.state(1.0), CircuitBreaker::State::Open);
}

// ------------------------------------------- ServerPort queue disciplines

/// Parks an admit() with the given absolute deadline, logs (id, outcome)
/// on resume, and — on success — releases the slot so the hand-off chain
/// continues deterministically.
sim::Task<void> park(net::ServerPort& port, double deadline, int id,
                     std::vector<std::pair<int, net::Admission>>& log) {
  net::Admission a = co_await port.admit(-1, deadline);
  log.emplace_back(id, a);
  if (a == net::Admission::Ok) port.release();
}

void install_policy(net::ServerPort& port, QueueDiscipline d,
                    double deadline_budget = 0) {
  resilience::ServerPolicy pol;
  pol.enabled = true;
  pol.discipline = d;
  pol.deadline_budget = deadline_budget;
  port.set_policy(pol);
}

std::vector<int> handoff_order(QueueDiscipline d,
                               const std::vector<double>& deadlines) {
  sim::Simulation s;
  resilience::ServerPolicy pol;
  pol.enabled = true;
  pol.discipline = d;
  net::ServerPort port(s, 1);
  port.set_policy(pol);
  EXPECT_TRUE(port.try_admit());  // occupy the only slot
  std::vector<std::pair<int, net::Admission>> log;
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    s.spawn(park(port, deadlines[i], static_cast<int>(i + 1), log));
  }
  s.schedule(1.0, [&] { port.release(); });  // start the hand-off chain
  s.run(5.0);
  std::vector<int> order;
  for (const auto& [id, a] : log) {
    EXPECT_EQ(a, net::Admission::Ok);
    order.push_back(id);
  }
  return order;
}

TEST(ServerPortDiscipline, FifoHandsSlotsInArrivalOrder) {
  EXPECT_EQ(handoff_order(QueueDiscipline::Fifo, {-1, -1, -1}),
            (std::vector<int>{1, 2, 3}));
}

TEST(ServerPortDiscipline, LifoHandsSlotsNewestFirst) {
  EXPECT_EQ(handoff_order(QueueDiscipline::Lifo, {-1, -1, -1}),
            (std::vector<int>{3, 2, 1}));
}

TEST(ServerPortDiscipline, EdfHandsSlotsByEarliestDeadline) {
  // Arrival order 1,2,3 with deadlines 30,10,20: EDF serves 2,3,1.
  EXPECT_EQ(handoff_order(QueueDiscipline::DeadlineEdf, {30, 10, 20}),
            (std::vector<int>{2, 3, 1}));
}

TEST(ServerPortDiscipline, EdfBreaksDeadlineTiesByArrival) {
  EXPECT_EQ(handoff_order(QueueDiscipline::DeadlineEdf, {10, 10, 10}),
            (std::vector<int>{1, 2, 3}));
}

TEST(ServerPortDiscipline, ExpiredWaitersAreShedAtHandoffTime) {
  sim::Simulation s;
  net::ServerPort port(s, 1);
  install_policy(port, QueueDiscipline::DeadlineEdf);
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, 5.0, 1, log));   // will expire before the release
  s.spawn(park(port, 50.0, 2, log));  // still live
  s.schedule(10.0, [&] { port.release(); });
  s.run(20.0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair{1, net::Admission::Shed}));
  EXPECT_EQ(log[1], (std::pair{2, net::Admission::Ok}));
  EXPECT_EQ(port.total_shed(), 1u);
}

TEST(ServerPortDiscipline, DeadlineBudgetDerivesAbsoluteDeadlines) {
  // No explicit deadline: the policy's budget (5 s of queue wait) applies,
  // so a release at t=10 sheds a waiter parked at t=0.
  sim::Simulation s;
  net::ServerPort port(s, 1);
  install_policy(port, QueueDiscipline::Fifo, /*deadline_budget=*/5.0);
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, -1, 1, log));
  s.schedule(10.0, [&] { port.release(); });
  s.run(20.0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair{1, net::Admission::Shed}));
}

TEST(ServerPortDiscipline, QueueLimitBoundsParkedWaiters) {
  sim::Simulation s;
  resilience::ServerPolicy pol;
  pol.enabled = true;
  pol.queue_limit = 2;
  net::ServerPort port(s, 1);
  port.set_policy(pol);
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, -1, 1, log));
  s.spawn(park(port, -1, 2, log));
  s.spawn(park(port, -1, 3, log));  // queue full: refused immediately
  s.run(1.0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair{3, net::Admission::Refused}));
  EXPECT_EQ(port.queued(), 2u);
}

TEST(ServerPortDiscipline, CrashRefusesAllParkedWaiters) {
  sim::Simulation s;
  net::ServerPort port(s, 1);
  install_policy(port, QueueDiscipline::Fifo);
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, -1, 1, log));
  s.spawn(park(port, -1, 2, log));
  s.schedule(2.0, [&] { port.crash(); });
  s.run(5.0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].second, net::Admission::Refused);
  EXPECT_EQ(log[1].second, net::Admission::Refused);
  EXPECT_EQ(port.queued(), 0u);
}

TEST(ServerPort, OverloadSignalTracksPressureThreshold) {
  sim::Simulation s;
  resilience::ServerPolicy pol;
  pol.enabled = true;
  pol.pressure_threshold = 0.9;
  net::ServerPort port(s, 10);
  port.set_policy(pol);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(port.try_admit());
  EXPECT_FALSE(port.overloaded());
  ASSERT_TRUE(port.try_admit());  // 9/10 = threshold
  EXPECT_TRUE(port.overloaded());
}

TEST(ServerPort, DisabledPolicyNeverQueuesOrSheds) {
  sim::Simulation s;
  net::ServerPort port(s, 1);  // no policy installed
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, -1, 1, log));
  s.run(1.0);
  ASSERT_EQ(log.size(), 1u);  // refused synchronously, never parked
  EXPECT_EQ(log[0].second, net::Admission::Refused);
  EXPECT_EQ(port.total_queued(), 0u);
  EXPECT_EQ(port.total_shed(), 0u);
}

// ------------------------------------------------ OpenWorkload validation

TEST(OpenWorkloadConfig, RejectsScheduleShorterThanMaxRetries) {
  core::Testbed tb;
  core::QueryFn noop = [](net::Interface&) -> sim::Task<net::Outcome> {
    co_return net::Outcome{true, 0};
  };
  core::OpenWorkloadConfig cfg;
  cfg.max_retries = 5;
  cfg.retry_schedule = {1, 2};  // covers only 2 of 5 retries
  EXPECT_THROW(core::OpenWorkload(tb, noop, cfg), std::invalid_argument);
  cfg.retry_schedule.clear();  // exponential default is always legal
  EXPECT_NO_THROW(core::OpenWorkload(tb, noop, cfg));
}

// --------------------------- outage-then-heal storm (metastable failure)

struct StormResult {
  double pre_goodput = 0;    // deadline-met completions/s before the outage
  double post_goodput = 0;   // same, in the recovery window after the heal
  double amp = 0;            // attempts / arrivals over the whole run
  std::uint64_t suppressed = 0;
  std::uint64_t fast_fails = 0;
  std::vector<core::Completion> completions;
  std::uint64_t arrivals = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
};

/// One open-loop run against a single-port server: 7 q/s Poisson arrivals
/// into a backlog-6 server with 0.6 s service time (capacity 10 q/s), a
/// refusing outage over [80, 140), measured to t=200. A query is "good"
/// when its response time is within 10 s. The budget's fill ratio (0.2)
/// comfortably funds the fault-free retry demand, so pre-outage behavior
/// matches the baseline; it is ~30x short of funding the outage storm.
StormResult run_storm(bool resilient, std::uint64_t seed) {
  constexpr double kDeadline = 10.0;
  core::TestbedConfig tc;
  tc.seed = seed;
  core::Testbed tb(tc);
  net::ServerPort port(tb.sim(), 6);
  core::QueryFn query =
      [&tb, &port](net::Interface&) -> sim::Task<net::Outcome> {
    if (!port.try_admit()) co_return net::Outcome{};
    co_await tb.sim().delay(0.6);
    port.release();
    co_return net::Outcome{true, 0};
  };
  core::OpenWorkloadConfig cfg;
  // 80% utilization of the fault-free server, and clients patient enough
  // (12 retries spread over ~90 s) that an outage's arrivals are all
  // still retrying when the server heals — the fuel of a metastable
  // retry storm.
  cfg.arrival_rate = 7.0;
  cfg.max_retries = 12;
  cfg.retry_schedule = {2, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8};
  if (resilient) {
    cfg.resilience.enabled = true;
    cfg.resilience.budget.capacity = 10.0;
    cfg.resilience.budget.fill_ratio = 0.2;
    cfg.resilience.breaker.window = 20;
    cfg.resilience.breaker.min_samples = 10;
    cfg.resilience.breaker.failure_threshold = 0.5;
    cfg.resilience.breaker.open_duration = 10.0;
  }
  core::OpenWorkload w(tb, query, cfg);
  w.start(tb.uc_names());
  tb.sim().schedule(80.0, [&] { port.crash(); });
  tb.sim().schedule(140.0, [&] { port.restart(); });
  tb.sim().run(200.0);

  auto goodput = [&](double t0, double t1) {
    std::size_t n = 0;
    for (const auto& c : w.completions()) {
      if (c.t >= t0 && c.t < t1 && c.response_time <= kDeadline) ++n;
    }
    return static_cast<double>(n) / (t1 - t0);
  };
  StormResult r;
  r.pre_goodput = goodput(20, 80);
  r.post_goodput = goodput(150, 200);
  r.amp = w.retry_amplification();
  r.suppressed = w.resilience_policy().budget().suppressed();
  r.fast_fails = w.resilience_policy().breaker().fast_fails();
  r.completions = w.completions();
  r.arrivals = w.arrivals();
  r.attempts = w.total_attempts();
  r.failures = w.failures();
  return r;
}

TEST(ResilienceDeterminism, SameSeedIsByteIdenticalWithResilienceOn) {
  StormResult a = run_storm(true, 7);
  StormResult b = run_storm(true, 7);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    // Exact double equality: the two runs must replay the same event
    // sequence bit-for-bit, not merely land close.
    EXPECT_EQ(a.completions[i].t, b.completions[i].t) << i;
    EXPECT_EQ(a.completions[i].response_time, b.completions[i].response_time)
        << i;
  }
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.fast_fails, b.fast_fails);
}

TEST(ResilienceDeterminism, DifferentSeedsDiverge) {
  StormResult a = run_storm(true, 7);
  StormResult b = run_storm(true, 8);
  EXPECT_NE(a.arrivals, b.arrivals);
}

TEST(MetastableFailure, BudgetsAndBreakersConvergeAfterHeal) {
  StormResult base = run_storm(false, 42);
  StormResult res = run_storm(true, 42);

  // Fault-free warm period: both configurations carry the offered load.
  EXPECT_GT(base.pre_goodput, 5.0);
  EXPECT_GT(res.pre_goodput, 5.0);

  // The resilient client actually used its mechanisms during the outage.
  EXPECT_GT(res.suppressed, 0u);
  EXPECT_GT(res.fast_fails, 0u);

  // Budgets bound retry amplification; the baseline storms.
  EXPECT_LT(res.amp, base.amp);

  // The regression proper: with budgets the post-heal window recovers to
  // near the pre-outage goodput; without them the pent-up retry storm
  // keeps the server saturated with dead work and goodput stays degraded.
  EXPECT_GT(res.post_goodput, 0.8 * res.pre_goodput);
  EXPECT_LT(base.post_goodput, 0.7 * base.pre_goodput);
  EXPECT_GT(res.post_goodput, base.post_goodput);
}

}  // namespace
}  // namespace gridmon
