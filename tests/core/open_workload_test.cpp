#include "gridmon/core/open_workload.hpp"

#include <gtest/gtest.h>

#include "gridmon/core/adapters.hpp"
#include "gridmon/core/scenarios.hpp"

namespace gridmon::core {
namespace {

TEST(OpenWorkloadTest, ArrivalRateIsHonored) {
  Testbed tb;
  QueryFn instant = [](net::Interface&) -> sim::Task<net::Outcome> {
    co_return net::Outcome{true, 0};
  };
  OpenWorkloadConfig config;
  config.arrival_rate = 20.0;
  OpenWorkload w(tb, instant, config);
  w.start(tb.uc_names());
  tb.sim().run(200.0);
  EXPECT_NEAR(static_cast<double>(w.arrivals()) / 200.0, 20.0, 2.0);
  EXPECT_NEAR(w.throughput(0, 200), 20.0, 2.0);
}

TEST(OpenWorkloadTest, ResponseTimeMeasured) {
  Testbed tb;
  QueryFn slow = [&tb](net::Interface&) -> sim::Task<net::Outcome> {
    co_await tb.sim().delay(2.0);
    co_return net::Outcome{true, 0};
  };
  OpenWorkloadConfig config;
  config.arrival_rate = 3.0;
  OpenWorkload w(tb, slow, config);
  w.start(tb.uc_names());
  tb.sim().run(100.0);
  EXPECT_NEAR(w.mean_response(0, 100), 2.0, 0.01);
  // Open loop: ~6 queries outstanding on average never throttles arrivals.
  EXPECT_GT(w.arrivals(), 250u);
}

TEST(OpenWorkloadTest, GivesUpAfterMaxRetries) {
  Testbed tb;
  QueryFn always_refused = [](net::Interface&) -> sim::Task<net::Outcome> {
    co_return net::Outcome{false, 0};
  };
  OpenWorkloadConfig config;
  config.arrival_rate = 1.0;
  config.max_retries = 2;
  config.retry_schedule = {0.5, 0.5};
  OpenWorkload w(tb, always_refused, config);
  w.start(tb.uc_names());
  tb.sim().run(60.0);
  EXPECT_GT(w.failures(), 30u);
  EXPECT_TRUE(w.completions().empty());
  // At the cutoff at most the newest arrival can still be mid-retry.
  EXPECT_LE(w.outstanding(), 1);
}

TEST(OpenWorkloadTest, OverloadGrowsOutstandingQueue) {
  // Offered load ~3x a single-threaded server's capacity: the in-flight
  // count must grow roughly linearly with time (no self-throttling).
  Testbed tb;
  sim::Resource server(tb.sim(), 1);
  QueryFn one_at_a_time = [&](net::Interface&) -> sim::Task<net::Outcome> {
    auto lease = co_await server.acquire();
    co_await tb.sim().delay(1.0);
    co_return net::Outcome{true, 0};
  };
  OpenWorkloadConfig config;
  config.arrival_rate = 3.0;
  OpenWorkload w(tb, one_at_a_time, config);
  w.start(tb.uc_names());
  tb.sim().run(60.0);
  int at60 = w.outstanding();
  tb.sim().run(120.0);
  int at120 = w.outstanding();
  EXPECT_GT(at60, 60);           // ~2 excess arrivals/s pile up
  EXPECT_GT(at120, at60 + 60);   // and keep piling
}

}  // namespace
}  // namespace gridmon::core
