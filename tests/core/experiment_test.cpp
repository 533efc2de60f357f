#include "gridmon/core/experiment.hpp"

#include <gtest/gtest.h>

#include "gridmon/core/adapters.hpp"
#include "gridmon/core/scenarios.hpp"

namespace gridmon::core {
namespace {

TEST(ReplicateTest, AveragesAcrossSeeds) {
  std::vector<std::uint64_t> used;
  auto run_one = [&](std::uint64_t seed) {
    used.push_back(seed);
    MetricsReport p;
    p.x = 7;
    p.throughput = static_cast<double>(seed);
    p.response = 2.0 * static_cast<double>(seed);
    return p;
  };
  double stddev = -1;
  MetricsReport mean = replicate({1, 2, 3}, run_one, &stddev);
  EXPECT_EQ(used, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(mean.x, 7);
  EXPECT_DOUBLE_EQ(mean.throughput, 2.0);
  EXPECT_DOUBLE_EQ(mean.response, 4.0);
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(ReplicateTest, RealExperimentSeedsAgreeClosely) {
  auto run_one = [](std::uint64_t seed) {
    TestbedConfig tc;
    tc.seed = seed;
    Testbed tb(tc);
    GrisScenario scenario(tb, 10, true);
    UserWorkload w(tb, query_gris(*scenario.gris));
    w.spawn_users(50, tb.uc_names());
    tb.sampler().start();
    MeasureConfig mc;
    mc.warmup = 30;
    mc.duration = 90;
    return measure(tb, w, "lucky7", 50, mc);
  };
  double stddev = -1;
  MetricsReport mean = replicate({11, 22, 33}, run_one, &stddev);
  EXPECT_GT(mean.throughput, 8.0);
  // Different seeds perturb only think-time phases: spread is tiny.
  EXPECT_LT(stddev, 0.15 * mean.throughput);
}

TEST(MeasureTest, RefusedRateReported) {
  Testbed tb;
  // A 1-deep, very slow server refuses nearly everything.
  mds::GrisConfig config;
  config.backlog = 1;
  config.cache_serve_latency = 30.0;
  Testbed* tbp = &tb;
  GrisScenario scenario(tb, 2, true);
  scenario.gris = std::make_unique<mds::Gris>(
      tb.network(), tb.host("lucky7"), tb.nic("lucky7"), "slow",
      default_providers(2), config);
  UserWorkload w(*tbp, query_gris(*scenario.gris));
  w.spawn_users(30, tb.uc_names());
  tb.sampler().start();
  MeasureConfig mc;
  mc.warmup = 30;
  mc.duration = 120;
  MetricsReport p = measure(tb, w, "lucky7", 30, mc);
  EXPECT_GT(p.refused, 0.1);
}

}  // namespace
}  // namespace gridmon::core
