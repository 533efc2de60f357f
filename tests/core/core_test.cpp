#include <gtest/gtest.h>

#include <sstream>

#include "gridmon/core/adapters.hpp"
#include "gridmon/core/experiment.hpp"
#include "gridmon/core/mapping.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"

namespace gridmon::core {
namespace {

TEST(MappingTest, MatchesPaperTable1) {
  const auto& table = component_mapping();
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0].mds, "Information Provider");
  EXPECT_EQ(table[0].rgma, "Producer");
  EXPECT_EQ(table[0].hawkeye, "Module");
  EXPECT_EQ(table[1].mds, "GRIS");
  EXPECT_EQ(table[1].rgma, "ProducerServlet");
  EXPECT_EQ(table[1].hawkeye, "Agent");
  EXPECT_EQ(table[2].rgma, "None");
  EXPECT_EQ(table[3].mds, "GIIS");
  EXPECT_EQ(table[3].rgma, "Registry");
  EXPECT_EQ(table[3].hawkeye, "Manager");
  EXPECT_EQ(role_name(Role::DirectoryServer), "Directory Server");
}

TEST(TestbedTest, PaperTopology) {
  Testbed tb;
  EXPECT_EQ(tb.lucky_names().size(), 7u);  // lucky0,1,3..7 — no lucky2
  EXPECT_EQ(tb.uc_names().size(), 20u);
  EXPECT_EQ(tb.host("lucky0").cpu().cores(), 2);
  EXPECT_DOUBLE_EQ(tb.host("lucky0").cpu().speed_factor(), 1.133);
  EXPECT_EQ(tb.host("uc01").cpu().cores(), 1);
  // 15 fast + 5 slow UC clients.
  int fast = 0, slow = 0;
  for (const auto& name : tb.uc_names()) {
    double mhz = tb.host(name).cpu().speed_factor() * 1000;
    if (mhz > 1000) ++fast;
    else ++slow;
  }
  EXPECT_EQ(fast, 15);
  EXPECT_EQ(slow, 5);
  // Cross-site latency is WAN, intra-site is LAN.
  EXPECT_GT(tb.network().latency(tb.nic("uc01"), tb.nic("lucky0")), 0.001);
  EXPECT_LT(tb.network().latency(tb.nic("lucky0"), tb.nic("lucky1")), 0.001);
}

TEST(TestbedTest, NoLucky2) {
  Testbed tb;
  EXPECT_THROW(tb.host("lucky2"), std::invalid_argument);
}

TEST(WorkloadTest, SpawnCapsUsersPerHost) {
  Testbed tb;
  QueryFn noop = [](net::Interface&) -> sim::Task<net::Outcome> {
    co_return net::Outcome{true, 100};
  };
  UserWorkload w(tb, noop);
  EXPECT_THROW(w.spawn_users(51, {"uc01"}), std::invalid_argument);
  w.spawn_users(50, {"uc01"});
  EXPECT_EQ(w.users(), 50);
}

TEST(WorkloadTest, ThinkTimePacesQueries) {
  Testbed tb;
  // Instant service: each user completes ~1 query per think period.
  QueryFn instant = [](net::Interface&) -> sim::Task<net::Outcome> {
    co_return net::Outcome{true, 0};
  };
  WorkloadConfig config;
  config.client_cpu_per_query = 0;
  UserWorkload w(tb, instant, config);
  w.spawn_users(10, {"uc01", "uc02"});
  tb.sim().run(101.0);
  // 10 users x ~1 query/s for 100 s.
  double tput = w.throughput(1.0, 101.0);
  EXPECT_NEAR(tput, 10.0, 1.0);
  EXPECT_LT(w.mean_response(0, 101.0), 0.01);
}

TEST(WorkloadTest, ResponseTimeIncludesServiceDelay) {
  Testbed tb;
  QueryFn slow = [&tb](net::Interface&) -> sim::Task<net::Outcome> {
    co_await tb.sim().delay(3.0);
    co_return net::Outcome{true, 0};
  };
  WorkloadConfig config;
  config.client_cpu_per_query = 0;
  UserWorkload w(tb, slow, config);
  w.spawn_users(5, {"uc01"});
  tb.sim().run(50.0);
  EXPECT_NEAR(w.mean_response(0, 50.0), 3.0, 0.01);
  // Each user cycles every ~4 s.
  EXPECT_NEAR(w.throughput(4.0, 48.0), 5.0 / 4.0, 0.3);
}

TEST(WorkloadTest, RefusalsTriggerBackoffAndRetry) {
  Testbed tb;
  int attempts = 0;
  // Refuse the first two attempts of every query.
  QueryFn flaky = [&attempts](net::Interface&) -> sim::Task<net::Outcome> {
    ++attempts;
    co_return net::Outcome{attempts % 3 == 0, 0};
  };
  WorkloadConfig config;
  config.client_cpu_per_query = 0;
  UserWorkload w(tb, flaky, config);
  w.spawn_users(1, {"uc01"});
  tb.sim().run(60.0);
  EXPECT_GT(w.refused_attempts(), 2u);
  ASSERT_FALSE(w.completions().empty());
  // SYN retransmit schedule: 3 s then 6 s before the third attempt lands.
  EXPECT_GE(w.completions()[0].response_time, 8.0);  // 3 s + 6 s SYN retries
}

TEST(MeasureTest, CollectsAllFourMetrics) {
  Testbed tb;
  GrisScenario scenario(tb, 10, true);
  UserWorkload w(tb, query_gris(*scenario.gris));
  w.spawn_users(10, tb.uc_names());
  tb.sampler().start();
  MeasureConfig mc;
  mc.warmup = 60;
  mc.duration = 120;
  MetricsReport p = measure(tb, w, "lucky7", 10, mc);
  EXPECT_EQ(p.x, 10);
  EXPECT_GT(p.throughput, 0.5);
  EXPECT_GT(p.response, 1.0);   // client tool + cache validation latency
  EXPECT_LT(p.response, 10.0);
  EXPECT_GE(p.cpu, 0.0);
}

TEST(PrintFiguresTest, RendersAllMetricTables) {
  Series s;
  s.name = "MDS GRIS (cache)";
  s.points.push_back(MetricsReport{10, 2.3, 3.4, 0.2, 11});
  s.points.push_back(MetricsReport{100, 23.0, 3.5, 0.9, 40});
  std::ostringstream os;
  print_figures(os, 5, "Information Server", "No. of Users", {s});
  std::string out = os.str();
  EXPECT_NE(out.find("Figure 5"), std::string::npos);
  EXPECT_NE(out.find("Figure 8"), std::string::npos);
  EXPECT_NE(out.find("Throughput"), std::string::npos);
  EXPECT_NE(out.find("MDS GRIS (cache)"), std::string::npos);
  EXPECT_NE(out.find("CPU Load"), std::string::npos);
}

TEST(ScenarioTest, RgmaMediatedRouting) {
  Testbed tb;
  RgmaScenario scenario(tb, 10, RgmaScenario::Consumers::PerLuckyNode);
  EXPECT_EQ(scenario.consumer_servlets.size(), 7u);
  UserWorkload w(tb, scenario.mediated_query());
  w.spawn_users(7, tb.lucky_names());
  tb.sim().run(120.0);
  EXPECT_GT(w.completions().size(), 0u);
}

TEST(ScenarioTest, GiisPrefillWarmsCache) {
  Testbed tb;
  GiisScenario scenario(tb, 3, 10);
  scenario.prefill();
  EXPECT_GT(scenario.giis->entry_count(), 3u * 40u);
}

}  // namespace
}  // namespace gridmon::core
