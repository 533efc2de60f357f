/// Integration tests: run miniature versions of the paper's experiments
/// end-to-end and assert the qualitative findings hold. These are the
/// executable form of the shape targets in DESIGN.md §3.

#include <gtest/gtest.h>

#include "gridmon/core/experiment.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"

namespace gridmon::core {
namespace {

MeasureConfig short_measure() {
  MeasureConfig mc;
  mc.warmup = 30;
  mc.duration = 120;
  return mc;
}

MetricsReport run_gris(int users, bool cache) {
  Testbed tb;
  ScenarioSpec spec =
      SpecBuilder()
          .service(cache ? ServiceKind::Gris : ServiceKind::GrisNocache)
          .build();
  auto scenario = make_scenario(tb, spec);
  UserWorkload w(tb, scenario->query_fn());
  w.spawn_users(users, tb.uc_names());
  tb.sampler().start();
  return measure(tb, w, "lucky7", users, short_measure());
}

TEST(Exp1Integration, CachingBeatsNoCacheByAnOrderOfMagnitude) {
  auto cached = run_gris(200, true);
  auto nocache = run_gris(200, false);
  // The paper: nocache throughput never exceeds ~2 q/s; cached scales.
  EXPECT_LT(nocache.throughput, 3.0);
  EXPECT_GT(cached.throughput, 10 * nocache.throughput);
  EXPECT_GT(nocache.response, 5 * cached.response);
  // nocache pegs the host CPU re-executing providers.
  EXPECT_GT(nocache.cpu, 90.0);
}

TEST(Exp1Integration, GrisCacheThroughputScalesNearLinearly) {
  auto p100 = run_gris(100, true);
  auto p300 = run_gris(300, true);
  ASSERT_GT(p100.throughput, 0);
  double ratio = p300.throughput / p100.throughput;
  EXPECT_GT(ratio, 2.0);  // ~3 for perfectly linear scaling
  // Response time stays roughly flat (the paper's "approximately 4 s").
  EXPECT_LT(p300.response, p100.response * 2);
}

TEST(Exp1Integration, AgentThroughputHitsSingleThreadCeiling) {
  auto run_agent = [](int users) {
    Testbed tb;
    ScenarioSpec spec =
        SpecBuilder().service(ServiceKind::Agent).collectors(11).build();
    auto scenario = make_scenario(tb, spec);
    UserWorkload w(tb, scenario->query_fn());
    w.spawn_users(users, tb.uc_names());
    tb.sampler().start();
    return measure(tb, w, "lucky4", users, short_measure());
  };
  auto p100 = run_agent(100);
  auto p400 = run_agent(400);
  // Plateau: quadrupling users does not raise throughput materially.
  EXPECT_LT(p400.throughput, p100.throughput * 1.3);
  // But response time grows.
  EXPECT_GT(p400.response, p100.response * 1.5);
}

TEST(Exp2Integration, DirectoryServersRankAsInThePaper) {
  const int kUsers = 200;
  MetricsReport giis, manager, registry;
  {
    Testbed tb;
    ScenarioSpec spec = SpecBuilder().service(ServiceKind::Giis).build();
    auto scenario = make_scenario(tb, spec);
    scenario->prefill();
    UserWorkload w(tb, scenario->query_fn());
    w.spawn_users(kUsers, tb.uc_names());
    tb.sampler().start();
    giis = measure(tb, w, "lucky0", kUsers, short_measure());
  }
  {
    Testbed tb;
    ScenarioSpec spec =
        SpecBuilder().service(ServiceKind::Manager).collectors(11).build();
    auto scenario = make_scenario(tb, spec);
    scenario->prefill();
    UserWorkload w(tb, scenario->query_fn());
    w.spawn_users(kUsers, tb.uc_names());
    tb.sampler().start();
    manager = measure(tb, w, "lucky3", kUsers, short_measure());
  }
  {
    Testbed tb;
    ScenarioSpec spec = SpecBuilder().service(ServiceKind::Registry).build();
    auto scenario = make_scenario(tb, spec);
    scenario->prefill();
    UserWorkload w(tb, scenario->query_fn());
    w.spawn_users(kUsers, tb.uc_names());
    tb.sampler().start();
    registry = measure(tb, w, "lucky1", kUsers, short_measure());
  }
  // "Both the MDS GIIS and Hawkeye Manager present good scalability...
  //  while R-GMA had slightly less" (lower throughput, higher response).
  EXPECT_GT(giis.throughput, registry.throughput * 2);
  EXPECT_GT(manager.throughput, registry.throughput * 2);
  EXPECT_GT(registry.response, giis.response);
  EXPECT_GT(registry.response, manager.response);
  // "the load of GIIS is nearly twice as bad as Hawkeye Manager" — the
  // indexed resident database beats the LDAP backend.
  EXPECT_GT(giis.cpu, 1.5 * manager.cpu);
  // Manager's single-threaded daemon keeps load1 below ~1.
  EXPECT_LT(manager.load1, 1.0);
}

TEST(Exp3Integration, CollectorsDegradeEveryServerButCacheHelps) {
  auto run_p = [](int providers, bool cache) {
    Testbed tb;
    ScenarioSpec spec =
        SpecBuilder()
            .service(cache ? ServiceKind::Gris : ServiceKind::GrisNocache)
            .collectors(providers)
            .build();
    auto scenario = make_scenario(tb, spec);
    UserWorkload w(tb, scenario->query_fn());
    w.spawn_users(10, tb.uc_names());
    tb.sampler().start();
    return measure(tb, w, "lucky7", providers, short_measure());
  };
  auto cache10 = run_p(10, true);
  auto cache90 = run_p(90, true);
  auto nocache90 = run_p(90, false);
  // Cached GRIS degrades mildly with 9x the collectors...
  EXPECT_GT(cache90.throughput, cache10.throughput * 0.5);
  // ...while nocache collapses below 1 query/sec with >10 s responses.
  EXPECT_LT(nocache90.throughput, 1.0);
  EXPECT_GT(nocache90.response, 10.0);
}

TEST(Exp4Integration, AggregationDegradesAndPartBeatsAll) {
  auto run_giis = [](int gris, QueryVariant variant) {
    Testbed tb;
    ScenarioSpec spec = SpecBuilder()
                            .service(ServiceKind::GiisAggregate)
                            .gris_count(gris)
                            .query(variant)
                            .build();
    auto scenario = make_scenario(tb, spec);
    scenario->prefill();
    UserWorkload w(tb, scenario->query_fn());
    w.spawn_users(10, tb.uc_names());
    tb.sampler().start();
    return measure(tb, w, "lucky0", gris, short_measure());
  };
  auto all10 = run_giis(10, QueryVariant::ScopeAll);
  auto all100 = run_giis(100, QueryVariant::ScopeAll);
  auto part100 = run_giis(100, QueryVariant::ScopePart);
  EXPECT_LT(all100.throughput, all10.throughput * 0.6);
  EXPECT_GT(all100.response, 2 * all10.response);
  // Asking for a portion scales further than asking for everything.
  EXPECT_GT(part100.throughput, all100.throughput);
  EXPECT_LT(part100.response, all100.response);
}

TEST(Exp4Integration, ManagerConstraintScanDegradesWithMachines) {
  auto run_mgr = [](int machines) {
    Testbed tb;
    ScenarioSpec spec = SpecBuilder()
                            .service(ServiceKind::ManagerAggregate)
                            .machines(machines)
                            .collectors(11)
                            .build();
    auto scenario = make_scenario(tb, spec);
    scenario->prefill();
    UserWorkload w(tb, scenario->query_fn());
    w.spawn_users(10, tb.uc_names());
    tb.sampler().start();
    return measure(tb, w, "lucky3", machines, short_measure());
  };
  auto m10 = run_mgr(10);
  auto m200 = run_mgr(200);
  EXPECT_LT(m200.throughput, m10.throughput * 0.7);
  EXPECT_GT(m200.response, m10.response);
  // Single-threaded daemon: load1 stays bounded regardless of pool size.
  EXPECT_LT(m200.load1, 1.5);
}

TEST(SoftStateIntegration, WholeStackSurvivesComponentDeath) {
  // A GIIS aggregating two GRIS; one dies; directory data ages out but
  // the service keeps answering with the survivor's data.
  Testbed tb;
  mds::GiisConfig config;
  config.registration_ttl = 60;
  config.cachettl = 5;  // re-pull frequently so the sweep takes effect
  mds::Giis giis(tb.network(), tb.host("lucky0"), tb.nic("lucky0"), "giis",
                 config);
  mds::Gris g1(tb.network(), tb.host("lucky3"), tb.nic("lucky3"), "g1",
               default_providers(5));
  mds::Gris g2(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "g2",
               default_providers(5));
  giis.add_registrant(g1);
  giis.add_registrant(g2);

  auto query_once = [](mds::Giis& g, net::Interface& c,
                       mds::MdsReply* out) -> sim::Task<void> {
    *out = co_await g.query(c, mds::QueryScope::All);
  };
  mds::MdsReply before, after;
  tb.sim().spawn(query_once(giis, tb.nic("uc01"), &before));
  tb.sim().run(tb.sim().now() + 60);
  EXPECT_EQ(before.entries, 40u);  // both GRIS visible

  giis.kill_registrant("g2");
  tb.sim().run(tb.sim().now() + 300);  // g2's soft state expires

  tb.sim().spawn(query_once(giis, tb.nic("uc01"), &after));
  tb.sim().run(tb.sim().now() + 60);
  EXPECT_TRUE(after.admitted);
  EXPECT_EQ(after.entries, 20u);  // only g1's 5 providers x 4 entries
  tb.sim().shutdown();
}

}  // namespace
}  // namespace gridmon::core
