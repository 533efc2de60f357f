#include <gtest/gtest.h>

#include "gridmon/core/testbed.hpp"
#include "gridmon/hawkeye/agent.hpp"
#include "gridmon/hawkeye/manager.hpp"

namespace gridmon::hawkeye {
namespace {

using core::Testbed;

sim::Task<void> agent_query(Agent& a, net::Interface& c, HawkeyeReply* out) {
  *out = co_await a.query(c);
}

sim::Task<void> status_query(Manager& m, net::Interface& c,
                             HawkeyeReply* out) {
  *out = co_await m.query_status(c);
}

sim::Task<void> constraint_query(Manager& m, net::Interface& c,
                                 std::string expr, HawkeyeReply* out) {
  *out = co_await m.query_constraint(c, expr);
}

TEST(ModuleTest, DefaultInstallHasElevenModules) {
  EXPECT_EQ(default_modules().size(), 11u);
  EXPECT_EQ(scaled_modules(90).size(), 90u);
  EXPECT_EQ(scaled_modules(5).size(), 5u);
}

TEST(ModuleTest, StartdAdIntegratesAllModules) {
  std::vector<classad::ClassAd> parts;
  for (const auto& spec : default_modules()) {
    parts.push_back(run_module(spec, 1, 42.0));
  }
  auto ad = build_startd_ad("lucky4.mcs.anl.gov", parts);
  EXPECT_EQ(ad.evaluate("Name").as_string(), "lucky4.mcs.anl.gov");
  EXPECT_DOUBLE_EQ(ad.evaluate("CpuLoad").as_real(), 42.0);
  // 11 modules x (attrs + sequence) + identity attributes.
  EXPECT_GT(ad.size(), 11u * 6u);
}

TEST(ModuleTest, StartdAdFromMovedPartsMatchesCopiedParts) {
  for (int count : {11, 98}) {
    auto specs = count == 11 ? default_modules() : scaled_modules(count);
    std::vector<classad::ClassAd> parts;
    for (const auto& spec : specs) parts.push_back(run_module(spec, 7, 42.0));
    auto copied = build_startd_ad("lucky4.mcs.anl.gov", parts);
    auto moved = build_startd_ad("lucky4.mcs.anl.gov", std::move(parts));
    EXPECT_EQ(moved.to_string(), copied.to_string()) << count;
    EXPECT_EQ(moved.wire_bytes(), copied.wire_bytes()) << count;
  }
}

TEST(AgentTest, QueryCollectsFreshData) {
  Testbed tb;
  Agent agent(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "lucky4",
              default_modules());
  HawkeyeReply r1, r2;
  tb.sim().spawn(agent_query(agent, tb.nic("uc01"), &r1));
  tb.sim().run();
  auto first = agent.collections();
  tb.sim().spawn(agent_query(agent, tb.nic("uc01"), &r2));
  tb.sim().run();
  EXPECT_TRUE(r1.admitted);
  EXPECT_TRUE(r2.admitted);
  // No resident database: a second query re-collects.
  EXPECT_EQ(agent.collections(), first + 1);
  EXPECT_GE(r1.response_bytes, 5000.0);
}

TEST(AgentTest, TooManyModulesCrashStartd) {
  Testbed tb;
  EXPECT_THROW(Agent(tb.network(), tb.host("lucky4"), tb.nic("lucky4"),
                     "lucky4", scaled_modules(99)),
               AgentError);
  // 98 is the documented limit and works.
  Agent ok(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "lucky4",
           scaled_modules(98));
  EXPECT_EQ(ok.module_count(), 98u);
}

TEST(AgentTest, AdvertisesToManagerPeriodically) {
  Testbed tb;
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  Agent agent(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "lucky4",
              default_modules());
  agent.start_advertising(manager);
  tb.sim().run(100.0);
  EXPECT_GE(manager.ads_received(), 3u);  // ~every 30 s
  EXPECT_EQ(manager.machine_count(), 1u);
  EXPECT_NE(manager.find_machine("lucky4"), nullptr);
  tb.sim().shutdown();
}

TEST(ManagerTest, StatusQueryServedFromResidentDb) {
  Testbed tb;
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  std::vector<std::unique_ptr<Agent>> agents;
  for (const std::string host : {"lucky4", "lucky5", "lucky6"}) {
    agents.push_back(std::make_unique<Agent>(tb.network(), tb.host(host),
                                             tb.nic(host), host,
                                             default_modules()));
    agents.back()->start_advertising(manager);
  }
  tb.sim().run(40.0);
  HawkeyeReply reply;
  tb.sim().spawn(status_query(manager, tb.nic("uc01"), &reply));
  tb.sim().run(60.0);
  EXPECT_TRUE(reply.admitted);
  EXPECT_EQ(reply.machines, 3u);
  tb.sim().shutdown();
}

TEST(ManagerTest, ConstraintScanWorstCase) {
  Testbed tb;
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  Advertiser adv1(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "m1");
  Advertiser adv2(tb.network(), tb.host("lucky5"), tb.nic("lucky5"), "m2");
  adv1.start(manager);
  adv2.start(manager);
  tb.sim().run(35.0);
  ASSERT_EQ(manager.machine_count(), 2u);

  HawkeyeReply none, all;
  tb.sim().spawn(
      constraint_query(manager, tb.nic("uc01"), "CpuLoad > 1000", &none));
  tb.sim().run(50.0);
  tb.sim().spawn(
      constraint_query(manager, tb.nic("uc01"), "OpSys == \"LINUX\"", &all));
  tb.sim().run(70.0);
  EXPECT_TRUE(none.admitted);
  EXPECT_EQ(none.machines, 0u);
  EXPECT_EQ(all.machines, 2u);
  EXPECT_GT(all.response_bytes, none.response_bytes);
  tb.sim().shutdown();
}

TEST(ManagerTest, TriggerFiresOnMatchingAd) {
  Testbed tb;
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  // The paper's example: kill Netscape when CPU load exceeds 50.
  classad::ClassAd trigger;
  trigger.insert("MyType", "Trigger");
  trigger.insert_text("Requirements", "TARGET.CpuLoad > 50");
  std::vector<std::string> fired_on;
  manager.add_trigger("kill-netscape", std::move(trigger),
                      [&](const std::string&, const std::string& machine) {
                        fired_on.push_back(machine);
                      });

  Agent busy(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "busy",
             default_modules());
  Agent idle(tb.network(), tb.host("lucky5"), tb.nic("lucky5"), "idle",
             default_modules());
  busy.set_load_value(80.0);
  idle.set_load_value(5.0);
  busy.start_advertising(manager);
  idle.start_advertising(manager);
  tb.sim().run(35.0);

  EXPECT_GE(manager.trigger_firings(), 1u);
  ASSERT_FALSE(fired_on.empty());
  for (const auto& m : fired_on) EXPECT_EQ(m, "busy");
  tb.sim().shutdown();
}


TEST(ManagerTest, EmailTriggerNotifiesAdmin) {
  Testbed tb;
  auto& admin_host = tb.add_host("admin", "uc", 1, 1208);
  (void)admin_host;
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  std::vector<std::string> delivered;
  manager.add_email_trigger(
      "disk-low", "TARGET.CpuLoad > 50", tb.nic("admin"),
      [&](const std::string&, const std::string& machine) {
        delivered.push_back(machine);
      });
  Agent busy(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "busy",
             default_modules());
  busy.set_load_value(90.0);
  busy.start_advertising(manager);
  tb.sim().run(40.0);
  EXPECT_GE(manager.emails_sent(), 1u);
  ASSERT_FALSE(delivered.empty());
  EXPECT_EQ(delivered[0], "busy");
  tb.sim().shutdown();
}


TEST(ManagerTest, TwoStepModuleLookupProtocol) {
  // Paper §2.3: "An Agent can also directly answer queries about a
  // particular Module; however, the client must first consult the
  // Manager for the Agent's IP-address."
  Testbed tb;
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  Agent agent(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "lucky4",
              default_modules());
  agent.start_advertising(manager);
  tb.sim().run(10.0);

  auto protocol = [](Testbed& t, Manager& mgr, Agent& ag,
                     HawkeyeReply* lookup_out,
                     HawkeyeReply* module_out) -> sim::Task<void> {
    std::string address;
    *lookup_out = co_await mgr.lookup_agent(t.nic("uc01"), "lucky4",
                                            &address);
    if (lookup_out->machines == 1 && address == "lucky4") {
      *module_out = co_await ag.query_module(t.nic("uc01"), "vmstat");
    }
  };
  HawkeyeReply lookup, module;
  tb.sim().spawn(protocol(tb, manager, agent, &lookup, &module));
  tb.sim().run(30.0);
  EXPECT_TRUE(lookup.admitted);
  EXPECT_EQ(lookup.machines, 1u);
  EXPECT_TRUE(module.admitted);
  EXPECT_EQ(module.machines, 1u);
  EXPECT_GE(module.response_bytes, 512.0);
  tb.sim().shutdown();
}

TEST(ManagerTest, LookupUnknownMachineReturnsEmpty) {
  Testbed tb;
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  auto run = [](Testbed& t, Manager& m, HawkeyeReply* out) -> sim::Task<void> {
    std::string address = "unchanged";
    *out = co_await m.lookup_agent(t.nic("uc01"), "ghost", &address);
    EXPECT_EQ(address, "unchanged");
  };
  HawkeyeReply reply;
  tb.sim().spawn(run(tb, manager, &reply));
  tb.sim().run(10.0);
  EXPECT_TRUE(reply.admitted);
  EXPECT_EQ(reply.machines, 0u);
  tb.sim().shutdown();
}

TEST(AgentTest, UnknownModuleQueryIsEmptyButAdmitted) {
  Testbed tb;
  Agent agent(tb.network(), tb.host("lucky4"), tb.nic("lucky4"), "lucky4",
              default_modules());
  auto run = [](Testbed& t, Agent& a, HawkeyeReply* out) -> sim::Task<void> {
    *out = co_await a.query_module(t.nic("uc01"), "no-such-module");
  };
  HawkeyeReply reply;
  tb.sim().spawn(run(tb, agent, &reply));
  tb.sim().run(10.0);
  EXPECT_TRUE(reply.admitted);
  EXPECT_EQ(reply.machines, 0u);
  tb.sim().shutdown();
}

TEST(ManagerTest, OverloadDropsAds) {
  Testbed tb;
  ManagerConfig config;
  config.backlog = 1;
  config.ad_process_cpu = 5.0;  // glacially slow manager
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"), config);
  std::vector<std::unique_ptr<Advertiser>> advs;
  for (int i = 0; i < 8; ++i) {
    advs.push_back(std::make_unique<Advertiser>(
        tb.network(), tb.host("lucky4"), tb.nic("lucky4"),
        "m" + std::to_string(i), 11, 10.0));
    advs.back()->start(manager);
  }
  tb.sim().run(60.0);
  EXPECT_GT(manager.ads_dropped(), 0u);
  tb.sim().shutdown();
}

TEST(AdvertiserTest, SimulatesMachineWithoutAgent) {
  Testbed tb;
  Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  Advertiser adv(tb.network(), tb.host("lucky4"), tb.nic("lucky4"),
                 "phantom", 11, 30.0);
  adv.start(manager);
  tb.sim().run(100.0);
  EXPECT_GE(adv.ads_sent(), 3u);
  EXPECT_NE(manager.find_machine("phantom"), nullptr);
  tb.sim().shutdown();
}

}  // namespace
}  // namespace gridmon::hawkeye
