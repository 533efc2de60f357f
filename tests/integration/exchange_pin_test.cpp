/// Byte pins for the client exchange every service runs: the query tool
/// starts, connects, is admitted or refused by the listen queue, uploads
/// its request and waits for the reply (paper §3.1). A traced mini-run
/// of each service pins its CSV row and its Chrome trace bytes, and a
/// fault mini-run pins the failure branches: refused connections,
/// connect timeouts behind a WAN partition, admission timeouts on a
/// blackholed host, and request uploads that stall past the timeout.
///
/// The digests were recorded before the exchange was factored out of
/// the services; any change to the events the exchange schedules, or to
/// the spans and instants it records, shows up as a digest mismatch.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "gridmon/core/experiment.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/fault/injector.hpp"
#include "gridmon/hawkeye/agent.hpp"
#include "gridmon/hawkeye/manager.hpp"
#include "gridmon/trace/chrome_export.hpp"

namespace gridmon::core {
namespace {

/// 64-bit FNV-1a as 16 hex digits.
std::string pin(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << h;
  return os.str();
}

struct Pins {
  std::string csv;
  std::string trace;
  std::uint64_t refused = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failed = 0;
};

/// One traced point: `users` UC clients over a short window, optionally
/// under a fault plan, reduced to the pins of its CSV row (full
/// precision, health columns included) and its Chrome trace file.
Pins run_traced(const ScenarioSpec& spec, int users,
                const fault::FaultPlan& plan = {}, double duration = 60) {
  Testbed tb;
  auto scenario = make_scenario(tb, spec);
  scenario->prefill();
  trace::Collector collector(tb.sim(), tb.config().seed);
  WorkloadConfig wc;
  wc.max_attempts = 4;
  UserWorkload workload(tb, scenario->query_fn(), wc);
  fault::Injector injector(tb.sim(), &tb.network());
  if (!plan.empty()) {
    scenario->register_faults(injector);
    injector.add_host(spec.server_host(), tb.host(spec.server_host()));
    injector.set_trace(&collector);
    injector.arm(plan);
  }
  scenario->instrument(collector);
  instrument_host(tb, collector, spec.server_host());
  workload.enable_tracing(collector);
  workload.spawn_users(users, tb.uc_names());
  tb.sampler().start();
  MeasureConfig mc;
  mc.warmup = 10;
  mc.duration = duration;
  mc.collector = &collector;
  MetricsReport p = measure(tb, workload, spec.server_host(), users, mc);

  std::ostringstream csv;
  csv.precision(17);
  const std::vector<std::string> prefix{spec.service_name()};
  write_csv_row(csv, p, kMetricCore | kMetricHealth, prefix);
  csv << ',' << workload.refused_attempts() << ','
      << workload.timeout_attempts() << ',' << workload.failed_attempts();
  std::vector<trace::SeriesTrace> series;
  series.push_back(trace::SeriesTrace{spec.service_name(), collector.take()});
  std::ostringstream json;
  trace::write_chrome_trace(json, series);
  return Pins{pin(csv.str()), pin(json.str()), workload.refused_attempts(),
              workload.timeout_attempts(), workload.failed_attempts()};
}

ScenarioSpec spec_for(ServiceKind kind,
                      QueryVariant query = QueryVariant::Default) {
  return SpecBuilder().service(kind).query(query).build();
}

TEST(ExchangePin, Gris) {
  Pins p = run_traced(spec_for(ServiceKind::Gris), 20);
  EXPECT_EQ(p.csv, "350ecacadaa15d78");
  EXPECT_EQ(p.trace, "0354ee2d00a1a30a");
}

TEST(ExchangePin, GiisQueryAndGrisFetch) {
  Pins p = run_traced(spec_for(ServiceKind::Giis), 20);
  EXPECT_EQ(p.csv, "04c3c3f4cee37c3c");
  EXPECT_EQ(p.trace, "7d67a234496a9abd");
}

TEST(ExchangePin, HierarchyGiisFetch) {
  Pins p = run_traced(
      SpecBuilder().service(ServiceKind::Hierarchy).two_level(true).build(),
      10);
  EXPECT_EQ(p.csv, "dc096b975fd30638");
  EXPECT_EQ(p.trace, "b4775c25e8bd3a57");
}

TEST(ExchangePin, Agent) {
  Pins p = run_traced(spec_for(ServiceKind::Agent), 20);
  EXPECT_EQ(p.csv, "f3b31216bb76585b");
  EXPECT_EQ(p.trace, "87a24c34ad03b835");
}

TEST(ExchangePin, ManagerStatusDumpConstraint) {
  Pins status = run_traced(spec_for(ServiceKind::Manager), 20);
  EXPECT_EQ(status.csv, "7c89091cdb85f108");
  EXPECT_EQ(status.trace, "d03389dbcd0f830e");
  Pins dump = run_traced(
      spec_for(ServiceKind::Manager, QueryVariant::ManagerDump), 10);
  EXPECT_EQ(dump.csv, "2c86a9c5605a60ee");
  EXPECT_EQ(dump.trace, "e20ca6f2f85022e5");
  Pins scan = run_traced(spec_for(ServiceKind::ManagerAggregate), 10);
  EXPECT_EQ(scan.csv, "86adc7f52baa7264");
  EXPECT_EQ(scan.trace, "760ffd6cb1022d06");
}

TEST(ExchangePin, RgmaMediated) {
  Pins p = run_traced(spec_for(ServiceKind::RgmaMediated), 10);
  EXPECT_EQ(p.csv, "7a23751c7f851967");
  EXPECT_EQ(p.trace, "21d9b3f4d78bea39");
}

TEST(ExchangePin, RgmaDirect) {
  Pins p = run_traced(spec_for(ServiceKind::RgmaDirect), 10);
  EXPECT_EQ(p.csv, "0b3a02ad47fec8ef");
  EXPECT_EQ(p.trace, "c7f1fe7e484db20a");
}

TEST(ExchangePin, Registry) {
  Pins p = run_traced(spec_for(ServiceKind::Registry), 20);
  EXPECT_EQ(p.csv, "efcff749deb4c3d3");
  EXPECT_EQ(p.trace, "fd0088c1ff079dca");
}

/// The handlers no scenario query reaches: a filtered LDAP search on a
/// GRIS, and a Manager lookup followed by a module query on an Agent,
/// each once admitted and once refused by a crashed port.
TEST(ExchangePin, SearchLookupAndModuleQuery) {
  Testbed tb;
  auto base = make_scenario(tb, spec_for(ServiceKind::Gris));
  mds::Gris& gris = *static_cast<GrisScenario&>(*base).gris;
  hawkeye::Manager manager(tb.network(), tb.host("lucky3"),
                           tb.nic("lucky3"));
  hawkeye::Agent agent(tb.network(), tb.host("lucky4"), tb.nic("lucky4"),
                       "lucky4", hawkeye::default_modules());
  trace::Collector collector(tb.sim(), tb.config().seed);
  collector.set_enabled(true);
  std::ostringstream replies;
  replies.precision(17);
  auto client = [](net::Interface& nic, trace::Collector& col,
                   mds::Gris& g, hawkeye::Manager& m, hawkeye::Agent& a,
                   std::ostream& out) -> sim::Task<void> {
    for (int round = 0; round < 2; ++round) {
      mds::SearchRequest request;
      request.filter = "(Mds-provider-name=ip1)";
      mds::MdsReply s = co_await g.search(nic, request, col.new_trace());
      std::string address;
      hawkeye::HawkeyeReply l =
          co_await m.lookup_agent(nic, "lucky4", &address, col.new_trace());
      hawkeye::HawkeyeReply q =
          co_await a.query_module(nic, "vmstat", col.new_trace());
      out << s.admitted << ' ' << s.entries << ' ' << s.response_bytes << ' '
          << l.admitted << ' ' << l.machines << ' ' << l.response_bytes
          << ' ' << q.admitted << ' ' << q.machines << ' '
          << q.response_bytes << '\n';
      g.port().crash();
      m.port().crash();
      a.port().crash();
    }
  };
  tb.sim().spawn(client(tb.nic("uc01"), collector, gris, manager, agent,
                        replies));
  tb.sim().run(60.0);
  std::vector<trace::SeriesTrace> series;
  series.push_back(trace::SeriesTrace{"direct", collector.take()});
  std::ostringstream json;
  trace::write_chrome_trace(json, series);
  tb.sim().shutdown();
  EXPECT_EQ(replies.str(), "1 4 8108 1 0 256 1 1 512\n0 0 0 0 0 0 0 0 0\n");
  EXPECT_EQ(pin(json.str()), "00046b5641e83bf5");
}

/// The failure branches. The server (lucky7, site anl) serves UC clients
/// across the anl<->uc WAN; every service's connect timeout is 75 s.
///  - [30, 40): the process dies and the port refuses connections;
///  - [60, 100): the host vanishes; clients that connect hang in
///    admission until the restart at 100 admits them, and then
///  - [90, 200): the WAN is down, so their request uploads stall past
///    the timeout;
///  - [250, 350): the host vanishes for longer than the timeout, so
///    clients hanging in admission time out;
///  - [400, 500): the WAN is down for longer than the timeout, so
///    connects from uc time out.
fault::FaultPlan failure_plan() {
  fault::FaultPlan plan;
  plan.crash("server", 30, 40);
  plan.crash("server", 60, 100, /*blackhole=*/true);
  plan.partition("anl", "uc", 90, 200);
  plan.crash("server", 250, 350, /*blackhole=*/true);
  plan.partition("anl", "uc", 400, 500);
  return plan;
}

TEST(ExchangePin, GrisFailureBranches) {
  Pins p = run_traced(spec_for(ServiceKind::Gris), 20, failure_plan(), 520);
  EXPECT_GT(p.refused, 0u);
  EXPECT_GT(p.timeouts, 0u);
  EXPECT_EQ(p.csv, "78b589c3fcb1e5c9");
  EXPECT_EQ(p.trace, "d19eccb1fa476e21");
}

TEST(ExchangePin, AgentFailureBranches) {
  Pins p = run_traced(spec_for(ServiceKind::Agent), 20, failure_plan(), 520);
  EXPECT_GT(p.refused, 0u);
  EXPECT_GT(p.timeouts, 0u);
  EXPECT_EQ(p.csv, "36ecfba61fcdb575");
  EXPECT_EQ(p.trace, "ab3105647cf8f032");
}

/// The client connects, then uploads before it is admitted.
TEST(ExchangePin, RgmaDirectFailureBranches) {
  Pins p = run_traced(spec_for(ServiceKind::RgmaDirect), 10, failure_plan(),
                      520);
  EXPECT_GT(p.refused, 0u);
  EXPECT_GT(p.timeouts, 0u);
  EXPECT_EQ(p.csv, "94737d299be64dd8");
  EXPECT_EQ(p.trace, "7c4028db78c8fbea");
}

/// Server to server: the ConsumerServlet's selects fail, and the
/// client sees a failed query rather than a timeout.
TEST(ExchangePin, RgmaMediatedFailureBranches) {
  Pins p = run_traced(spec_for(ServiceKind::RgmaMediated), 10,
                      failure_plan(), 520);
  EXPECT_GT(p.failed, 0u);
  EXPECT_EQ(p.csv, "74ed6c874739251f");
  EXPECT_EQ(p.trace, "47d346c96246c803");
}

}  // namespace
}  // namespace gridmon::core
