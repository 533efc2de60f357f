/// Cross-checks the trace subsystem against the metrics subsystem: the
/// CPU-busy timeline derived from trace counter samples (exact, fired on
/// every run-queue change) must integrate to the same utilization the
/// Ganglia-style Sampler reports from served-work deltas. The two paths
/// share no code below the PsServer, so agreement validates both.

#include <gtest/gtest.h>

#include "gridmon/core/experiment.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/trace/timeline.hpp"

namespace gridmon {
namespace {

TEST(TraceAccountingTest, CpuTimelineMatchesSamplerUtilization) {
  core::Testbed tb;
  // GRIS without caching: every query fork/execs ten providers, which
  // keeps the server CPU visibly busy.
  core::ScenarioSpec spec;
  spec.service = core::ServiceKind::GrisNocache;
  auto scenario = core::make_scenario(tb, spec);
  trace::Collector collector(tb.sim(), tb.config().seed);
  core::UserWorkload workload(tb, scenario->query_fn());
  scenario->instrument(collector);
  core::instrument_host(tb, collector, "lucky7");
  workload.enable_tracing(collector);
  workload.spawn_users(40, tb.uc_names());
  tb.sampler().start();

  core::MeasureConfig mc;
  mc.warmup = 30;
  mc.duration = 120;
  mc.collector = &collector;
  double t0 = tb.sim().now() + mc.warmup;
  double t1 = t0 + mc.duration;
  core::MetricsReport p = core::measure(tb, workload, "lucky7", 40, mc);

  trace::TraceData data = collector.take();
  ASSERT_FALSE(data.counters.empty());

  int cores = tb.host("lucky7").cpu().cores();
  // The run-queue track samples min(active, cores) busy cores exactly;
  // integrating the step function gives busy core-seconds.
  double busy = trace::integrate_active(data, "lucky7.cpu", t0, t1,
                                        static_cast<double>(cores));
  double trace_pct = 100.0 * busy / (static_cast<double>(cores) * (t1 - t0));

  // The workload must actually load the server for the check to mean
  // anything.
  EXPECT_GT(p.cpu, 10.0);
  // Sampler percent comes from 5-second served-work deltas; boundary
  // intervals can straddle the window edges, hence the tolerance.
  EXPECT_NEAR(trace_pct, p.cpu, 2.0);

  // NIC flow tracks exist and saw traffic.
  EXPECT_GT(trace::integrate_active(data, "lucky7.nic_tx", t0, t1), 0.0);
  EXPECT_GT(trace::integrate_active(data, "lucky7.nic_rx", t0, t1), 0.0);
}

}  // namespace
}  // namespace gridmon
