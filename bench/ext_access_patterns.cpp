/// Extension: the paper's §4 plan "to consider additional patterns of
/// user access." Contrasts the study's closed-loop users (blocking query
/// + 1 s think time — offered load self-throttles when the server slows)
/// with an open-loop Poisson arrival stream (offered load is fixed) on
/// the same GRIS-cache deployment.
///
/// The closed-loop x-axis is the user count; for comparability the
/// open-loop series offers the arrival rate those users would generate
/// at light load (N / (response + think)).

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "gridmon/core/open_workload.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

int main(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  auto users = opt.sweep({50, 150, 300, 450, 600, 750}, 2);
  // Light-load cycle ~ 3.3 s response + 1 s think.
  const double kCycle = 4.3;

  ScenarioSpec spec;  // GRIS with cache, 10 providers
  std::vector<Series> figures;

  {
    Series s{"closed loop (paper's users)", {}};
    std::cout << s.name << "\n";
    for (int n : users) {
      PointHooks hooks;
      hooks.x = n;
      hooks.max_users_per_host = 50;
      s.points.push_back(run_point(opt, s.name, spec, std::min(n, 1000),
                                   nullptr, hooks));
    }
    figures.push_back(std::move(s));
  }

  {
    Series s{"open loop (Poisson arrivals)", {}};
    std::cout << s.name << "\n";
    for (int n : users) {
      TestbedConfig tc;
      tc.seed = opt.seed_for(spec);
      Testbed tb(tc);
      auto scenario = make_scenario(tb, spec);
      OpenWorkloadConfig oc;
      oc.arrival_rate = static_cast<double>(n) / kCycle;
      OpenWorkload w(tb, scenario->query_fn(), oc);
      w.start(tb.uc_names());
      tb.sampler().start();

      MeasureConfig mc = opt.measure();
      tb.sim().run(tb.sim().now() + mc.warmup);
      double t0 = tb.sim().now();
      tb.sim().run(t0 + mc.duration);
      double t1 = tb.sim().now();
      MetricsReport p;
      p.x = n;
      p.throughput = w.throughput(t0, t1);
      p.response = w.mean_response(t0, t1);
      p.load1 = tb.sampler().series("lucky7.load1").mean_over(t0, t1);
      p.cpu = tb.sampler().series("lucky7.cpu_pct").mean_over(t0, t1);
      progress(s.name, n, p);
      std::cout << "    outstanding at end: " << w.outstanding()
                << ", failures: " << w.failures() << "\n";
      s.points.push_back(p);
    }
    figures.push_back(std::move(s));
  }

  std::cout << "\n";
  print_figures(std::cout, 33, "GRIS (cache), closed vs open loop",
                "Equivalent No. of Users", figures);
  emit_csv(opt, "ext_access_patterns", figures);
  std::cout << "\nPast the server's capacity the closed loop plateaus (its\n"
               "users wait), while the open loop's queue and response time\n"
               "diverge — the paper's 1-second-wait methodology understates\n"
               "overload damage for arrival-driven workloads.\n";
  return 0;
}
