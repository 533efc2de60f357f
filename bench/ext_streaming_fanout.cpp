/// Extension: the push model at scale. R-GMA's "main use is the
/// notification of events — a user can subscribe to a flow of data with
/// specific properties directly from a data source" (paper §2.2), yet
/// none of the paper's experiments measure streaming delivery. Here one
/// ProducerServlet publishes a 1 Hz tuple stream and N consumers
/// subscribe; we sweep N and report producer-side load plus delivery
/// latency (publish -> consumer callback).

#include <iostream>

#include "bench_common.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

int main(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  auto sweep = opt.sweep({10, 50, 100, 250, 500, 900}, 2);

  metrics::Table table("Extension: streaming fan-out (1 Hz publisher)");
  table.set_columns({"subscribers", "tuples_delivered", "mean_latency_ms",
                     "p99_latency_ms", "producer_cpu_pct",
                     "producer_load1"});
  std::vector<Series> figures;
  Series s{"R-GMA push delivery", {}};

  for (int n : sweep) {
    ScenarioSpec spec = ScenarioSpec::build()
                            .service(ServiceKind::StreamFanout)
                            .subscribers(n)
                            .build();
    TestbedConfig tc;
    tc.seed = opt.seed_for(spec);
    Testbed tb(tc);
    auto base = make_scenario(tb, spec);
    auto& scenario = static_cast<FanoutScenario&>(*base);
    tb.sampler().start();
    MeasureConfig mc = opt.measure();
    tb.sim().run(mc.warmup);
    double t0 = tb.sim().now();
    std::size_t delivered_before = scenario.latency.count();
    tb.sim().run(t0 + mc.duration);
    double t1 = tb.sim().now();

    MetricsReport p;
    p.x = n;
    p.throughput =
        static_cast<double>(scenario.latency.count() - delivered_before) /
        (t1 - t0);
    p.response = scenario.latency.mean();
    p.load1 = tb.sampler().series("lucky3.load1").mean_over(t0, t1);
    p.cpu = tb.sampler().series("lucky3.cpu_pct").mean_over(t0, t1);
    table.add_row({std::to_string(n),
                   metrics::Table::num(p.throughput * (t1 - t0), 0),
                   metrics::Table::num(scenario.latency.mean() * 1000),
                   metrics::Table::num(scenario.latency.percentile(0.99) *
                                       1000),
                   metrics::Table::num(p.cpu, 1),
                   metrics::Table::num(p.load1, 3)});
    progress(s.name, n, p);
    s.points.push_back(p);
  }
  figures.push_back(std::move(s));

  std::cout << "\n";
  table.print_text(std::cout);
  emit_csv(opt, "ext_streaming_fanout", figures);
  std::cout << "\nPush delivery scales far past the pull model's limits:\n"
               "each tuple costs the producer one small send per\n"
               "subscriber, not one mediated SQL query per interested\n"
               "user per polling interval.\n";
  return 0;
}
