/// Ablation: how much of the GRIS result is the cache? Sweeps the
/// provider cache TTL from 0 (every query re-executes the providers,
/// the paper's "nocache") through the 30 s default up to effectively
/// infinite, at a fixed user population. Quantifies the paper's central
/// recommendation that "caching can significantly improve performance of
/// the information server".

#include <iostream>

#include "bench_common.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

int main(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  const int kUsers = opt.users > 0 ? opt.users : (opt.quick ? 50 : 200);
  const double ttls[] = {0.0, 1.0, 5.0, 30.0, 300.0, 1e18};

  std::vector<Series> figures;
  Series s{"MDS GRIS (200 users)", {}};
  std::cout << "cache TTL sweep, " << kUsers << " users\n";
  metrics::Table table("Ablation: GRIS provider cache TTL (" +
                       std::to_string(kUsers) + " users)");
  table.set_columns({"ttl_sec", "throughput", "response_sec", "load1",
                     "cpu_pct", "provider_runs"});

  for (double ttl : ttls) {
    ScenarioSpec spec =
        ScenarioSpec::build()
            .service(ttl > 0 ? ServiceKind::Gris : ServiceKind::GrisNocache)
            .provider_ttl(ttl)
            .build();
    PointHooks hooks;
    hooks.x = ttl > 1e9 ? 1e6 : ttl;
    std::uint64_t provider_runs = 0;
    hooks.after_measure = [&provider_runs](Scenario& sc, UserWorkload&) {
      provider_runs = static_cast<GrisScenario&>(sc).gris->provider_runs();
    };
    MetricsReport p = run_point(opt, "ttl", spec, kUsers, nullptr, hooks);
    table.add_row({ttl > 1e9 ? "inf" : metrics::Table::num(ttl, 0),
                   metrics::Table::num(p.throughput),
                   metrics::Table::num(p.response),
                   metrics::Table::num(p.load1, 3),
                   metrics::Table::num(p.cpu, 1),
                   std::to_string(provider_runs)});
    s.points.push_back(p);
  }
  figures.push_back(std::move(s));

  std::cout << "\n";
  table.print_text(std::cout);
  emit_csv(opt, "ablation_cache_ttl", figures);
  return 0;
}
