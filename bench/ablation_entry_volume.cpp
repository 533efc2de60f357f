/// Ablation: data volume per machine. The paper's §3.5 motivation:
/// "other monitoring systems (such as WatchTower) can publish as many as
/// 2,000 individual pieces of information from a single machine."
/// Sweeps the number of published entries on one GRIS from today's 40 up
/// to WatchTower's 2,000 (10 providers, entries split evenly, data
/// pinned in cache) under a fixed 50-user load.

#include <iostream>

#include "bench_common.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

int main(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  auto volumes = opt.sweep({40, 200, 500, 1000, 2000}, 2);
  const int kUsers = opt.users > 0 ? opt.users : (opt.quick ? 20 : 50);

  metrics::Table table("Ablation: entries per machine (GRIS cache, " +
                       std::to_string(kUsers) + " users)");
  table.set_columns({"entries", "resp_KB", "throughput", "response_sec",
                     "load1", "cpu_pct"});
  std::vector<Series> figures;
  Series s{"GRIS (cache)", {}};

  for (int total : volumes) {
    ScenarioSpec spec =
        ScenarioSpec::build()
            .service(ServiceKind::Gris)
            .provider_entries(total / 10)
            .provider_bytes(600)  // WatchTower items are small counters
            .build();
    PointHooks hooks;
    hooks.x = total;
    double resp_kb = 0;
    hooks.after_measure = [&resp_kb](Scenario&, UserWorkload& w) {
      if (!w.completions().empty()) {
        resp_kb = w.completions().back().bytes / 1024.0;
      }
    };
    MetricsReport p = run_point(opt, s.name, spec, kUsers, nullptr, hooks);
    table.add_row({std::to_string(total), metrics::Table::num(resp_kb, 0),
                   metrics::Table::num(p.throughput),
                   metrics::Table::num(p.response),
                   metrics::Table::num(p.load1, 3),
                   metrics::Table::num(p.cpu, 1)});
    s.points.push_back(p);
  }
  figures.push_back(std::move(s));

  std::cout << "\n";
  table.print_text(std::cout);
  emit_csv(opt, "ablation_entry_volume", figures);
  std::cout << "\nEven fully cached, WatchTower-scale publication volumes\n"
               "push the per-query serialization and transfer cost up —\n"
               "the scaling problem the paper's §3.5 anticipates.\n";
  return 0;
}
