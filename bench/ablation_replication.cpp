/// Ablation: the paper's §3.3 recommendation that "for larger number of
/// users the system should be configured to have multiple
/// ProducerServlets for the same information". Sweeps (a) the servlet
/// container pool size and (b) the number of ProducerServlet replicas at
/// a fixed 300-user R-GMA load, with consumers spread round-robin.

#include <iostream>

#include "bench_common.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

int main(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  const int kUsers = opt.users > 0 ? opt.users : (opt.quick ? 100 : 300);

  metrics::Table table("Ablation: R-GMA ProducerServlet replication (" +
                       std::to_string(kUsers) + " users)");
  table.set_columns(
      {"replicas", "pool", "throughput", "response_sec", "refused_per_s"});
  std::vector<Series> csv_series;

  for (int replicas : {1, 2, 4}) {
    Series s{"replicas=" + std::to_string(replicas), {}};
    for (int pool : {2, 4, 8, 16}) {
      ScenarioSpec spec = ScenarioSpec::build()
                              .service(ServiceKind::RgmaReplicated)
                              .replicas(replicas)
                              .pool_size(pool)
                              .build();
      PointHooks hooks;
      hooks.x = pool;
      MetricsReport p = run_point(opt, s.name, spec, kUsers, nullptr, hooks);
      table.add_row({std::to_string(replicas), std::to_string(pool),
                     metrics::Table::num(p.throughput),
                     metrics::Table::num(p.response),
                     metrics::Table::num(p.refused)});
      s.points.push_back(p);
    }
    csv_series.push_back(std::move(s));
  }

  std::cout << "\n";
  table.print_text(std::cout);
  emit_csv(opt, "ablation_replication", csv_series);
  return 0;
}
