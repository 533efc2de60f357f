#include "gridmon/core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "gridmon/net/server_port.hpp"

namespace gridmon::core {

MetricsReport measure(Testbed& testbed, UserWorkload& workload,
                      const std::string& server_host, double x,
                      MeasureConfig config) {
  std::size_t events = testbed.sim().run(testbed.sim().now() + config.warmup);
  double t0 = testbed.sim().now();
  double refused_before = static_cast<double>(workload.refused_attempts());
  double errors_before = static_cast<double>(workload.error_count());
  double abandoned_before = static_cast<double>(workload.abandoned_queries());
  double attempts_before = static_cast<double>(workload.total_attempts());
  double queries_before = static_cast<double>(workload.total_queries());
  double shed_before = config.port != nullptr
                           ? static_cast<double>(config.port->total_shed())
                           : 0;
  if (config.collector != nullptr) config.collector->set_enabled(true);
  events += testbed.sim().run(t0 + config.duration);
  if (config.collector != nullptr) config.collector->set_enabled(false);
  double t1 = testbed.sim().now();

  MetricsReport p;
  p.x = x;
  p.events = static_cast<double>(events);
  p.throughput = workload.throughput(t0, t1);
  p.response = workload.mean_response(t0, t1);
  p.load1 = testbed.sampler().series(server_host + ".load1").mean_over(t0, t1);
  p.cpu = testbed.sampler().series(server_host + ".cpu_pct").mean_over(t0, t1);
  p.refused =
      (static_cast<double>(workload.refused_attempts()) - refused_before) /
      config.duration;
  double succ = static_cast<double>(workload.completed(t0, t1));
  double abandoned =
      static_cast<double>(workload.abandoned_queries()) - abandoned_before;
  p.availability = succ + abandoned > 0 ? succ / (succ + abandoned) : 1.0;
  p.error_rate =
      (static_cast<double>(workload.error_count()) - errors_before) /
      config.duration;
  p.stale_frac = workload.stale_fraction(t0, t1);
  p.goodput = workload.goodput(t0, t1, config.goodput_deadline);
  if (config.port != nullptr) {
    p.shed_rate = (static_cast<double>(config.port->total_shed()) -
                   shed_before) /
                  config.duration;
  }
  double d_queries =
      static_cast<double>(workload.total_queries()) - queries_before;
  p.retry_amp =
      d_queries > 0
          ? (static_cast<double>(workload.total_attempts()) - attempts_before) /
                d_queries
          : 0;
  if (config.recovery_mark >= 0) {
    double first = workload.first_success_after(config.recovery_mark);
    p.recovery = first >= 0 ? first - config.recovery_mark : -1;
    if (config.recovered_at) {
      double rc = config.recovered_at();
      // Replay can finish inside the fault window (restart happens at the
      // mark); clamp so "already recovered" reads as 0, not negative.
      p.recovery_complete =
          rc >= 0 ? std::max(0.0, rc - config.recovery_mark) : -1;
    } else {
      p.recovery_complete = -1;
    }
  }
  return p;
}

MetricsReport replicate(
    const std::vector<std::uint64_t>& seeds,
    const std::function<MetricsReport(std::uint64_t)>& run_one,
    double* throughput_stddev_out) {
  MetricsReport mean;
  mean.availability = 0;   // the struct default is 1; accumulate from zero
  mean.peak_rss_kb = 0;    // likewise (-1 = "not measured")
  mean.shards = 0;         // likewise (the struct default is 1)
  std::vector<double> throughputs;
  // The schema is the field list: every metric column accumulates and
  // averages, so new columns join replication without touching this loop.
  for (auto seed : seeds) {
    MetricsReport p = run_one(seed);
    mean.x = p.x;
    for (const auto& col : metric_columns()) {
      if (col.field == &MetricsReport::x) continue;
      mean.*(col.field) += p.*(col.field);
    }
    throughputs.push_back(p.throughput);
  }
  double n = static_cast<double>(seeds.size());
  if (n > 0) {
    for (const auto& col : metric_columns()) {
      if (col.field == &MetricsReport::x) continue;
      mean.*(col.field) /= n;
    }
  }
  if (throughput_stddev_out != nullptr) {
    double ss = 0;
    for (double t : throughputs) {
      ss += (t - mean.throughput) * (t - mean.throughput);
    }
    *throughput_stddev_out = n > 1 ? std::sqrt(ss / n) : 0;
  }
  return mean;
}

void print_figures(std::ostream& os, int first_figure,
                   const std::string& subject, const std::string& x_label,
                   const std::vector<Series>& series) {
  struct Metric {
    const char* title;
    double MetricsReport::* field;
    int precision;
  };
  const Metric metrics[] = {
      {"Throughput (queries/sec)", &MetricsReport::throughput, 2},
      {"Response Time (sec)", &MetricsReport::response, 2},
      {"Load1", &MetricsReport::load1, 3},
      {"CPU Load (%)", &MetricsReport::cpu, 1},
  };

  // Collect the union of x values, sorted.
  std::map<double, bool> xs;
  for (const auto& s : series) {
    for (const auto& p : s.points) xs[p.x] = true;
  }

  int figure_index = 0;
  for (const auto& m : metrics) {
    metrics::Table table("Figure " +
                         std::to_string(first_figure + figure_index) + ": " +
                         subject + " " + m.title + " vs. " + x_label);
    std::vector<std::string> cols{x_label};
    for (const auto& s : series) cols.push_back(s.name);
    table.set_columns(cols);
    for (const auto& [x, unused] : xs) {
      std::vector<std::string> row{metrics::Table::num(x, 0)};
      for (const auto& s : series) {
        double v = -1;
        for (const auto& p : s.points) {
          if (p.x == x) {
            v = m.field == &MetricsReport::load1 ? p.load1 : p.*(m.field);
            break;
          }
        }
        row.push_back(metrics::Table::num(v, m.precision));
      }
      table.add_row(row);
    }
    table.print_text(os);
    os << '\n';
    ++figure_index;
  }
}

}  // namespace gridmon::core
