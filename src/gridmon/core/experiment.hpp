#pragma once

/// \file experiment.hpp
/// Measurement protocol shared by every experiment: warm up, measure for
/// a fixed span (10 minutes in the paper), and report the four metrics of
/// §3.2 — throughput, response time, CPU load and load1 — for the machine
/// hosting the service under test.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gridmon/core/metrics_report.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/metrics/report.hpp"

namespace gridmon::net {
class ServerPort;
}

namespace gridmon::core {

struct MeasureConfig {
  double warmup = 120.0;
  double duration = 600.0;  // the paper's 10-minute span
  /// When set, span/counter collection is switched on for exactly the
  /// measured span: enabled once warmup ends, disabled when the duration
  /// expires. Null (the default) leaves tracing untouched.
  trace::Collector* collector = nullptr;
  /// When >= 0 (absolute sim time, typically a fault window's end), the
  /// MetricsReport's `recovery` reports the delay from this mark to the
  /// first successful query completion at or after it.
  double recovery_mark = -1;
  /// Optional probe polled once at the end of the window: the absolute
  /// sim time the crashed service's *state* re-converged to its pre-crash
  /// size (Scenario::recovered_at), or -1 if it never did. Feeds the
  /// MetricsReport's `recovery_complete`. The first-successful-query mark
  /// above dates service *reachability*; a soft-state service answers
  /// long before its contents are back, which is exactly the gap the two
  /// columns expose.
  std::function<double()> recovered_at;
  /// The service's listen port when a resilience policy is active: its
  /// shed counter is deltaed over the window into `shed_rate`. Null (the
  /// default) reports zero.
  const net::ServerPort* port = nullptr;
  /// Response-time bound for a completion to count toward goodput. 0 (the
  /// default) counts every completion, making goodput == throughput.
  double goodput_deadline = 0;
};

/// Run the clock through warmup+duration and collect a MetricsReport for
/// `workload` with host metrics from `server_host`. `events` counts the
/// simulator events of both stretches; the wall-clock fields stay unset.
MetricsReport measure(Testbed& testbed, UserWorkload& workload,
                      const std::string& server_host, double x,
                      MeasureConfig config = {});

/// Replicate a whole sweep-point experiment across `seeds` independent
/// random streams and average the metrics (population stddev of the
/// throughput is reported through `throughput_stddev_out` when given).
/// `run_one` builds and measures a fresh deployment for one seed.
MetricsReport replicate(
    const std::vector<std::uint64_t>& seeds,
    const std::function<MetricsReport(std::uint64_t)>& run_one,
    double* throughput_stddev_out = nullptr);

/// A figure = one metric across sweep points for several series.
struct Series {
  std::string name;
  std::vector<MetricsReport> points;
};

/// Print the paper-style figure tables (one table per metric:
/// throughput, response time, load1, CPU) for a set of series sharing the
/// same x values. `first_figure` is the paper's figure number of the
/// throughput plot (e.g. 5 prints Figures 5-8).
void print_figures(std::ostream& os, int first_figure,
                   const std::string& subject, const std::string& x_label,
                   const std::vector<Series>& series);

}  // namespace gridmon::core
