#pragma once

/// \file bench_common.hpp
/// Shared scaffolding for the figure-reproduction binaries and
/// gridmon_run: one CLI (--quick, --csv, --trace, --seed, --users),
/// sweep thinning, CSV/trace emission, and the common sweep-point loop
/// (Testbed + make_scenario + UserWorkload + measure) every closed-loop
/// bench runs.

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "gridmon/core/experiment.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/metrics/report.hpp"
#include "gridmon/trace/chrome_export.hpp"

namespace gridmon::bench {

struct BenchOptions {
  bool quick = false;
  std::string csv_path;    // empty: no CSV
  std::string trace_path;  // empty: tracing off
  std::uint64_t seed = 0;  // 0: keep each spec's seed (default 42)
  int users = 0;           // >0: replace the sweep with this single point
  std::vector<std::string> positional;  // only when the caller allows them

  core::MeasureConfig measure() const {
    core::MeasureConfig mc;
    if (quick) {
      mc.warmup = 30;
      mc.duration = 120;
    }
    return mc;
  }

  /// Thin the sweep in quick mode: keep first, last and every `stride`th.
  /// A --users override collapses the sweep to that single point.
  std::vector<int> sweep(std::vector<int> full, std::size_t stride = 2) const {
    if (users > 0) return {users};
    if (!quick) return full;
    std::vector<int> out;
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (i == 0 || i + 1 == full.size() || i % stride == 0) {
        out.push_back(full[i]);
      }
    }
    return out;
  }

  /// Seed for one sweep point: CLI --seed wins over the spec.
  std::uint64_t seed_for(const core::ScenarioSpec& spec) const {
    return seed != 0 ? seed : spec.seed;
  }
};

inline void print_usage(const char* argv0, const std::string& extra) {
  std::cout
      << "usage: " << argv0 << " [options]" << (extra.empty() ? "" : " ")
      << extra << "\n"
      << "  --quick       short spans (30s warmup, 120s measure), thin sweep\n"
      << "  --csv FILE    write sweep points as CSV\n"
      << "  --trace FILE  record the first sweep point of each series as\n"
      << "                Chrome trace_event JSON\n"
      << "  --seed N      override the simulation seed (default 42)\n"
      << "  --users N     run a single sweep point with N users\n"
      << "  --help        this text\n"
      << "Every flag also accepts --flag=VALUE. GRIDMON_BENCH_QUICK=1 in\n"
      << "the environment implies --quick.\n";
}

/// `value` as a positive int, or exit 2 naming `flag`: trailing
/// characters, a sign, zero and overflow are all rejected.
inline int positive_int_flag(const char* program, const std::string& flag,
                             const std::string& value) {
  char* end = nullptr;
  long v = std::strtol(value.c_str(), &end, 10);
  bool digits =
      !value.empty() && std::isdigit(static_cast<unsigned char>(value[0]));
  if (!digits || *end != '\0' || v <= 0 ||
      v > std::numeric_limits<int>::max()) {
    std::cerr << program << ": " << flag << " needs a positive integer\n";
    std::exit(2);
  }
  return static_cast<int>(v);
}

/// Parse the shared CLI. Unknown flags are an error (exit 2); positional
/// arguments are an error unless `allow_positional` (gridmon_run's config
/// path) is set.
inline BenchOptions parse_options(int argc, char** argv,
                                  bool allow_positional = false,
                                  const std::string& extra_help = "") {
  BenchOptions opt;
  // --flag VALUE and --flag=VALUE both work for every value flag.
  auto value = [&](const std::string& arg, const std::string& flag, int& i,
                   std::string& out) {
    if (arg.rfind(flag + "=", 0) == 0) {
      out = arg.substr(flag.size() + 1);
      return true;
    }
    if (arg == flag) {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << flag << " needs a value\n";
        std::exit(2);
      }
      out = argv[++i];
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string v;
    if (arg == "--quick") {
      opt.quick = true;
    } else if (value(arg, "--csv", i, v)) {
      opt.csv_path = v;
    } else if (value(arg, "--trace", i, v)) {
      opt.trace_path = v;
    } else if (value(arg, "--seed", i, v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      if (opt.seed == 0) {
        std::cerr << argv[0] << ": --seed needs a positive integer\n";
        std::exit(2);
      }
    } else if (value(arg, "--users", i, v)) {
      opt.users = positive_int_flag(argv[0], "--users", v);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(argv[0], extra_help);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown option '" << arg
                << "' (try --help)\n";
      std::exit(2);
    } else if (allow_positional) {
      opt.positional.push_back(arg);
    } else {
      std::cerr << argv[0] << ": unexpected argument '" << arg << "'\n";
      std::exit(2);
    }
  }
  // Environment hook so `ctest`/scripts can shorten every bench at once.
  // No suppression needed: the flow-sensitive taint rule sees this value
  // steer only harness control flow (opt.quick is assigned a constant),
  // never flow into simulated state.
  if (std::getenv("GRIDMON_BENCH_QUICK") != nullptr) opt.quick = true;
  return opt;
}

/// Write sweep series through the shared MetricsReport serializer. The
/// default (core) column group reproduces the historical bench CSV
/// byte-for-byte; benches with extra semantics opt into more groups.
inline void emit_csv(const BenchOptions& opt, const std::string& bench_name,
                     const std::vector<core::Series>& series,
                     unsigned groups = core::kMetricCore) {
  if (opt.csv_path.empty()) return;
  std::ofstream out(opt.csv_path);
  const std::vector<std::string> header_prefix{"bench", "series"};
  out << core::csv_header(groups, header_prefix) << '\n';
  for (const auto& s : series) {
    const std::vector<std::string> prefix{bench_name, s.name};
    for (const auto& p : s.points) {
      core::write_csv_row(out, p, groups, prefix);
      out << '\n';
    }
  }
  std::cout << "wrote " << opt.csv_path << "\n";
}

/// Write accumulated trace series as one Chrome trace_event file.
inline void emit_trace(const BenchOptions& opt,
                       const std::vector<trace::SeriesTrace>& traces) {
  if (opt.trace_path.empty()) return;
  std::ofstream out(opt.trace_path, std::ios::binary);
  trace::write_chrome_trace(out, traces);
  std::cout << "wrote " << opt.trace_path << "\n";
}

/// Progress line so long sweeps show life on the terminal.
inline void progress(const std::string& series, int x,
                     const core::MetricsReport& p) {
  std::cout << "  [" << series << "] x=" << x
            << " tput=" << metrics::Table::num(p.throughput)
            << " resp=" << metrics::Table::num(p.response)
            << " load1=" << metrics::Table::num(p.load1, 3)
            << " cpu=" << metrics::Table::num(p.cpu, 1)
            << " refused/s=" << metrics::Table::num(p.refused) << "\n";
}

/// Per-point tweaks for benches whose loop differs slightly from the
/// default (x axis that isn't the user count, member reads after the
/// measurement window, a client-host cap).
struct PointHooks {
  std::optional<double> x;     // CSV x value (default: the user count)
  int max_users_per_host = 0;  // 0 = 100 on lucky clients, else 50
  /// Runs after measure(), before the scenario is torn down — read
  /// scenario members (cache stats, completion logs) here.
  std::function<void(core::Scenario&, core::UserWorkload&)> after_measure;
};

/// The standard closed-loop sweep point: fresh Testbed, deployment via
/// make_scenario + prefill, UserWorkload bound to the scenario's query,
/// one measurement window. This is the loop exp1-exp4 and most extended
/// benches share; only push-based and open-loop benches hand-roll it.
inline core::MetricsReport run_point(const BenchOptions& opt,
                                     const std::string& series,
                                     const core::ScenarioSpec& spec, int users,
                                     trace::SeriesTrace* trace_out = nullptr,
                                     const PointHooks& hooks = {}) {
  core::WorkloadConfig wc;
  try {
    wc.max_users_per_host =
        core::checked_users_per_host(spec, users, hooks.max_users_per_host);
  } catch (const core::ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    std::exit(2);
  }
  core::TestbedConfig tc;
  tc.seed = opt.seed_for(spec);
  core::Testbed tb(tc);
  auto scenario = core::make_scenario(tb, spec);
  scenario->prefill();
  // The collector must outlive the workload's user coroutines (destroyed
  // by ~UserWorkload's shutdown), hence this declaration order.
  trace::Collector collector(tb.sim(), tb.config().seed);
  if (spec.query_deadline > 0) wc.query_deadline = spec.query_deadline;
  if (spec.max_attempts > 0) wc.max_attempts = spec.max_attempts;
  if (spec.resilience.enabled) wc.resilience = spec.resilience.client;
  core::UserWorkload workload(tb, scenario->query_fn(), wc);
  const std::string server = spec.server_host();
  if (trace_out != nullptr) {
    scenario->instrument(collector);
    core::instrument_host(tb, collector, server);
    workload.enable_tracing(collector);
  }
  workload.spawn_users(users,
                       spec.lucky_clients ? tb.lucky_names() : tb.uc_names());
  tb.sampler().start();
  core::MeasureConfig mc = opt.measure();
  if (trace_out != nullptr) mc.collector = &collector;
  if (spec.resilience.enabled) {
    mc.port = scenario->server_port();
    mc.goodput_deadline = spec.goodput_deadline;
  }
  double x = hooks.x.value_or(users);
  core::MetricsReport p = core::measure(tb, workload, server, x, mc);
  if (trace_out != nullptr) {
    trace_out->series = series;
    trace_out->data = collector.take();
  }
  if (hooks.after_measure) hooks.after_measure(*scenario, workload);
  progress(series, static_cast<int>(x), p);
  return p;
}

}  // namespace gridmon::bench
