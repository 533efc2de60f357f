/// gridmon_run — declarative experiment runner.
///
///   $ gridmon_run my_experiment.ini [--csv FILE] [--trace FILE]
///                 [--quick] [--seed N] [--users N]
///
/// Reads an INI scenario description (see core/scenario_spec.hpp), builds
/// the corresponding deployment on the paper's testbed through
/// core::make_scenario, sweeps the user counts, and prints the four study
/// metrics per sweep point (plus the robustness metrics when a [faults]
/// section is present).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "gridmon/core/frontier.hpp"
#include "gridmon/fault/injector.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

int main(int argc, char** argv) {
  BenchOptions opt =
      parse_options(argc, argv, /*allow_positional=*/true, "SCENARIO.ini");
  if (opt.positional.size() != 1) {
    std::cerr << "usage: " << argv[0]
              << " SCENARIO.ini [--csv FILE] [--trace FILE] [--quick]"
                 " [--seed N] [--users N]\n";
    return 2;
  }
  std::ifstream in(opt.positional.front());
  if (!in) {
    std::cerr << "cannot open " << opt.positional.front() << "\n";
    return 2;
  }

  ScenarioSpec spec;
  try {
    std::stringstream buffer;
    buffer << in.rdbuf();
    // CLI overrides re-enter the builder so they get the same validation
    // as the file's own keys.
    SpecBuilder overrides(parse_scenario_spec(buffer.str()));
    if (opt.seed != 0) overrides.seed(opt.seed);
    if (opt.users > 0) overrides.users({opt.users});
    if (opt.quick) overrides.window(30, 120);
    spec = overrides.build();
    // Check the whole sweep before any Testbed is built. The frontier
    // sizes its UC pool to fit the users instead, but cannot trace.
    if (!spec.engine.sharded()) {
      for (int n : spec.users) checked_users_per_host(spec, n);
    } else if (!opt.trace_path.empty()) {
      throw ConfigError(
          "--trace: the sharded engine ([engine] shards >= 1) cannot "
          "trace; run with shards = 0");
    }
  } catch (const ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return 2;
  }

  bool sharded = spec.engine.sharded();
  std::cout << "service: " << spec.service_name()
            << ", collectors: " << spec.collectors
            << ", clients: " << (spec.lucky_clients ? "lucky" : "uc")
            << ", window: " << spec.warmup << "+" << spec.duration << "s";
  if (sharded) {
    std::cout << ", engine: sharded (" << spec.engine.shards << " shards)";
  }
  std::cout << "\n\n";

  bool with_faults = !spec.faults.empty();
  bool with_store = spec.store.enabled();
  bool with_resilience = spec.resilience.enabled;
  metrics::Table table(spec.service_name());
  std::vector<std::string> cols{"users",  "throughput (q/s)", "response (s)",
                                "load1",  "cpu %",            "refused/s"};
  if (with_faults) {
    cols.insert(cols.end(), {"avail", "err/s", "stale", "recovery (s)",
                             "recovered (s)"});
  }
  if (with_store) {
    cols.insert(cols.end(), {"store", "wal (B)", "flushes", "snapshots",
                             "replayed", "replay (s)"});
  }
  if (with_resilience) {
    cols.insert(cols.end(), {"goodput (q/s)", "shed/s", "retry_amp"});
  }
  table.set_columns(cols);
  // Metric columns flow through the shared MetricsReport serializer;
  // only the store::Log stats (not part of the metrics row) append as
  // tool-specific columns.
  unsigned csv_groups = kMetricCore;
  if (with_faults) csv_groups |= kMetricHealth | kMetricRecovery;
  if (with_resilience) csv_groups |= kMetricResilience;
  if (sharded) csv_groups |= kMetricEngine;
  std::ofstream csv;
  if (!opt.csv_path.empty()) {
    csv.open(opt.csv_path);
    const std::vector<std::string> header_prefix{"service"};
    csv << csv_header(csv_groups, header_prefix);
    if (with_store) {
      csv << ",store_mode,wal_bytes,flushes,snapshots,replayed,replay_s";
    }
    csv << "\n";
  }

  // Tracing records the first sweep point only: the causal structure is
  // the same at every load and the file stays small.
  std::vector<trace::SeriesTrace> traces;
  bool first_point = true;
  for (int n : spec.users) {
    TestbedConfig tc;
    tc.seed = spec.seed;
    if (sharded) {
      // The frontier drives the UC pool at the paper's 50-users/host
      // cap; size the pool to fit the requested population.
      tc.uc_clients = std::max(20, (n + 49) / 50);
    }
    Testbed tb(tc);
    std::unique_ptr<Scenario> scenario;
    try {
      scenario = make_scenario(tb, spec);
    } catch (const ConfigError& e) {
      std::cerr << "config error: " << e.what() << "\n";
      return 2;
    }
    scenario->prefill();
    trace::Collector collector(tb.sim(), tb.config().seed);
    std::unique_ptr<UserWorkload> workload;
    std::unique_ptr<FrontierWorkload> frontier;
    fault::Injector injector(tb.sim(), &tb.network());
    MetricsReport p;
    if (sharded) {
      // Spec validation already rejected faults and resilience, and
      // --trace was rejected above; the sharded path is scenario +
      // frontier + one window.
      FrontierConfig fc;
      fc.shards = spec.engine.shards;
      fc.lookahead = spec.engine.lookahead;
      fc.admission_port = scenario->server_port();
      fc.server_host = spec.server_host();
      frontier =
          std::make_unique<FrontierWorkload>(tb, scenario->query_fn(), fc);
      frontier->spawn_users(n);
      tb.sampler().start();
      p = frontier->measure_window(n, spec.warmup, spec.duration,
                                   spec.server_host());
    } else {
      WorkloadConfig wc;
      wc.max_users_per_host = checked_users_per_host(spec, n);
      wc.query_deadline = spec.query_deadline;
      wc.max_attempts = spec.max_attempts;
      if (with_resilience) wc.resilience = spec.resilience.client;
      workload =
          std::make_unique<UserWorkload>(tb, scenario->query_fn(), wc);
      if (with_faults) {
        scenario->register_faults(injector);
        for (const auto& name : tb.lucky_names()) {
          injector.add_host(name, tb.host(name));
        }
        for (const auto& name : tb.uc_names()) {
          injector.add_host(name, tb.host(name));
        }
        injector.arm(spec.faults);
      }
      bool tracing = !opt.trace_path.empty() && first_point;
      first_point = false;
      if (tracing) {
        scenario->instrument(collector);
        instrument_host(tb, collector, spec.server_host());
        workload->enable_tracing(collector);
        injector.set_trace(&collector);
      }
      workload->spawn_users(n, spec.lucky_clients ? tb.lucky_names()
                                                  : tb.uc_names());
      tb.sampler().start();
      MeasureConfig mc;
      mc.warmup = spec.warmup;
      mc.duration = spec.duration;
      if (tracing) mc.collector = &collector;
      if (with_faults) {
        // Recovery is measured from the last scheduled fault event.
        double last = 0;
        for (const auto& ev : spec.faults.events()) {
          if (ev.at > last) last = ev.at;
        }
        mc.recovery_mark = last;
        mc.recovered_at = [&scenario] { return scenario->recovered_at(); };
      }
      if (with_resilience) {
        mc.port = scenario->server_port();
        mc.goodput_deadline = spec.goodput_deadline;
      }
      p = measure(tb, *workload, spec.server_host(), n, mc);
      if (tracing) {
        traces.push_back(trace::SeriesTrace{
            spec.service_name() + " n=" + std::to_string(n),
            collector.take()});
      }
    }
    std::vector<std::string> row{
        std::to_string(n),          metrics::Table::num(p.throughput),
        metrics::Table::num(p.response), metrics::Table::num(p.load1, 3),
        metrics::Table::num(p.cpu, 1),   metrics::Table::num(p.refused)};
    if (with_faults) {
      row.push_back(metrics::Table::num(p.availability, 3));
      row.push_back(metrics::Table::num(p.error_rate, 3));
      row.push_back(metrics::Table::num(p.stale_frac, 3));
      row.push_back(metrics::Table::num(p.recovery, 1));
      row.push_back(metrics::Table::num(p.recovery_complete, 1));
    }
    const store::Log* log = with_store ? scenario->store_log() : nullptr;
    if (with_store) {
      if (log != nullptr) {
        row.insert(row.end(),
                   {store::mode_name(log->config().mode),
                    metrics::Table::num(log->stats().wal_bytes, 0),
                    std::to_string(log->stats().flushes),
                    std::to_string(log->stats().snapshots),
                    std::to_string(log->stats().replayed_records),
                    metrics::Table::num(log->stats().last_replay_seconds, 3)});
      } else {
        row.insert(row.end(), {"-", "-", "-", "-", "-", "-"});
      }
    }
    if (with_resilience) {
      row.push_back(metrics::Table::num(p.goodput));
      row.push_back(metrics::Table::num(p.shed_rate));
      row.push_back(metrics::Table::num(p.retry_amp, 3));
    }
    table.add_row(row);
    if (csv.is_open()) {
      const std::vector<std::string> prefix{spec.service_name()};
      write_csv_row(csv, p, csv_groups, prefix);
      if (with_store) {
        if (log != nullptr) {
          csv << ',' << store::mode_name(log->config().mode) << ','
              << log->stats().wal_bytes << ',' << log->stats().flushes << ','
              << log->stats().snapshots << ','
              << log->stats().replayed_records << ','
              << log->stats().last_replay_seconds;
        } else {
          csv << ",-,-,-,-,-,-";
        }
      }
      csv << '\n';
    }
    std::cout << "  done: " << n << " users\n";
  }

  std::cout << "\n";
  table.print_text(std::cout);
  if (!opt.trace_path.empty()) {
    std::ofstream out(opt.trace_path, std::ios::binary);
    trace::write_chrome_trace(out, traces);
    std::cout << "wrote " << opt.trace_path << "\n";
  }
  return 0;
}
