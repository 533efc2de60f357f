/// Extension: what durable state buys (and costs) the three registries.
/// The paper's services are all soft state — a crash empties the
/// directory and the only way back is waiting out the producers' own
/// re-registration beats. This bench runs the same crash against the
/// durable-state subsystem (docs/DURABILITY.md) in its three modes and
/// puts the two recovery clocks side by side:
///
///   recovery          first answered query after restart (reachability)
///   recovery_complete directory re-converged to its pre-crash size
///
/// Volatile services reopen their port in seconds but answer from an
/// empty directory for tens of seconds; WAL replay closes that gap to
/// sub-second. Phase B prices the insurance: a fault-free fsync-latency
/// sweep against the volatile baseline shows the steady-state throughput
/// tax of group-committed appends. Phase C wall-clocks one full
/// crash/replay cycle and emits BENCH_durability.json so CI can keep an
/// events-per-second floor under the durability hot path.
///
///   $ ./bench/ext_durability            # full grid + fsync sweep
///   $ ./bench/ext_durability --quick    # CI smoke (short spans)

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gridmon/fault/injector.hpp"
#include "gridmon/store/log.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;
using store::DurabilityMode;

namespace {

ScenarioSpec build_spec(const std::string& service, DurabilityMode mode) {
  SpecBuilder b;
  if (service == "registry") {
    b.service(ServiceKind::Registry);  // 5 servlets x 10 producers
  } else {  // manager
    b.service(ServiceKind::Manager)
        .collectors(11)
        .manager_ad_lifetime(240)
        .manager_stale_after(45);
  }
  store::StoreConfig sc;
  sc.mode = mode;
  return b.store(sc).query_deadline(25).max_attempts(5).build();
}

/// One measured point plus the [store] counters read off the scenario.
struct DurPoint {
  std::string phase;    // "crash" | "fsync"
  std::string service;  // "registry" | "manager"
  std::string mode;     // mode_name()
  double fsync = 0;     // seconds (the swept knob; default elsewhere)
  MetricsReport p;
  double replay_s = 0;
  double wal_bytes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t replayed = 0;
};

void read_store(const Scenario& scenario, DurPoint& out) {
  const store::Log* log = scenario.store_log();
  if (log == nullptr) return;
  out.replay_s = log->stats().last_replay_seconds;
  out.wal_bytes = log->stats().wal_bytes;
  out.flushes = log->stats().flushes;
  out.snapshots = log->stats().snapshots;
  out.replayed = log->stats().replayed_records;
}

/// Phase A: crash the service under load and measure both recovery
/// clocks. Same layout as ext_fault_tolerance's crash plan, plus the
/// state-convergence probe and the store counters.
DurPoint run_crash_point(const BenchOptions& opt, const std::string& service,
                         DurabilityMode mode, int users) {
  ScenarioSpec spec = build_spec(service, mode);
  TestbedConfig tc;
  tc.seed = opt.seed_for(spec);
  Testbed tb(tc);
  auto scenario = make_scenario(tb, spec);
  scenario->prefill();
  const double warmup = opt.quick ? 30 : 60;
  const double duration = opt.quick ? 180 : 480;
  const double outage = opt.quick ? 30 : 60;
  double t_fault = tb.sim().now() + warmup + (opt.quick ? 60 : 120);
  double t_heal = t_fault + outage;
  fault::FaultPlan plan;
  plan.crash("server", t_fault, t_heal);
  WorkloadConfig wc;
  wc.query_deadline = spec.query_deadline;
  wc.max_attempts = spec.max_attempts;
  UserWorkload w(tb, scenario->query_fn(), wc);
  fault::Injector injector(tb.sim(), &tb.network());
  scenario->register_faults(injector);
  injector.arm(plan);
  w.spawn_users(users, tb.uc_names());
  tb.sampler().start();
  MeasureConfig mc;
  mc.warmup = warmup;
  mc.duration = duration;
  mc.recovery_mark = t_heal;
  mc.recovered_at = [&scenario] { return scenario->recovered_at(); };
  DurPoint out;
  out.phase = "crash";
  out.service = service;
  out.mode = store::mode_name(mode);
  out.fsync = spec.store.fsync_latency;
  out.p = measure(tb, w, spec.server_host(), outage, mc);
  read_store(*scenario, out);
  std::cout << "  [" << service << "/" << out.mode << "] avail="
            << metrics::Table::num(out.p.availability, 3)
            << " recovery=" << metrics::Table::num(out.p.recovery, 1)
            << " recovered=" << metrics::Table::num(out.p.recovery_complete, 1)
            << " replay=" << metrics::Table::num(out.replay_s, 3) << "s\n";
  return out;
}

/// Phase B: fault-free steady state, sweeping the fsync barrier cost on
/// the durable registry — the overhead column is measured against the
/// volatile baseline at the same load.
DurPoint run_fsync_point(const BenchOptions& opt, DurabilityMode mode,
                         double fsync_latency, int users) {
  ScenarioSpec base = build_spec("registry", mode);
  store::StoreConfig sc = base.store;
  sc.fsync_latency = fsync_latency;
  ScenarioSpec spec = SpecBuilder(std::move(base)).store(sc).build();
  DurPoint out;
  out.phase = "fsync";
  out.service = "registry";
  out.mode = store::mode_name(mode);
  out.fsync = fsync_latency;
  PointHooks hooks;
  hooks.x = fsync_latency * 1000;  // progress line shows milliseconds
  hooks.after_measure = [&out](Scenario& scenario, UserWorkload&) {
    read_store(scenario, out);
  };
  std::string series = std::string("fsync ") + store::mode_name(mode);
  out.p = run_point(opt, series, spec, users, nullptr, hooks);
  return out;
}

/// Phase C: wall-clock the engine through one full durable crash/replay
/// cycle (registry, wal+snapshot, closed-loop users) — the recorded
/// events-per-second figure is CI's floor for the durability hot path.
struct FloorPoint {
  int users = 0;
  double wall = 0;
  std::size_t events = 0;
  double events_per_sec = 0;
};

FloorPoint run_floor_point(const BenchOptions& opt) {
  ScenarioSpec spec = build_spec("registry", DurabilityMode::WalSnapshot);
  TestbedConfig tc;
  tc.seed = opt.seed_for(spec);
  Testbed tb(tc);
  auto scenario = make_scenario(tb, spec);
  scenario->prefill();
  const int users = opt.users > 0 ? opt.users : 300;
  double start = tb.sim().now();
  fault::FaultPlan plan;
  plan.crash("server", start + 60, start + 90);
  WorkloadConfig wc;
  wc.query_deadline = 25;
  wc.max_attempts = 5;
  UserWorkload w(tb, scenario->query_fn(), wc);
  fault::Injector injector(tb.sim(), &tb.network());
  scenario->register_faults(injector);
  injector.arm(plan);
  w.spawn_users(users, tb.uc_names());
  tb.sampler().start();
  // gridmon-lint: suppress(determinism.wall-clock) -- measures the real
  // cost of running the simulator; never feeds sim state
  auto t0 = std::chrono::steady_clock::now();
  std::size_t events = tb.sim().run(start + 150);  // crash at 60, replay at 90
  // gridmon-lint: suppress(determinism.wall-clock) -- measures the real
  // cost of running the simulator; never feeds sim state
  auto t1 = std::chrono::steady_clock::now();
  FloorPoint fp;
  fp.users = users;
  fp.wall = std::chrono::duration<double>(t1 - t0).count();
  fp.events = events;
  fp.events_per_sec =
      fp.wall > 0 ? static_cast<double>(events) / fp.wall : 0;
  std::cout << "  [floor] users=" << users << " wall="
            << metrics::Table::num(fp.wall, 3) << "s events=" << events
            << " ev/s=" << metrics::Table::num(fp.events_per_sec, 0) << "\n";
  return fp;
}

void write_json(const std::string& path, bool quick, const FloorPoint& fp,
                const std::vector<DurPoint>& points) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"ext_durability\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"floor_point\": {\"series\": \"registry wal+snapshot crash "
         "cycle\", \"users\": "
      << fp.users << ", \"wall_clock_s\": " << fp.wall
      << ", \"events\": " << fp.events
      << ", \"events_per_sec\": " << fp.events_per_sec << "},\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DurPoint& d = points[i];
    out << "    {\"phase\": \"" << d.phase << "\", \"service\": \""
        << d.service << "\", \"mode\": \"" << d.mode
        << "\", \"fsync_s\": " << d.fsync
        << ", \"availability\": " << d.p.availability
        << ", \"stale_frac\": " << d.p.stale_frac
        << ", \"recovery_s\": " << d.p.recovery
        << ", \"recovery_complete_s\": " << d.p.recovery_complete
        << ", \"replay_s\": " << d.replay_s
        << ", \"wal_bytes\": " << d.wal_bytes
        << ", \"throughput_qps\": " << d.p.throughput
        << ", \"response_s\": " << d.p.response << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  const int users = opt.users > 0 ? opt.users : 10;
  const std::vector<std::string> services{"registry", "manager"};
  const std::vector<DurabilityMode> modes{DurabilityMode::Volatile,
                                          DurabilityMode::Wal,
                                          DurabilityMode::WalSnapshot};
  std::vector<DurPoint> points;

  std::cout << "Phase A: crash/restart under load, " << users
            << " users, three durability modes\n";
  metrics::Table crash_table("Crash recovery: reachability vs data");
  crash_table.set_columns({"service", "mode", "avail", "stale",
                           "recovery (s)", "recovered (s)", "replay (s)",
                           "tput (q/s)", "resp (s)"});
  for (const auto& service : services) {
    for (DurabilityMode mode : modes) {
      DurPoint d = run_crash_point(opt, service, mode, users);
      crash_table.add_row({d.service, d.mode,
                           metrics::Table::num(d.p.availability, 3),
                           metrics::Table::num(d.p.stale_frac, 3),
                           metrics::Table::num(d.p.recovery, 1),
                           metrics::Table::num(d.p.recovery_complete, 1),
                           metrics::Table::num(d.replay_s, 3),
                           metrics::Table::num(d.p.throughput),
                           metrics::Table::num(d.p.response)});
      points.push_back(d);
    }
  }

  std::cout << "\nPhase B: fault-free fsync-latency sweep (registry, "
               "steady-state overhead vs volatile)\n";
  const std::vector<double> fsyncs =
      opt.quick ? std::vector<double>{0.008, 0.02}
                : std::vector<double>{0.002, 0.008, 0.02, 0.05};
  DurPoint baseline = run_fsync_point(opt, DurabilityMode::Volatile, 0, users);
  points.push_back(baseline);
  metrics::Table fsync_table("Steady-state durability overhead");
  fsync_table.set_columns({"mode", "fsync (ms)", "tput (q/s)", "resp (s)",
                           "overhead %", "flushes", "wal (B)"});
  fsync_table.add_row({baseline.mode, "-",
                       metrics::Table::num(baseline.p.throughput),
                       metrics::Table::num(baseline.p.response), "0.0", "0",
                       "0"});
  for (double fsync : fsyncs) {
    DurPoint d =
        run_fsync_point(opt, DurabilityMode::WalSnapshot, fsync, users);
    double overhead =
        baseline.p.throughput > 0
            ? 100.0 * (baseline.p.throughput - d.p.throughput) /
                  baseline.p.throughput
            : 0;
    if (overhead < 0) overhead = 0;  // below measurement noise
    fsync_table.add_row({d.mode, metrics::Table::num(fsync * 1000, 0),
                         metrics::Table::num(d.p.throughput),
                         metrics::Table::num(d.p.response),
                         metrics::Table::num(overhead, 1),
                         std::to_string(d.flushes),
                         metrics::Table::num(d.wal_bytes, 0)});
    points.push_back(d);
  }

  std::cout << "\nPhase C: engine floor (wall-clock of one durable crash "
               "cycle)\n";
  FloorPoint fp = run_floor_point(opt);

  std::cout << "\n";
  crash_table.print_text(std::cout);
  std::cout << "\n";
  fsync_table.print_text(std::cout);

  if (!opt.csv_path.empty()) {
    // Metric columns come from the shared MetricsReport serializer; the
    // store::Log stats (replay_s, wal_bytes) append as bench columns.
    std::ofstream csv(opt.csv_path);
    const unsigned groups = kMetricCore | kMetricHealth | kMetricRecovery;
    const std::vector<std::string> header_prefix{"bench", "phase", "service",
                                                 "mode", "fsync"};
    csv << csv_header(groups, header_prefix) << ",replay_s,wal_bytes\n";
    for (const DurPoint& d : points) {
      std::ostringstream fsync;
      fsync << d.fsync;
      const std::vector<std::string> prefix{"ext_durability", d.phase,
                                            d.service, d.mode, fsync.str()};
      write_csv_row(csv, d.p, groups, prefix);
      csv << ',' << d.replay_s << ',' << d.wal_bytes << '\n';
    }
    std::cout << "wrote " << opt.csv_path << "\n";
  }
  write_json("BENCH_durability.json", opt.quick, fp, points);
  return 0;
}
