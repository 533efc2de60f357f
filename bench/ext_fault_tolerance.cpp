/// Extension: fault tolerance of the three monitoring stacks. Sweeps
/// crash/restart, WAN-partition, and collector-outage windows over each
/// service under a deadline-bound client workload, and reports the
/// robustness metrics (availability, error rate, stale-read fraction, and
/// the two recovery clocks) next to the paper's throughput/response
/// numbers. `recovery` dates the first answered query after the fault
/// heals; `recovered` dates the service's *state* re-converging — and
/// what happens between those marks depends on the configured durability
/// mode. Volatile services (the paper's soft state, the default here)
/// reopen quickly but answer from an empty directory until producers
/// re-register on their own beats; with `--durability=wal` or
/// `--durability=wal+snapshot` the Manager replays its ad store on
/// restart instead (docs/DURABILITY.md). The mode-by-mode comparison
/// with fsync sweeps lives in ext_durability; this bench keeps the
/// cross-service fault grid.
///
/// The headline contrast: TTL-cached services (GRIS with cache, the
/// R-GMA ProducerServlet's latest-N buffers, the Manager's resident ads)
/// keep answering through collector outages — but with stale data —
/// while re-collecting services (GRIS nocache, the Hawkeye Agent) fail
/// fast and surface errors instead.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gridmon/fault/injector.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

namespace {

ScenarioSpec build_spec(const std::string& service,
                        store::DurabilityMode durability) {
  SpecBuilder b;
  if (service == "gris-cache" || service == "gris-nocache") {
    b.service(service == "gris-cache" ? ServiceKind::Gris
                                      : ServiceKind::GrisNocache);
    // A realistic 30-second provider TTL (not the pinned-cache 1e18 of
    // the throughput experiments) so freshness actually decays.
    b.provider_ttl(30);
  } else if (service == "rgma-ps-direct") {
    b.service(ServiceKind::RgmaStandalone);
    b.ps_stale_after(30);  // flag replies once publishers go silent
    b.self_publish_interval(10);
  } else if (service == "agent") {
    b.service(ServiceKind::Agent).collectors(11);
  } else {  // manager
    b.service(ServiceKind::Manager).collectors(11);
    b.manager_ad_lifetime(240);  // resident ads expire eventually...
    b.manager_stale_after(45);   // ...and are flagged well before that
    // Only the Manager in this grid has durable-state support; the other
    // services ignore the axis and run the paper's soft state.
    store::StoreConfig sc;
    sc.mode = durability;
    b.store(sc);
  }
  return b.query_deadline(25).max_attempts(5).build();
}

}  // namespace

int main(int argc, char** argv) {
  // The durability axis is this bench's own flag: peel it off before the
  // shared parser (which exits on anything it does not know).
  store::DurabilityMode durability = store::DurabilityMode::Volatile;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string flag = "--durability=";
    if (arg.rfind(flag, 0) == 0) {
      auto mode = store::parse_mode(arg.substr(flag.size()));
      if (!mode) {
        std::cerr << argv[0] << ": --durability needs volatile | wal | "
                  << "wal+snapshot\n";
        return 2;
      }
      durability = *mode;
      continue;
    }
    args.push_back(argv[i]);
  }
  BenchOptions opt =
      parse_options(static_cast<int>(args.size()), args.data());
  const std::vector<std::string> services{"gris-cache", "gris-nocache",
                                          "rgma-ps-direct", "agent",
                                          "manager"};
  const std::vector<std::string> plans{"crash", "partition", "collector"};
  const std::vector<double> windows =
      opt.quick ? std::vector<double>{20, 40}
                : std::vector<double>{30, 60, 120};
  const double warmup = opt.quick ? 30 : 60;
  const double duration = opt.quick ? 240 : 600;
  const int users = opt.users > 0 ? opt.users : 10;

  metrics::Table table("Fault tolerance under crash / partition / outage");
  table.set_columns({"service", "durability", "plan", "window (s)", "avail",
                     "err/s", "stale", "recovery (s)", "recovered (s)",
                     "tput (q/s)", "resp (s)"});
  // Metric columns (x = the fault window) flow through the shared
  // MetricsReport serializer.
  const unsigned csv_groups = kMetricCore | kMetricHealth | kMetricRecovery;
  std::ofstream csv;
  if (!opt.csv_path.empty()) {
    csv.open(opt.csv_path);
    const std::vector<std::string> header_prefix{"bench", "service",
                                                 "durability", "plan"};
    csv << csv_header(csv_groups, header_prefix) << "\n";
  }

  for (const auto& service : services) {
    ScenarioSpec spec = build_spec(service, durability);
    const char* mode_label =
        service == "manager" ? store::mode_name(durability) : "volatile";
    for (const auto& plan_name : plans) {
      for (double window : windows) {
        TestbedConfig tc;
        tc.seed = opt.seed_for(spec);
        Testbed tb(tc);
        auto scenario = make_scenario(tb, spec);
        scenario->prefill();
        // The fault opens two minutes into the measured span (one in
        // quick mode) and recovery is measured from its end.
        double t_fault = tb.sim().now() + warmup + (opt.quick ? 60 : 120);
        double t_heal = t_fault + window;
        fault::FaultPlan plan;
        if (plan_name == "crash") {
          plan.crash("server", t_fault, t_heal);
        } else if (plan_name == "partition") {
          plan.partition("anl", "uc", t_fault, t_heal);
        } else {
          plan.collector_outage("server", t_fault, t_heal);
        }
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
        const std::string host = spec.server_host();
        MetricsReport p = measure(tb, w, host, window, mc);
        std::cout << "  [" << service << "/" << plan_name << "] window="
                  << window << " avail=" << metrics::Table::num(p.availability, 3)
                  << " err/s=" << metrics::Table::num(p.error_rate, 3)
                  << " stale=" << metrics::Table::num(p.stale_frac, 3)
                  << " recovery=" << metrics::Table::num(p.recovery, 1)
                  << " recovered=" << metrics::Table::num(p.recovery_complete, 1)
                  << "\n";
        table.add_row({service, mode_label, plan_name,
                       metrics::Table::num(window, 0),
                       metrics::Table::num(p.availability, 3),
                       metrics::Table::num(p.error_rate, 3),
                       metrics::Table::num(p.stale_frac, 3),
                       metrics::Table::num(p.recovery, 1),
                       metrics::Table::num(p.recovery_complete, 1),
                       metrics::Table::num(p.throughput),
                       metrics::Table::num(p.response)});
        if (csv.is_open()) {
          const std::vector<std::string> prefix{"ext_fault_tolerance", service,
                                                mode_label, plan_name};
          write_csv_row(csv, p, csv_groups, prefix);
          csv << '\n';
        }
      }
    }
  }

  std::cout << "\n";
  table.print_text(std::cout);
  if (csv.is_open()) std::cout << "wrote " << opt.csv_path << "\n";
  return 0;
}
