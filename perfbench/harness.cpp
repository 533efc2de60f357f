/// gridmon_perfbench: one benchmark repetition of one workload, driven
/// through the public core API from outside the simulator.
///
/// A repetition sets the workload up (Testbed, make_scenario, prefill,
/// spawn_users, sampler start), then simulates its fixed window in
/// 1-simulated-second run(until) slices, timing each slice in host time.
/// It prints one JSON object on stdout: the host-time metrics, the
/// simulated-output digest, and (with --mode traced) the per-layer
/// metrics — deterministic engine counts, simulated-time span
/// breakdowns from trace::Collector, and host-time replays of each
/// layer's hot operation at the workload's own sizes.
///
/// With --unsliced it instead lets the simulator measure the window
/// itself, through core::measure() (legacy) or
/// FrontierWorkload::measure_window() (frontier), and prints only that
/// report's digest: the reference the sliced repetitions are checked
/// against.
///
///   gridmon_perfbench --workload NAME --seed N
///       [--mode timed|traced] [--unsliced]
///       [--shards K] [--window WARMUP,DURATION] [--spans FILE]
///
/// Wall-clock readings live here, never in src/gridmon (the simulator's
/// determinism contract); they never feed simulated state.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gridmon/core/experiment.hpp"
#include "gridmon/core/frontier.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/hawkeye/module.hpp"
#include "gridmon/ldap/dit.hpp"
#include "gridmon/ldap/filter.hpp"
#include "gridmon/sim/ps_server.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/trace/breakdown.hpp"
#include "gridmon/trace/collector.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace gridmon;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Engine { Legacy, Frontier };

struct Workload {
  const char* name;
  Engine engine;
  core::ScenarioSpec spec;
  int users;
  double warmup;    // simulated seconds, a whole number
  double duration;  // simulated seconds, a whole number
  int shards;       // frontier only
};

/// Set-ups per repetition: repeated (each built and torn down) until they
/// have taken kSetupSeconds of host time, and at least kMinSetupTrials
/// times. Set-up takes from 0.06 ms (Hawkeye) to 0.15 s (one million
/// users), so a cheap one is repeated over a thousand times. The first
/// set-ups of a process are slower while the allocator's heap grows; the
/// median of five sits past them.
constexpr double kSetupSeconds = 0.1;
constexpr int kMinSetupTrials = 5;

std::vector<Workload> make_workloads() {
  using core::QueryVariant;
  using core::ScenarioSpec;
  using core::ServiceKind;
  std::vector<Workload> w;
  w.push_back({"gris_legacy_10k", Engine::Legacy,
               ScenarioSpec::build()
                   .service(ServiceKind::Gris)
                   .collectors(10)
                   .build(),
               10000, 60, 600, 0});
  w.push_back({"hawkeye_agent_600", Engine::Legacy,
               ScenarioSpec::build()
                   .service(ServiceKind::Agent)
                   .collectors(11)
                   .build(),
               600, 60, 300, 0});
  w.push_back({"giis_agg_200", Engine::Legacy,
               ScenarioSpec::build()
                   .service(ServiceKind::GiisAggregate)
                   .query(QueryVariant::ScopePart)
                   .gris_count(200)
                   .build(),
               10, 60, 300, 0});
  w.push_back({"gris_frontier_1m", Engine::Frontier,
               ScenarioSpec::build()
                   .service(ServiceKind::Gris)
                   .collectors(10)
                   .build(),
               1000000, 30, 70, 4});
  return w;
}

/// The testbed a workload runs on: one UC client host per 50 users (the
/// paper's per-machine cap, at least the paper's 20 hosts). Past 100k
/// users the WAN and NICs scale with the client pool, exactly as
/// bench/ext_scale does for its frontier points, so the run measures the
/// engine rather than a wedged pipe.
core::TestbedConfig testbed_for(const Workload& w, std::uint64_t seed) {
  core::TestbedConfig tc;
  tc.seed = seed;
  tc.uc_clients = std::max(20, (w.users + 49) / 50);
  if (w.users > 100000) {
    tc.wan_bandwidth_bytes = 1e6 * tc.uc_clients;
    tc.lan_bandwidth_bytes = 1.25e9;
  }
  return tc;
}

/// Canonical text of everything that defines a workload's input; its
/// hash is the workload's spec hash in the provenance record.
std::string spec_text(const Workload& w, std::uint64_t seed) {
  const core::ScenarioSpec& s = w.spec;
  core::TestbedConfig tc = testbed_for(w, seed);
  std::ostringstream os;
  os.precision(17);
  os << "service=" << s.service_name() << ";query=" << static_cast<int>(s.query)
     << ";collectors=" << s.collectors << ";gris_count=" << s.gris_count
     << ";users=" << w.users << ";warmup=" << w.warmup
     << ";duration=" << w.duration << ";engine="
     << (w.engine == Engine::Frontier ? "frontier" : "legacy")
     << ";shards=" << w.shards << ";uc_clients=" << tc.uc_clients
     << ";wan=" << tc.wan_bandwidth_bytes << ";lan=" << tc.lan_bandwidth_bytes;
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Host-time spans, kept in memory and written when the run ends.

class HostSpans {
 public:
  explicit HostSpans(Clock::time_point origin) : origin_(origin) {}

  int open(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), parent, now(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(9);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"start_s\": " << s.start
          << ", \"end_s\": " << s.end << "}"
          << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One deployment: set up, drive, read back.

struct Deployment {
  // Declaration order is destruction order reversed: the workload (whose
  // destructor shuts the simulation down) goes first, then the trace
  // collector its users reference, then the scenario, then the testbed.
  std::unique_ptr<core::Testbed> tb;
  std::unique_ptr<core::Scenario> scenario;
  std::unique_ptr<trace::Collector> collector;
  std::unique_ptr<core::UserWorkload> legacy;
  std::unique_ptr<core::FrontierWorkload> frontier;
};

struct SetupTimes {
  double testbed = 0;
  double scenario = 0;
  double prefill = 0;
  double spawn = 0;
  double total() const { return testbed + scenario + prefill + spawn; }
};

Deployment set_up(const Workload& w, std::uint64_t seed, bool traced,
                  SetupTimes& times, HostSpans* spans, int parent) {
  Deployment d;
  auto phase = [&](const char* name, double& out, auto&& fn) {
    int id = spans != nullptr ? spans->open(name, parent) : -1;
    auto t0 = Clock::now();
    fn();
    out = seconds_since(t0);
    if (spans != nullptr) spans->close(id);
  };
  phase("setup.testbed", times.testbed, [&] {
    d.tb = std::make_unique<core::Testbed>(testbed_for(w, seed));
  });
  phase("setup.scenario", times.scenario,
        [&] { d.scenario = core::make_scenario(*d.tb, w.spec); });
  phase("setup.prefill", times.prefill, [&] { d.scenario->prefill(); });
  phase("setup.spawn", times.spawn, [&] {
    if (w.engine == Engine::Legacy) {
      if (traced) {
        d.collector = std::make_unique<trace::Collector>(d.tb->sim(), seed);
        d.scenario->instrument(*d.collector);
        core::instrument_host(*d.tb, *d.collector, w.spec.server_host());
      }
      d.legacy = std::make_unique<core::UserWorkload>(
          *d.tb, d.scenario->query_fn());
      if (traced) d.legacy->enable_tracing(*d.collector);
      d.legacy->spawn_users(w.users, d.tb->uc_names());
    } else {
      core::FrontierConfig fc;
      fc.shards = w.shards;
      fc.threads = 0;
      fc.admission_port = d.scenario->server_port();
      fc.server_host = w.spec.server_host();
      d.frontier = std::make_unique<core::FrontierWorkload>(
          *d.tb, d.scenario->query_fn(), fc);
      d.frontier->spawn_users(w.users);
    }
    d.tb->sampler().start();
  });
  return d;
}

struct Counters {
  std::uint64_t refused = 0;
  std::uint64_t errors = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t attempts = 0;
  std::uint64_t queries = 0;
  std::uint64_t fast_refused = 0;
};

Counters read_counters(const Deployment& d) {
  Counters c;
  if (d.legacy) {
    c.refused = d.legacy->refused_attempts();
    c.errors = d.legacy->error_count();
    c.abandoned = d.legacy->abandoned_queries();
    c.attempts = d.legacy->total_attempts();
    c.queries = d.legacy->total_queries();
  } else {
    c.refused = d.frontier->refused_attempts();
    c.errors = d.frontier->error_count();
    c.attempts = d.frontier->total_attempts();
    c.queries = d.frontier->total_queries();
    c.fast_refused = d.frontier->fast_refused();
  }
  return c;
}


struct WindowResult {
  double run_s = 0;
  std::vector<double> slice_ms;
  std::size_t events = 0;
  double t0 = 0;
  double t1 = 0;
  Counters before;  // at the end of warm-up
  Counters after;   // at the end of the window
};

std::size_t run_until(Deployment& d, double until) {
  return d.legacy ? d.tb->sim().run(until) : d.frontier->run(until);
}

/// Where the window starts, as core::measure() and
/// FrontierWorkload::measure_window() take it.
double window_start(const Deployment& d) {
  return d.legacy ? d.tb->sim().now()
                  : std::max(d.frontier->now(), d.tb->sim().now());
}

/// Simulate warm-up plus measured span in one run(until) call per
/// simulated second, each timed. The last slice of each part ends exactly
/// where measure() and measure_window() end theirs (start + warmup,
/// t0 + duration), so both drive the same event sequence and give the
/// same digest.
WindowResult drive(const Workload& w, Deployment& d, HostSpans* spans,
                   int parent) {
  auto sim_now = [&] {
    return d.legacy ? d.tb->sim().now() : d.frontier->now();
  };
  WindowResult r;
  double start = window_start(d);
  const int warm = static_cast<int>(w.warmup);
  const int span = static_cast<int>(w.duration);
  r.slice_ms.reserve(static_cast<std::size_t>(warm + span));
  auto slice = [&](double until) {
    int id = spans != nullptr ? spans->open("slice", parent) : -1;
    auto t = Clock::now();
    r.events += run_until(d, until);
    r.slice_ms.push_back(1e3 * seconds_since(t));
    if (spans != nullptr) spans->close(id);
  };
  if (d.collector) d.collector->set_enabled(true);
  auto wall0 = Clock::now();
  for (int k = 1; k < warm; ++k) slice(start + k);
  slice(start + w.warmup);
  r.t0 = sim_now();
  r.before = read_counters(d);
  for (int k = 1; k < span; ++k) slice(r.t0 + k);
  slice(r.t0 + w.duration);
  r.run_s = seconds_since(wall0);
  if (d.collector) d.collector->set_enabled(false);
  r.t1 = sim_now();
  r.after = read_counters(d);
  return r;
}

/// The paper's metrics over a sliced window, computed as core::measure()
/// (legacy) and FrontierWorkload::measure_window() (frontier) do. Those
/// run the window themselves, so a sliced run cannot call them; --unsliced
/// does, and the self-test checks that both give the same digest.
core::MetricsReport report(const Workload& w, Deployment& d,
                           const WindowResult& r) {
  core::MetricsReport p;
  const std::string server = w.spec.server_host();
  const double t0 = r.t0;
  const double t1 = r.t1;
  p.x = w.users;
  p.load1 = d.tb->sampler().series(server + ".load1").mean_over(t0, t1);
  p.cpu = d.tb->sampler().series(server + ".cpu_pct").mean_over(t0, t1);
  double d_queries = static_cast<double>(r.after.queries - r.before.queries);
  double d_attempts =
      static_cast<double>(r.after.attempts - r.before.attempts);
  p.retry_amp = d_queries > 0 ? d_attempts / d_queries : 0;
  if (d.legacy) {
    const core::UserWorkload& u = *d.legacy;
    p.throughput = u.throughput(t0, t1);
    p.response = u.mean_response(t0, t1);
    p.refused =
        static_cast<double>(r.after.refused - r.before.refused) / w.duration;
    double succ = static_cast<double>(u.completed(t0, t1));
    double abandoned =
        static_cast<double>(r.after.abandoned - r.before.abandoned);
    p.availability = succ + abandoned > 0 ? succ / (succ + abandoned) : 1.0;
    p.error_rate =
        static_cast<double>(r.after.errors - r.before.errors) / w.duration;
    p.stale_frac = u.stale_fraction(t0, t1);
  } else {
    std::size_t completed = 0;
    double response_sum = 0;
    std::size_t stale = 0;
    for (const core::FrontierCompletion& c :
         d.frontier->merged_completions()) {
      if (c.t < t0 || c.t > t1) continue;
      ++completed;
      response_sum += c.response_time;
      if (c.stale) ++stale;
    }
    double span = t1 - t0;
    p.throughput = span > 0 ? static_cast<double>(completed) / span : 0;
    p.response =
        completed > 0 ? response_sum / static_cast<double>(completed) : 0;
    p.refused =
        span > 0 ? static_cast<double>(r.after.refused - r.before.refused) /
                       span
                 : 0;
    p.availability = 1;
    p.error_rate =
        span > 0
            ? static_cast<double>(r.after.errors - r.before.errors) / span
            : 0;
    p.stale_frac = completed > 0 ? static_cast<double>(stale) /
                                       static_cast<double>(completed)
                                 : 0;
  }
  p.goodput = p.throughput;
  p.events = static_cast<double>(r.events);
  return p;
}

/// The simulated-output digest: the core and health MetricsReport fields
/// at %.17g plus the window's event count (p.events) and the run's total
/// queries, attempts and refusals. Any change to simulated behaviour
/// moves it.
std::string digest_text(const core::MetricsReport& p, const Counters& total) {
  const double fields[] = {p.x,       p.throughput,   p.response,
                           p.load1,   p.cpu,          p.refused,
                           p.availability, p.error_rate, p.stale_frac};
  std::string s;
  char buf[64];
  for (double v : fields) {
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    s += buf;
  }
  s += std::to_string(static_cast<std::uint64_t>(p.events)) + ";" +
       std::to_string(total.queries) + ";" + std::to_string(total.attempts) +
       ";" + std::to_string(total.refused);
  return s;
}

/// The reference measurement: the window measured by the simulator's own
/// protocol, core::measure() or FrontierWorkload::measure_window(), in
/// the two run(until) calls they make. measure() does not return the
/// event count, so on the legacy engine a second, identical deployment
/// counts the window's events with the same two calls.
std::string unsliced_digest(const Workload& w, std::uint64_t seed) {
  const std::string server = w.spec.server_host();
  SetupTimes unused;
  core::MetricsReport p;
  Counters total;
  if (w.engine == Engine::Legacy) {
    std::size_t events = 0;
    {
      Deployment d = set_up(w, seed, false, unused, nullptr, -1);
      double start = window_start(d);
      events += run_until(d, start + w.warmup);
      events += run_until(d, d.tb->sim().now() + w.duration);
    }
    Deployment d = set_up(w, seed, false, unused, nullptr, -1);
    core::MeasureConfig mc;
    mc.warmup = w.warmup;
    mc.duration = w.duration;
    p = core::measure(*d.tb, *d.legacy, server, w.users, mc);
    p.events = static_cast<double>(events);
    total = read_counters(d);
  } else {
    Deployment d = set_up(w, seed, false, unused, nullptr, -1);
    p = d.frontier->measure_window(w.users, w.warmup, w.duration, server);
    total = read_counters(d);
  }
  return digest_text(p, total);
}

// ---------------------------------------------------------------------------
// Process-level readings

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

double percentile(std::vector<double> xs, double q) {
  return trace::percentile(std::move(xs), q);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

// ---------------------------------------------------------------------------
// Replays: each layer's hot operation timed in host time at the sizes the
// workload produced. Each replay runs in batches until a batch takes at
// least kBatchSeconds and reports the median of kBatches batches, in
// host nanoseconds per operation.

constexpr double kBatchSeconds = 0.05;
constexpr int kBatches = 5;

double time_per_op(const std::function<void(std::size_t)>& batch) {
  std::size_t n = 1;
  for (;;) {
    auto t = Clock::now();
    batch(n);
    double s = seconds_since(t);
    if (s >= kBatchSeconds || n >= (std::size_t{1} << 30)) break;
    n *= 2;
  }
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    auto t = Clock::now();
    batch(n);
    per_op.push_back(1e9 * seconds_since(t) / static_cast<double>(n));
  }
  return median(per_op);
}

/// Deterministic delays in (0, 1] for replay schedules.
struct Lcg {
  std::uint64_t s;
  double next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((s >> 11) + 1) * 0x1.0p-53;
  }
};

/// Schedule + fire of a plain callback event, with `depth` events pending
/// (the hold model: every fired event schedules its successor).
double replay_event_ns(std::size_t depth) {
  return time_per_op([depth](std::size_t n) {
    sim::Simulation sim;
    Lcg rng{7};
    std::size_t fired = 0;
    std::function<void()> hold = [&] {
      ++fired;
      sim.schedule(rng.next(), hold);
    };
    for (std::size_t i = 0; i < depth; ++i) sim.schedule(rng.next(), hold);
    while (fired < n) sim.run_events(n - fired);
  });
}

sim::Task<void> sleeper(sim::Simulation& sim, Lcg rng, std::size_t& resumes) {
  for (;;) {
    co_await sim.delay(rng.next());
    ++resumes;
  }
}

/// Coroutine delay + resume with `depth` live tasks.
double replay_resume_ns(std::size_t depth) {
  return time_per_op([depth](std::size_t n) {
    sim::Simulation sim;
    std::size_t resumes = 0;
    for (std::size_t i = 0; i < depth; ++i) {
      sim.spawn(sleeper(sim, Lcg{i + 1}, resumes));
    }
    sim.run_events(depth);  // start every task (spawn events)
    resumes = 0;
    while (resumes < n) sim.run_events(n - resumes);
    sim.shutdown();
  });
}

sim::Task<void> ps_job(sim::PsServer& ps, Lcg rng, std::size_t& done) {
  for (;;) {
    co_await ps.consume(0.001 * rng.next());
    ++done;
  }
}

/// PsServer::consume completions at `jobs` concurrent jobs on a
/// `cores`-core CPU.
double replay_ps_job_ns(int cores, std::size_t jobs) {
  return time_per_op([cores, jobs](std::size_t n) {
    sim::Simulation sim;
    sim::PsServer ps(sim, static_cast<double>(cores), cores);
    std::size_t done = 0;
    for (std::size_t i = 0; i < jobs; ++i) {
      sim.spawn(ps_job(ps, Lcg{i + 11}, done));
    }
    while (done < n) sim.run_events(1024);
    sim.shutdown();
  });
}

struct LdapReplay {
  std::string filter_text;
  ldap::Dit dit;
  ldap::Dn base = ldap::Dn::parse("o=grid");
  // One registrant slice (GIIS only): its suffix and entries in merge
  // order, parents first.
  ldap::Dn slice_suffix;
  std::vector<ldap::Entry> slice;
};

/// All entries of a GRIS's DIT under its host suffix, parents first —
/// what a GIIS merges for that registrant.
std::vector<ldap::Entry> gris_slice(const mds::Gris& g) {
  auto all = ldap::Filter::parse("(objectclass=*)");
  auto found = g.dit().search(g.suffix(), ldap::Scope::Subtree, *all);
  std::vector<ldap::Entry> entries = std::move(found.entries);
  std::stable_sort(entries.begin(), entries.end(),
                   [](const ldap::Entry& a, const ldap::Entry& b) {
                     return a.dn().depth() < b.dn().depth();
                   });
  return entries;
}

// ---------------------------------------------------------------------------
// Output

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    add(key, std::isfinite(v) ? os.str() : "null");
  }
  void str(const std::string& key, const std::string& v) {
    add(key, "\"" + v + "\"");
  }
  void raw(const std::string& key, const std::string& v) { add(key, v); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

std::string num_array(const std::vector<double>& xs) {
  std::ostringstream os;
  os.precision(9);
  os << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) os << (i ? ", " : "") << xs[i];
  os << "]";
  return os.str();
}

/// Span kinds reported per layer: those any of the four workloads opens
/// inside its window (kinds a workload never opens read 0).
const trace::SpanKind kReportedKinds[] = {
    trace::SpanKind::Query,        trace::SpanKind::Think,
    trace::SpanKind::ClientTool,   trace::SpanKind::Connect,
    trace::SpanKind::RequestSend,  trace::SpanKind::Refused,
    trace::SpanKind::Backoff,      trace::SpanKind::PoolWait,
    trace::SpanKind::Cpu,          trace::SpanKind::CacheValidate,
    trace::SpanKind::LdapSearch,   trace::SpanKind::Collect,
    trace::SpanKind::ForkExec,     trace::SpanKind::ResponseSend,
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool traced = false;
  bool sliced = true;
  int shards = 0;  // 0: the workload's own
  double warmup = -1;
  double duration = -1;
  std::string spans_path;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "gridmon_perfbench: " << msg << "\n"
            << "usage: gridmon_perfbench --workload NAME --seed N "
               "[--mode timed|traced] [--unsliced] "
               "[--shards K] [--window WARMUP,DURATION] [--spans FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--mode") {
      std::string m = value();
      if (m != "timed" && m != "traced") usage_error("bad --mode " + m);
      o.traced = m == "traced";
    } else if (a == "--unsliced") {
      o.sliced = false;
    } else if (a == "--shards") {
      o.shards = std::atoi(value().c_str());
    } else if (a == "--window") {
      std::string v = value();
      if (std::sscanf(v.c_str(), "%lf,%lf", &o.warmup, &o.duration) != 2 ||
          o.warmup < 1 || o.duration < 1 ||
          o.warmup != std::floor(o.warmup) ||
          o.duration != std::floor(o.duration)) {
        usage_error("--window needs two whole numbers of seconds >= 1");
      }
    } else if (a == "--spans") {
      o.spans_path = value();
    } else {
      usage_error("unknown argument " + a);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

int run(const Options& opt) {
  std::vector<Workload> all = make_workloads();
  const Workload* found = nullptr;
  for (const Workload& w : all) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) usage_error("unknown workload " + opt.workload);
  Workload w = *found;
  if (opt.warmup > 0) {
    w.warmup = opt.warmup;
    w.duration = opt.duration;
  }
  if (opt.shards > 0) w.shards = opt.shards;
  if (!opt.sliced) {
    std::string dtext = unsliced_digest(w, opt.seed);
    JsonObject out;
    out.str("workload", w.name);
    out.num("seed", static_cast<double>(opt.seed));
    out.str("mode", "unsliced");
    out.str("digest", hex64(fnv1a(dtext)));
    out.str("digest_text", dtext);
    std::cout << out.text() << std::endl;
    return 0;
  }
  const bool traced = opt.traced && w.engine == Engine::Legacy;

  HostSpans spans(Clock::now());
  HostSpans* sp = opt.traced ? &spans : nullptr;
  int root = sp != nullptr ? sp->open("run") : -1;

  // Set-up-only trials (built and torn down) before the measured one, so
  // set-up time is a median rather than one cold reading.
  std::vector<SetupTimes> setups;
  double setup_spent = 0;
  while (static_cast<int>(setups.size()) + 1 < kMinSetupTrials ||
         setup_spent < kSetupSeconds) {
    SetupTimes t;
    int id = sp != nullptr ? sp->open("setup_trial", root) : -1;
    { Deployment d = set_up(w, opt.seed, false, t, sp, id); }
    if (sp != nullptr) sp->close(id);
    setups.push_back(t);
    setup_spent += t.total();
  }
  SetupTimes st;
  int setup_id = sp != nullptr ? sp->open("setup", root) : -1;
  Deployment d = set_up(w, opt.seed, traced, st, sp, setup_id);
  if (sp != nullptr) sp->close(setup_id);
  setups.push_back(st);

  int window_id = sp != nullptr ? sp->open("window", root) : -1;
  WindowResult r = drive(w, d, sp, window_id);
  if (sp != nullptr) sp->close(window_id);
  core::MetricsReport p = report(w, d, r);
  std::string dtext = digest_text(p, r.after);

  auto setup_median = [&](double SetupTimes::* f) {
    std::vector<double> xs;
    for (const SetupTimes& t : setups) xs.push_back(t.*f);
    return median(xs);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : setups) totals.push_back(t.total());

  JsonObject out;
  out.str("workload", w.name);
  out.num("seed", static_cast<double>(opt.seed));
  out.str("mode", opt.traced ? "traced" : "timed");
  out.str("digest", hex64(fnv1a(dtext)));
  out.str("digest_text", dtext);
  out.str("spec_hash", hex64(fnv1a(spec_text(w, opt.seed))));
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.str("compiler", PERFBENCH_COMPILER);
  out.num("setup_s", median(totals));
  out.raw("setup_trials_s", num_array(totals));
  out.raw("slice_ms", num_array(r.slice_ms));
  out.num("run_s", r.run_s);
  out.num("slices", static_cast<double>(r.slice_ms.size()));
  out.num("slice_p50_ms", r.slice_ms.empty() ? 0 : percentile(r.slice_ms, 0.5));
  out.num("slice_p90_ms", r.slice_ms.empty() ? 0 : percentile(r.slice_ms, 0.9));
  out.num("throughput", p.throughput);
  out.num("response", p.response);

  // Deterministic counts (exact, identical on every run of a seed).
  JsonObject layers;
  const double events = static_cast<double>(r.events);
  const std::size_t live_tasks = d.tb->sim().live_task_count();
  layers.num("core.testbed_s", setup_median(&SetupTimes::testbed));
  layers.num("core.scenario_s", setup_median(&SetupTimes::scenario));
  layers.num("core.prefill_s", setup_median(&SetupTimes::prefill));
  layers.num("core.spawn_s", setup_median(&SetupTimes::spawn));
  layers.num("sim.events", events);
  layers.num("sim.live_tasks", static_cast<double>(live_tasks));
  layers.num("host.server_busy_s",
             d.tb->host(w.spec.server_host()).cpu().busy_core_seconds());
  layers.num("net.attempts", static_cast<double>(r.after.attempts));
  layers.num("net.refused", static_cast<double>(r.after.refused));
  layers.num("core.queries", static_cast<double>(r.after.queries));
  layers.num("core.queries_per_attempt",
             r.after.attempts > 0
                 ? static_cast<double>(r.after.queries) /
                       static_cast<double>(r.after.attempts)
                 : 0);
  layers.num("core.fast_refused", static_cast<double>(r.after.fast_refused));

  // Working-set sizes.
  double gris_entries = 0;
  double giis_entries = 0;
  double manager_machines = 0;
  double manager_attrs = 0;
  const core::ServiceKind kind = w.spec.service;
  if (kind == core::ServiceKind::Gris) {
    auto& s = static_cast<core::GrisScenario&>(*d.scenario);
    gris_entries = static_cast<double>(s.gris->dit().size());
  } else if (kind == core::ServiceKind::GiisAggregate) {
    auto& s = static_cast<core::GiisAggregationScenario&>(*d.scenario);
    for (const auto& g : s.gris) {
      gris_entries += static_cast<double>(g->dit().size());
    }
    giis_entries = static_cast<double>(s.giis->entry_count());
  } else if (kind == core::ServiceKind::Agent) {
    auto& s = static_cast<core::AgentScenario&>(*d.scenario);
    manager_machines = static_cast<double>(s.manager->machine_count());
    if (const auto* ad = s.manager->find_machine(s.agent->machine())) {
      manager_attrs = static_cast<double>(ad->size());
    }
  }
  layers.num("mds.gris_entries", gris_entries);
  layers.num("mds.giis_entries", giis_entries);
  layers.num("hawkeye.manager_machines", manager_machines);
  layers.num("hawkeye.manager_attrs", manager_attrs);

  if (opt.traced) {
    // Simulated-time work and waiting per modelled stage.
    std::map<trace::SpanKind, trace::KindStats> stats;
    if (d.collector) {
      trace::SeriesTrace st_data{w.name, d.collector->take()};
      for (const trace::KindStats& k :
           trace::compute_breakdown(st_data).kinds) {
        stats[k.kind] = k;
      }
    }
    for (trace::SpanKind k : kReportedKinds) {
      auto it = stats.find(k);
      std::string base = std::string("trace.") + trace::kind_name(k);
      layers.num(base + ".count",
                 it == stats.end() ? 0 : static_cast<double>(it->second.count));
      layers.num(base + ".self_s", it == stats.end() ? 0 : it->second.self_total);
    }

    auto replay = [&](const char* name, auto&& fn) -> double {
      int id = sp->open(std::string("replay.") + name, root);
      double v = fn();
      sp->close(id);
      return v;
    };
    const std::size_t depth = std::max<std::size_t>(1, live_tasks);
    const std::string server = w.spec.server_host();
    const int cores = d.tb->host(server).cpu().cores();
    const auto jobs = static_cast<std::size_t>(
        std::max(1.0, std::round(p.load1)));
    double event_ns = replay("sim.event", [&] { return replay_event_ns(depth); });
    double resume_ns =
        replay("sim.resume", [&] { return replay_resume_ns(depth); });
    double ps_ns =
        replay("host.ps_job", [&] { return replay_ps_job_ns(cores, jobs); });
    layers.num("sim.event_ns", event_ns);
    layers.num("sim.resume_ns", resume_ns);
    layers.num("host.ps_job_ns", ps_ns);
    layers.num("host.ps_jobs", static_cast<double>(jobs));

    // ldap: the workload's own filter on its own DIT (MDS workloads).
    double parse_ns = 0, search_us = 0, add_us = 0, ldap_entries = 0;
    double searches = 0;
    bool parses_per_query = false;
    std::unique_ptr<LdapReplay> lr;
    if (kind == core::ServiceKind::Gris) {
      auto& s = static_cast<core::GrisScenario&>(*d.scenario);
      lr = std::make_unique<LdapReplay>();
      lr->filter_text = "(objectclass=MdsDevice)";
      lr->dit = s.gris->dit();
    } else if (kind == core::ServiceKind::GiisAggregate) {
      auto& s = static_cast<core::GiisAggregationScenario&>(*d.scenario);
      lr = std::make_unique<LdapReplay>();
      lr->filter_text = "(Mds-provider-name=ip0)";
      parses_per_query = true;  // the GIIS parses each request's filter
      replay("ldap.rebuild", [&] {
        ldap::Entry root_entry(lr->base);
        root_entry.add("objectclass", "organization");
        lr->dit.add(std::move(root_entry));
        for (const auto& g : s.gris) {
          for (ldap::Entry& e : gris_slice(*g)) lr->dit.add(std::move(e));
        }
        return 0.0;
      });
      lr->slice_suffix = s.gris.front()->suffix();
      lr->slice = gris_slice(*s.gris.front());
    }
    if (lr) {
      ldap_entries = static_cast<double>(lr->dit.size());
      parse_ns = replay("ldap.filter_parse", [&] {
        return time_per_op([&](std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            auto f = ldap::Filter::parse(lr->filter_text);
            if (!f) std::abort();
          }
        });
      });
      auto filter = ldap::Filter::parse(lr->filter_text);
      search_us = 1e-3 * replay("ldap.search", [&] {
        return time_per_op([&](std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            auto res = lr->dit.search(lr->base, ldap::Scope::Subtree, *filter);
            if (res.entries.empty()) std::abort();
          }
        });
      });
      if (!lr->slice.empty()) {
        add_us = 1e-3 * replay("ldap.add", [&] {
          return time_per_op([&](std::size_t n) {
            for (std::size_t i = 0; i < n; ++i) {
              lr->dit.remove_subtree(lr->slice_suffix);
              for (const ldap::Entry& e : lr->slice) lr->dit.add(e);
            }
          });
        });
      }
      auto it = stats.find(trace::SpanKind::LdapSearch);
      searches = it != stats.end()
                     ? static_cast<double>(it->second.count)
                     : static_cast<double>(r.after.attempts - r.after.refused);
    }
    layers.num("ldap.filter_parse_ns", parse_ns);
    layers.num("ldap.search_us", search_us);
    layers.num("ldap.add_us", add_us);
    layers.num("ldap.entries", ldap_entries);
    double ldap_est = searches * (1e-6 * search_us +
                                  (parses_per_query ? 1e-9 * parse_ns : 0));

    // classad: the Agent's collection sweep and reply (Hawkeye workload).
    double build_us = 0, wire_us = 0, lookup_ns = 0, collections = 0;
    if (kind == core::ServiceKind::Agent) {
      auto& s = static_cast<core::AgentScenario&>(*d.scenario);
      const auto modules = hawkeye::scaled_modules(w.spec.collectors);
      const std::string machine = s.agent->machine();
      collections = static_cast<double>(s.agent->collections());
      std::uint64_t seq = 1;
      build_us = 1e-3 * replay("classad.ad_build", [&] {
        return time_per_op([&](std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            std::vector<classad::ClassAd> parts;
            parts.reserve(modules.size());
            for (const auto& m : modules) {
              parts.push_back(hawkeye::run_module(m, ++seq, 50.0));
            }
            auto ad = hawkeye::build_startd_ad(machine, parts);
            if (ad.empty()) std::abort();
          }
        });
      });
      std::vector<classad::ClassAd> parts;
      for (const auto& m : modules) parts.push_back(hawkeye::run_module(m, 1));
      const classad::ClassAd ad = hawkeye::build_startd_ad(machine, parts);
      wire_us = 1e-3 * replay("classad.ad_wire", [&] {
        return time_per_op([&](std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            if (ad.wire_bytes() <= 0) std::abort();
          }
        });
      });
      const std::vector<std::string> names = ad.names();
      lookup_ns = replay("classad.lookup", [&] {
        return time_per_op([&](std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            if (ad.lookup(names[i % names.size()]) == nullptr) std::abort();
          }
        });
      });
    }
    layers.num("classad.ad_build_us", build_us);
    layers.num("classad.ad_wire_us", wire_us);
    layers.num("classad.lookup_ns", lookup_ns);
    layers.num("hawkeye.collections", collections);
    double classad_est = collections * 1e-6 * (build_us + wire_us);

    // Estimated host seconds per layer over the window: count x replay
    // cost per operation. The runner divides them by the untraced run_s.
    layers.num("sim.est_host_s", events * 1e-9 * event_ns);
    layers.num("ldap.est_host_s", ldap_est);
    layers.num("classad.est_host_s", classad_est);
  }
  if (sp != nullptr) sp->close(root);

  out.raw("layers", layers.text());
  out.num("peak_rss_mb", peak_rss_mb());
  if (!opt.spans_path.empty() && sp != nullptr) sp->write(opt.spans_path);
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "gridmon_perfbench: " << e.what() << "\n";
    return 1;
  }
}
