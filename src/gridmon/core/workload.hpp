#pragma once

/// \file workload.hpp
/// The paper's user simulator (§3.1): N user processes spread over the
/// client machines (at most 50 per machine), each issuing blocking
/// queries with a one-second wait between response and next query.
/// Refused connections are retried with exponential backoff; the response
/// time of a query counts from first attempt to final success, exactly as
/// a looping shell script would measure it.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gridmon/core/testbed.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/resilience/backoff.hpp"
#include "gridmon/resilience/policy.hpp"
#include "gridmon/sim/rng.hpp"
#include "gridmon/sim/task.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::core {

/// A client-side query function: performs one complete attempt against a
/// service from the given client NIC and reports how it ended. Adapters
/// for each service live in adapters.hpp.
using QueryFn = std::function<sim::Task<net::Outcome>(net::Interface&)>;

/// Trace-aware variant: also receives the query's trace context (the
/// null Ctx when tracing is off). The adapters produce these; plain
/// QueryFn lambdas in tests keep working via a wrapping constructor.
using TracedQueryFn =
    std::function<sim::Task<net::Outcome>(net::Interface&, trace::Ctx)>;

struct WorkloadConfig {
  double think_time = 1.0;          // the paper's 1-second wait
  int max_users_per_host = 50;      // the paper's per-machine cap
  /// Retry delays after a refused connection. A 2002 Linux client whose
  /// SYN was dropped by a full listen queue silently retransmits on the
  /// kernel's schedule (~3, 6, 12, 24, 48 s ...); the last entry repeats.
  std::vector<double> retry_schedule{3, 6, 12, 24, 48, 75};
  /// Retransmission timing is nearly deterministic, which synchronizes
  /// overloaded clients into arrival bursts — the cause of the load
  /// *decrease* past the saturation threshold seen in the paper.
  double retry_jitter = 0.02;
  /// Client-script bookkeeping CPU per query (fork, parsing output).
  double client_cpu_per_query = 0.01;
  /// End-to-end patience per query (the shell script's `timeout N`
  /// wrapper): once this much wall clock has passed since the first
  /// attempt the query is abandoned and counted as an error. 0 disables
  /// the deadline entirely (the original blocking-client behavior).
  double query_deadline = 0;
  /// Give up after this many attempts (first try + retries). 0 = retry
  /// forever (the original behavior).
  int max_attempts = 0;
  /// Client-side overload control (retry budget + circuit breaker toward
  /// the service under test). Disabled by default; when disabled the
  /// workload's behavior and RNG stream are byte-identical to the
  /// pre-resilience tree.
  resilience::ClientPolicyConfig resilience{};
};

struct Completion {
  double t;              // completion time
  double response_time;  // first attempt -> success
  double bytes;
  bool stale = false;    // the answer was flagged stale by the service
};

class UserWorkload {
 public:
  UserWorkload(Testbed& testbed, QueryFn query, WorkloadConfig config = {});
  UserWorkload(Testbed& testbed, TracedQueryFn query,
               WorkloadConfig config = {});
  UserWorkload(const UserWorkload&) = delete;
  UserWorkload& operator=(const UserWorkload&) = delete;
  /// User coroutines reference this object; destroy them first.
  ~UserWorkload() { testbed_.sim().shutdown(); }

  /// Launch `n` users spread evenly over `client_hosts` (paper's load
  /// balancing). Throws if that would exceed max_users_per_host.
  void spawn_users(int n, const std::vector<std::string>& client_hosts);

  const std::vector<Completion>& completions() const noexcept {
    return completions_;
  }
  std::uint64_t refused_attempts() const noexcept { return refused_; }
  /// Attempts that timed out on a dead path (connect/transfer deadline).
  std::uint64_t timeout_attempts() const noexcept { return timeouts_; }
  /// Attempts admitted but answered with an error by the service.
  std::uint64_t failed_attempts() const noexcept { return failures_; }
  /// Whole queries given up on (deadline expired or max_attempts hit).
  std::uint64_t abandoned_queries() const noexcept { return abandoned_; }
  /// Total errors the user scripts observed.
  std::uint64_t error_count() const noexcept {
    return timeouts_ + failures_ + abandoned_;
  }
  int users() const noexcept { return users_; }

  /// Queries started (first attempts issued, whether or not they ever
  /// completed).
  std::uint64_t total_queries() const noexcept { return queries_; }
  /// Network attempts actually issued (excludes breaker fast-fails).
  std::uint64_t total_attempts() const noexcept { return attempts_; }
  /// attempts/queries — 1.0 means no retries; the retry-storm signature
  /// is this ratio diverging during an outage.
  double retry_amplification() const noexcept {
    return queries_ > 0 ? static_cast<double>(attempts_) /
                              static_cast<double>(queries_)
                        : 0;
  }
  /// The shared client policy toward the service under test (fast-fail /
  /// budget-suppression counters live on its breaker and budget).
  const resilience::ClientPolicy& resilience_policy() const noexcept {
    return policy_;
  }

  /// Completed queries per second over [t0, t1].
  double throughput(double t0, double t1) const;
  /// Mean response time of queries completing in [t0, t1].
  double mean_response(double t0, double t1) const;
  /// Number of queries completing in [t0, t1].
  std::size_t completed(double t0, double t1) const;
  /// Fraction of completions in [t0, t1] whose answer was stale.
  double stale_fraction(double t0, double t1) const;
  /// Timely completions per second over [t0, t1]: response_time <=
  /// `deadline`. deadline <= 0 counts every completion (== throughput).
  double goodput(double t0, double t1, double deadline) const;
  /// Completion time of the first successful query at or after `t`, or -1
  /// if none — the raw material for time-to-recovery.
  double first_success_after(double t) const;

  /// Route each user query through `collector`: a root Query span per
  /// query (opened while the collector is enabled), Backoff spans around
  /// SYN-retransmission waits, Think spans between queries. The
  /// collector must outlive this workload's users.
  void enable_tracing(trace::Collector& collector) {
    collector_ = &collector;
  }

 private:
  static sim::Task<void> user_loop(UserWorkload& self, host::Host& host,
                                   net::Interface& nic, sim::Rng rng);

  Testbed& testbed_;
  TracedQueryFn query_;
  WorkloadConfig config_;
  resilience::BackoffPolicy backoff_;
  resilience::ClientPolicy policy_;
  trace::Collector* collector_ = nullptr;
  std::vector<Completion> completions_;
  std::uint64_t refused_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t attempts_ = 0;
  int users_ = 0;
};

}  // namespace gridmon::core
