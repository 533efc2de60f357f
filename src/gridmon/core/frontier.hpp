#pragma once

/// \file frontier.hpp
/// The million-user frontier workload: UserWorkload's closed-loop user
/// population rebuilt for scales where a coroutine frame per user and a
/// single event heap stop being affordable.
///
/// Split of responsibilities across sim::ShardGroup shards:
///  - Shard 0 is the Testbed's full Simulation — every byte of network
///    and CPU physics stays there. Each query attempt runs as a short
///    gateway coroutine against the user's real UC-host NIC, through
///    the scenario's unmodified query function, so the service under
///    test sees exactly the traffic the legacy engine would send it.
///  - Shards 1..K hold only user state: one vector of 16-byte per-user
///    records (query start time, RNG draw counter, retry level, state
///    byte; the user id is derived from the slot) plus a calendar queue
///    of 16-byte (fire time, slot) timers — a ring of bucket vectors,
///    lookahead-wide unless the longest delay needs more than 16384 of
///    them, each sorted once when it opens. No coroutine frames, no
///    per-user allocation.
///
/// The two sides talk exclusively through the group's deterministic
/// mailboxes with one lookahead hop (the WAN one-way latency) in each
/// direction. Because even a K=1 run takes the same mailbox trips, the
/// results are byte-identical for every shard count — the property the
/// frontier golden tests pin per seed.
///
/// Per-user randomness is a counter-based splitmix stream keyed by
/// (testbed seed, global user id, draw index): fully deterministic and
/// independent of shard placement, at 4 bytes of state per user.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gridmon/core/metrics_report.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/sim/shard.hpp"

namespace gridmon::core {

struct FrontierConfig {
  int shards = 1;        // client-state shards (>= 1)
  /// Kept only so the benchmark harness's `fc.threads = 0;` still
  /// compiles; shards always run serially and any other value throws.
  int threads = 0;
  double lookahead = 0;  // window seconds; 0 = min WAN one-way latency
  double think_time = 1.0;  // the paper's 1-second wait
  /// Retry ladder after a refused/failed attempt (same 2002-kernel SYN
  /// retransmission schedule the legacy workload uses).
  std::vector<double> retry_schedule{3, 6, 12, 24, 48, 75};
  double retry_jitter = 0.02;
  double client_cpu_per_query = 0.01;
  /// Optional admission gate enabling the batched refusal fast path
  /// (see frontier.cpp): the gateway keeps a bounded standing pool of
  /// real in-flight attempts and prices each lookahead-window cohort of
  /// surplus attempts as one aggregate SYN/RST round trip. Point it at
  /// the scenario's server_port() and name the port's host; leave null
  /// to keep every attempt on the full per-attempt physics path.
  const net::ServerPort* admission_port = nullptr;
  std::string server_host;
  /// Standing-pool size as a multiple of the port's listen backlog.
  int pool_factor = 4;
};

/// One completed query, tagged with its user so merges across shards
/// have a total (t, uid) order.
struct FrontierCompletion {
  double t = 0;
  double response_time = 0;  // first attempt -> success, client-observed
  double bytes = 0;
  std::uint64_t uid = 0;
  bool stale = false;
};

class FrontierWorkload {
 public:
  /// `query` is the scenario's query function; attempts run on shard 0
  /// from the user's UC-host NIC. The testbed's seed keys every
  /// per-user random stream.
  FrontierWorkload(Testbed& testbed, TracedQueryFn query,
                   FrontierConfig config = {});
  FrontierWorkload(const FrontierWorkload&) = delete;
  FrontierWorkload& operator=(const FrontierWorkload&) = delete;
  /// Gateway coroutines reference this object; destroy them first.
  ~FrontierWorkload();

  /// Create `n` users round-robin over the client shards, mapped onto
  /// the testbed's UC hosts at the paper's 50-per-machine cap. One call
  /// per workload.
  void spawn_users(int n);

  /// Drive all shards to absolute sim time `until` in lookahead
  /// windows. Returns events executed (gateway events + user timers).
  std::size_t run(double until);

  /// The shared measurement protocol over the sharded engine: warm up,
  /// measure `duration` seconds, report the study metrics plus the
  /// engine's shard count. Mirrors core::measure() field for field
  /// (events is filled too; wall-clock stays with the caller, per the
  /// determinism contract).
  MetricsReport measure_window(double x, double warmup, double duration,
                               const std::string& server_host);

  /// All completions so far, canonically ordered by (t, uid) —
  /// identical bytes for every shard count.
  const std::vector<FrontierCompletion>& merged_completions();

  std::uint64_t refused_attempts() const noexcept;
  std::uint64_t timeout_attempts() const noexcept;
  std::uint64_t failed_attempts() const noexcept;
  std::uint64_t error_count() const noexcept {
    return timeout_attempts() + failed_attempts();
  }
  std::uint64_t total_queries() const noexcept;
  std::uint64_t total_attempts() const noexcept { return attempts_; }
  /// Attempts refused on the batched fast path (0 with no
  /// admission_port). Included in total_attempts()/refused_attempts().
  std::uint64_t fast_refused() const noexcept { return fast_refused_; }
  int users() const noexcept { return users_; }
  int shards() const noexcept { return config_.shards; }
  double lookahead() const noexcept { return lookahead_; }
  double now() const noexcept;
  std::uint64_t messages_delivered() const noexcept;

 private:
  struct ClientShard;

  static sim::Task<void> gateway_attempt(FrontierWorkload& self,
                                         std::uint64_t uid);
  static sim::Task<void> flush_requests(FrontierWorkload& self);
  void on_gateway_message(const sim::ShardMessage& m);
  int shard_index_of(std::uint64_t uid) const noexcept {
    return 1 + static_cast<int>(uid % static_cast<std::uint64_t>(
                                          config_.shards));
  }

  Testbed& testbed_;
  TracedQueryFn query_;
  FrontierConfig config_;
  double lookahead_ = 0;
  std::uint64_t seed_ = 0;
  std::unique_ptr<sim::SimulationShard> gateway_;
  std::vector<std::unique_ptr<ClientShard>> clients_;
  std::unique_ptr<sim::ShardGroup> group_;
  std::vector<net::Interface*> nics_;   // UC-host NIC per uid % pool
  std::vector<host::Host*> hosts_;      // matching hosts (client CPU)
  net::Interface* server_nic_ = nullptr;  // set with admission_port
  std::vector<FrontierCompletion> merged_;
  /// Pending request cohorts keyed by flush time (the end of the
  /// lookahead-wide bucket containing each request's delivery instant).
  /// At most two buckets are live at once.
  std::map<double, std::vector<std::uint64_t>> buckets_;
  std::uint64_t outstanding_ = 0;  // gateway_attempt coroutines in flight
  std::uint64_t attempts_ = 0;
  std::uint64_t fast_refused_ = 0;
  int users_ = 0;
};

}  // namespace gridmon::core
