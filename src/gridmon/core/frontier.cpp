#include "gridmon/core/frontier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace gridmon::core {
namespace {

// Mailbox protocol: one in-flight exchange per user, ever — a request
// is answered by exactly one reply before the user's next timer can
// send another. That satisfies the ShardGroup ordering contract (no
// two same-(deliver_at, uid) messages from different shards).
constexpr std::uint32_t kMsgRequest = 1;
constexpr std::uint32_t kMsgReply = 2;

// Reply flags, packed into ShardMessage::a.
constexpr std::uint64_t kFlagOk = 1u << 0;
constexpr std::uint64_t kFlagRefused = 1u << 1;
constexpr std::uint64_t kFlagTimeout = 1u << 2;
constexpr std::uint64_t kFlagFailed = 1u << 3;
constexpr std::uint64_t kFlagStale = 1u << 4;

// User FSM states (ClientShard::User::state).
constexpr std::uint8_t kThinking = 0;  // timer armed: issue next query
constexpr std::uint8_t kWaiting = 1;   // attempt in flight, no timer
constexpr std::uint8_t kBackoff = 2;   // timer armed: retry the query

/// Counter-based per-user randomness: two splitmix64 finalizer rounds
/// over (seed, uid, draw index). Stateless in everything but a 4-byte
/// per-user counter, and independent of shard placement by
/// construction.
std::uint64_t frontier_mix(std::uint64_t seed, std::uint64_t uid,
                           std::uint64_t n) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (uid + 1) +
                    0x94D049BB133111EBull * (n + 1);
  for (int round = 0; round < 2; ++round) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
  }
  return x;
}

}  // namespace

/// One client shard: a 16-byte record per user plus a calendar queue
/// (Brown 1988) of timers: a ring of `width`-wide buckets spanning
/// `horizon`, the longest delay a user can arm, plus two, so every timer
/// lands within one lap. The open bucket is sorted latest-first and
/// fires from the back in (at, slot) order: within a shard, (at, uid).
struct FrontierWorkload::ClientShard final : sim::ShardRunner {
  ClientShard(FrontierWorkload& owner_ref, int group_index, double horizon)
      : owner(owner_ref), index(group_index), width(owner.lookahead_) {
    while (std::ceil(horizon / width) + 2 > 1 << 14) width *= 2;  // ring cap
    ring.resize(static_cast<std::size_t>(std::ceil(horizon / width)) + 2);
  }

  FrontierWorkload& owner;
  int index;  // this shard's id inside the group (1-based)
  const std::uint64_t shards =  // K: user uid lives in slot uid / K
      static_cast<std::uint64_t>(owner.config_.shards);
  sim::SimTime now_ = 0;

  struct User {
    double query_start = 0;
    std::uint32_t draws = 0;  // per-user RNG counter
    std::uint16_t retries = 0;
    std::uint8_t state = kThinking;
  };
  static_assert(sizeof(User) == 16);
  std::vector<User> users;

  using Timer = std::pair<double, std::uint32_t>;  // (at, slot)
  static constexpr std::greater<> later{};  // bucket order: latest first
  std::vector<std::vector<Timer>> ring;
  double width;            // bucket width, sim seconds
  std::uint64_t head = 0;  // absolute number of the head bucket
  bool open = false;       // head bucket sorted (not yet, while seeding)

  std::vector<FrontierCompletion> completions;  // in (t, uid) order
  std::uint64_t queries = 0;
  std::uint64_t refused = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failures = 0;

  std::uint64_t uid_of(std::uint32_t slot) const {
    return slot * shards + static_cast<std::uint64_t>(index - 1);
  }
  std::uint64_t bucket_of(double at) const {
    return static_cast<std::uint64_t>(at / width);
  }

  double draw01(std::uint32_t slot) {
    std::uint64_t z =
        frontier_mix(owner.seed_, uid_of(slot), users[slot].draws++);
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

  /// `at` >= now_: never behind the head bucket, and in order if open.
  void arm(double at, std::uint32_t slot) {
    std::uint64_t b = bucket_of(at);
    assert(b >= head && b - head < ring.size());
    std::vector<Timer>& bucket = ring[b % ring.size()];
    Timer t{at, slot};
    bucket.insert(b == head && open
                      ? std::upper_bound(bucket.begin(), bucket.end(), t, later)
                      : bucket.end(),
                  t);
  }

  void add_user(double start_after) {
    if (users.empty()) head = bucket_of(start_after);
    std::uint32_t slot = static_cast<std::uint32_t>(users.size());
    users.emplace_back();
    // Desynchronized start, like the legacy workload's initial delay.
    arm(start_after + draw01(slot) * owner.config_.think_time, slot);
  }

  /// Timer expiry: a Thinking user starts a fresh query, a Backoff user
  /// retries the current one; both send one request to the gateway.
  void fire(std::uint32_t slot) {
    User& u = users[slot];
    if (u.state == kThinking) {
      ++queries;
      u.retries = 0;
      u.query_start = now_;
    }
    u.state = kWaiting;
    owner.group_->post(
        index, 0,
        sim::ShardMessage{now_ + owner.lookahead_, uid_of(slot), 0,
                          kMsgRequest, 0, 0, 0});
  }

  sim::SimTime now() const override { return now_; }

  /// A bucket drained before the one holding `until` frees its storage
  /// (kept, each would grow to its busiest lap) and the next one opens.
  std::size_t run(sim::SimTime until) override {
    std::size_t fired = 0;
    for (const std::uint64_t last = bucket_of(until);; ++head, open = false) {
      std::vector<Timer>& bucket = ring[head % ring.size()];
      if (!open) std::sort(bucket.begin(), bucket.end(), later);
      open = true;
      for (; !bucket.empty() && bucket.back().first <= until; ++fired) {
        now_ = bucket.back().first;
        fire(bucket.back().second);
        bucket.pop_back();
      }
      if (!bucket.empty() || head >= last) break;
      std::vector<Timer>().swap(bucket);
    }
    if (until > now_) now_ = until;
    return fired;
  }

  void deliver(const sim::ShardMessage& m) override {
    std::uint32_t slot = static_cast<std::uint32_t>(m.uid / shards);
    User& u = users[slot];
    if (m.a & kFlagOk) {
      completions.push_back(FrontierCompletion{
          now_, now_ - u.query_start, m.f, m.uid, (m.a & kFlagStale) != 0});
      u.state = kThinking;
      arm(now_ + owner.config_.think_time, slot);
      return;
    }
    if (m.a & kFlagRefused) ++refused;
    if (m.a & kFlagTimeout) ++timeouts;
    if (m.a & kFlagFailed) ++failures;
    const std::vector<double>& sched = owner.config_.retry_schedule;
    std::size_t step = std::min<std::size_t>(u.retries, sched.size() - 1);
    double jitter = owner.config_.retry_jitter;
    double delay = sched[step] * (1.0 - jitter + 2.0 * jitter * draw01(slot));
    if (u.retries < 0xffff) ++u.retries;
    u.state = kBackoff;
    arm(now_ + delay, slot);
  }
};

FrontierWorkload::FrontierWorkload(Testbed& testbed, TracedQueryFn query,
                                   FrontierConfig config)
    : testbed_(testbed), query_(std::move(query)), config_(config) {
  if (config_.shards < 1) {
    throw std::invalid_argument("frontier workload needs >= 1 shard");
  }
  const std::vector<double>& steps = config_.retry_schedule;
  auto bad = [](double d) { return !(d >= 0 && std::isfinite(d)); };
  if (steps.empty() || std::any_of(steps.begin(), steps.end(), bad) ||
      bad(config_.think_time) || !(std::abs(config_.retry_jitter) <= 1)) {
    throw std::invalid_argument(
        "frontier workload: bad think time, jitter or retry schedule");
  }
  double horizon = std::max(config_.think_time,
                            (1.0 + std::abs(config_.retry_jitter)) *
                                *std::max_element(steps.begin(), steps.end()));
  lookahead_ = config_.lookahead > 0
                   ? config_.lookahead
                   : testbed_.network().min_cross_site_latency();
  if (!(lookahead_ > 0)) {
    throw std::invalid_argument(
        "frontier workload: no WAN latency to derive the lookahead from; "
        "set [engine] lookahead");
  }
  seed_ = testbed_.config().seed;
  if (config_.admission_port != nullptr) {
    if (config_.server_host.empty()) {
      throw std::invalid_argument(
          "frontier workload: admission_port needs server_host");
    }
    if (config_.pool_factor < 1) {
      throw std::invalid_argument(
          "frontier workload: pool_factor must be >= 1");
    }
    server_nic_ = &testbed_.nic(config_.server_host);
  }
  gateway_ = std::make_unique<sim::SimulationShard>(
      testbed_.sim(),
      [this](const sim::ShardMessage& m) { on_gateway_message(m); });
  std::vector<sim::ShardRunner*> runners{gateway_.get()};
  clients_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    clients_.push_back(std::make_unique<ClientShard>(*this, s + 1, horizon));
    runners.push_back(clients_.back().get());
  }
  group_ = std::make_unique<sim::ShardGroup>(std::move(runners), lookahead_,
                                             config_.threads);
}

FrontierWorkload::~FrontierWorkload() { testbed_.sim().shutdown(); }

void FrontierWorkload::spawn_users(int n) {
  if (users_ > 0) {
    throw std::logic_error("frontier workload: spawn_users already called");
  }
  if (n <= 0) throw std::invalid_argument("no users requested");
  const std::vector<std::string>& uc = testbed_.uc_names();
  int capacity = 50 * static_cast<int>(uc.size());
  if (n > capacity) {
    throw std::invalid_argument(
        "requested " + std::to_string(n) + " users but only " +
        std::to_string(capacity) + " fit on " + std::to_string(uc.size()) +
        " client hosts");
  }
  nics_.reserve(uc.size());
  hosts_.reserve(uc.size());
  for (const std::string& name : uc) {
    nics_.push_back(&testbed_.nic(name));
    hosts_.push_back(&testbed_.host(name));
  }
  double start = testbed_.sim().now();
  for (int u = 0; u < n; ++u) {
    clients_[static_cast<std::size_t>(u % config_.shards)]->add_user(start);
  }
  users_ = n;
}

std::size_t FrontierWorkload::run(double until) {
  return group_->run(until);
}

sim::Task<void> FrontierWorkload::gateway_attempt(FrontierWorkload& self,
                                                  std::uint64_t uid) {
  auto& sim = self.testbed_.sim();
  std::size_t slot = static_cast<std::size_t>(uid % self.nics_.size());
  ++self.attempts_;
  ++self.outstanding_;
  QueryAttempt a = co_await self.query_(*self.nics_[slot], trace::Ctx{});
  bool ok = a.admitted && !a.failed && !a.timed_out;
  std::uint64_t flags = 0;
  if (ok) flags |= kFlagOk;
  if (!a.admitted && !a.timed_out) flags |= kFlagRefused;
  if (a.timed_out) flags |= kFlagTimeout;
  if (a.failed) flags |= kFlagFailed;
  if (a.stale) flags |= kFlagStale;
  self.group_->post(0, self.shard_index_of(uid),
                    sim::ShardMessage{sim.now() + self.lookahead_, uid, 0,
                                      kMsgReply, 0, flags,
                                      a.response_bytes});
  // The client script's bookkeeping CPU, charged on the user's real UC
  // host after a successful query (the refused path must stay cheap: at
  // frontier scale most attempts bounce off the listen queue).
  if (ok && self.config_.client_cpu_per_query > 0) {
    co_await self.hosts_[slot]->cpu().consume(
        self.config_.client_cpu_per_query);
  }
  --self.outstanding_;
}

/// The batched refusal fast path (docs/SCALE.md has the model, its two
/// bounded approximations and why it is K-independent). The gateway
/// keeps a pool of pool_factor x the port's backlog real gateway_attempt
/// coroutines, where admission is decided; each [b*L, (b+1)*L) cohort
/// of surplus requests, doomed behind the pool, is priced as ONE
/// aggregate SYN/RST round trip carrying the cohort's exact wire bytes.
/// A down port bypasses the gate, so faults stay on the real path.
sim::Task<void> FrontierWorkload::flush_requests(FrontierWorkload& self) {
  auto head = self.buckets_.begin();
  std::vector<std::uint64_t> batch = std::move(head->second);
  self.buckets_.erase(head);
  const net::ServerPort& port = *self.config_.admission_port;
  auto& sim = self.testbed_.sim();
  std::size_t full = batch.size();
  if (port.up()) {
    std::uint64_t target =
        static_cast<std::uint64_t>(self.config_.pool_factor) *
        static_cast<std::uint64_t>(port.backlog());
    std::uint64_t room =
        target > self.outstanding_ ? target - self.outstanding_ : 0;
    full = std::min(full, static_cast<std::size_t>(room));
  }
  for (std::size_t i = 0; i < full; ++i) {
    sim.spawn(gateway_attempt(self, batch[i]));
  }
  std::size_t shed = batch.size() - full;
  if (shed == 0) co_return;
  self.attempts_ += shed;
  self.fast_refused_ += shed;
  // transfer() adds one message overhead itself, hence the deduction.
  net::Interface& rep = *self.nics_[batch[full] % self.nics_.size()];
  double per_syn =
      net::Network::kSynBytes + net::Network::kMessageOverheadBytes;
  double bytes = static_cast<double>(shed) * per_syn -
                 net::Network::kMessageOverheadBytes;
  co_await self.testbed_.network().transfer(rep, *self.server_nic_, bytes);
  co_await self.testbed_.network().transfer(*self.server_nic_, rep, bytes);
  double at = sim.now() + self.lookahead_;
  for (std::size_t i = full; i < batch.size(); ++i) {
    self.group_->post(0, self.shard_index_of(batch[i]),
                      sim::ShardMessage{at, batch[i], 0, kMsgReply, 0,
                                        kFlagRefused, 0});
  }
}

void FrontierWorkload::on_gateway_message(const sim::ShardMessage& m) {
  if (m.kind != kMsgRequest) return;
  if (config_.admission_port == nullptr) {
    testbed_.sim().spawn(gateway_attempt(*this, m.uid));
    return;
  }
  // Deliveries arrive in canonical time order. Bucket this request by
  // the [b*L, (b+1)*L) interval holding its delivery instant; the first
  // member schedules the flush at the boundary. A boundary-instant
  // delivery (run before that flush, FIFO at equal times) keys a fresh
  // bucket, hence a map and not one pending vector.
  auto& sim = testbed_.sim();
  double deadline =
      (std::floor(sim.now() / lookahead_) + 1.0) * lookahead_;
  std::vector<std::uint64_t>& bucket = buckets_[deadline];
  if (bucket.empty()) {
    sim.schedule(deadline - sim.now(),
                 [this] { testbed_.sim().spawn(flush_requests(*this)); });
  }
  bucket.push_back(m.uid);
}

const std::vector<FrontierCompletion>& FrontierWorkload::merged_completions() {
  merged_.clear();
  for (const auto& shard : clients_) {
    merged_.insert(merged_.end(), shard->completions.begin(),
                   shard->completions.end());
  }
  // (t, uid) is a total order (one completion per user per instant), so
  // plain sort is deterministic and shard-count-independent.
  std::sort(merged_.begin(), merged_.end(), [](const auto& x, const auto& y) {
    return x.t != y.t ? x.t < y.t : x.uid < y.uid;
  });
  return merged_;
}

std::uint64_t FrontierWorkload::refused_attempts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : clients_) total += shard->refused;
  return total;
}

std::uint64_t FrontierWorkload::timeout_attempts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : clients_) total += shard->timeouts;
  return total;
}

std::uint64_t FrontierWorkload::failed_attempts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : clients_) total += shard->failures;
  return total;
}

std::uint64_t FrontierWorkload::total_queries() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : clients_) total += shard->queries;
  return total;
}

double FrontierWorkload::now() const noexcept { return group_->now(); }

std::uint64_t FrontierWorkload::messages_delivered() const noexcept {
  return group_->messages_delivered();
}

MetricsReport FrontierWorkload::measure_window(
    double x, double warmup, double duration,
    const std::string& server_host) {
  double start = std::max(group_->now(), testbed_.sim().now());
  std::size_t events = run(start + warmup);
  double t0 = group_->now();
  std::uint64_t refused0 = refused_attempts();
  std::uint64_t errors0 = error_count();
  std::uint64_t attempts0 = attempts_;
  std::uint64_t queries0 = total_queries();
  events += run(t0 + duration);
  double t1 = group_->now();

  MetricsReport p;
  p.x = x;
  // Completions are walked in canonical (t, uid) order, so the float
  // accumulation below is byte-identical for every shard count.
  std::size_t completed = 0;
  double response_sum = 0;
  std::size_t stale = 0;
  for (const FrontierCompletion& c : merged_completions()) {
    if (c.t < t0 || c.t > t1) continue;
    ++completed;
    response_sum += c.response_time;
    if (c.stale) ++stale;
  }
  double span = t1 - t0;
  p.throughput = span > 0 ? static_cast<double>(completed) / span : 0;
  p.response = completed > 0
                   ? response_sum / static_cast<double>(completed)
                   : 0;
  p.load1 =
      testbed_.sampler().series(server_host + ".load1").mean_over(t0, t1);
  p.cpu =
      testbed_.sampler().series(server_host + ".cpu_pct").mean_over(t0, t1);
  p.refused = span > 0 ? static_cast<double>(refused_attempts() - refused0) /
                             span
                       : 0;
  p.availability = 1;  // the frontier FSM never abandons a query
  p.error_rate =
      span > 0 ? static_cast<double>(error_count() - errors0) / span : 0;
  p.stale_frac = completed > 0 ? static_cast<double>(stale) /
                                     static_cast<double>(completed)
                               : 0;
  p.goodput = p.throughput;  // no goodput deadline at the frontier
  double d_queries = static_cast<double>(total_queries() - queries0);
  p.retry_amp = d_queries > 0
                    ? static_cast<double>(attempts_ - attempts0) / d_queries
                    : 0;
  p.events = static_cast<double>(events);
  p.shards = static_cast<double>(config_.shards);
  return p;
}

}  // namespace gridmon::core
