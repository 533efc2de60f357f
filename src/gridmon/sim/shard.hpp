#pragma once

/// \file shard.hpp
/// Conservative-lookahead sharded execution for the discrete-event
/// engine.
///
/// A ShardGroup drives K ShardRunners (shard 0 is usually a full
/// sim::Simulation; the others can be lean special-purpose runners such
/// as the frontier workload's SoA client shards) through fixed windows
/// of `lookahead` simulated seconds. Within a window the shards run one
/// after another on the caller's thread, each independently of the
/// others; cross-shard effects travel as ShardMessages that wait in the
/// receiver's pending batch until the window barrier.
///
/// Determinism argument (the property the golden tests pin):
///  - A message posted in a window is never deliverable before the next
///    barrier: post() rejects deliver_at earlier than the current
///    window's end, and the lookahead bound (the minimum cross-site
///    one-way latency, see net::Network::min_cross_site_latency) makes
///    that restriction physically free.
///  - At the barrier each receiver's new messages are sorted by the
///    canonical key (deliver_at, uid, seq) and merged into its inbox —
///    sender identity is *not* part of the key, so the delivery order
///    is independent of how entities were partitioned into shards.
///  - Within a window a shard interleaves local work and deliveries by
///    time, with the fixed tie rule "local events first, then messages"
///    at equal timestamps.
/// Together: the sequence of deliveries each shard observes is a pure
/// function of the message multiset, not of the shard count, so a run
/// with K shards is byte-identical to the same model run with one.
///
/// Protocol contract for senders: two messages that agree on
/// (deliver_at, uid) must originate from the same shard (their relative
/// order is then fixed by seq). Request/reply protocols that keep at
/// most one in-flight exchange per uid satisfy this by construction.
///
/// The group starts no threads: in the frontier workload shard 0 (the
/// physics) carries nearly all the work, so a worker pool would only add
/// a hand-off at every barrier.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gridmon/sim/simulation.hpp"

namespace gridmon::sim {

/// One cross-shard event. `kind`/`a`/`f` are receiver-defined payload;
/// `uid` is the global entity id that anchors the canonical order.
struct ShardMessage {
  SimTime deliver_at = 0;
  std::uint64_t uid = 0;   // global entity id — primary tiebreak
  std::uint64_t seq = 0;   // per-sender running count — final tiebreak
  std::uint32_t kind = 0;  // receiver-defined discriminator
  std::uint64_t a = 0;     // payload word
  double f = 0;            // payload value
};

/// The canonical delivery order: (deliver_at, uid, seq), nothing else.
inline bool shard_message_before(const ShardMessage& x,
                                 const ShardMessage& y) {
  if (x.deliver_at != y.deliver_at) return x.deliver_at < y.deliver_at;
  if (x.uid != y.uid) return x.uid < y.uid;
  return x.seq < y.seq;
}

/// What the group drives. Implementations must advance their local
/// clock to `until` in run() even when idle, and must tolerate run()
/// calls that do not move the clock (until == now).
class ShardRunner {
 public:
  virtual ~ShardRunner() = default;
  ShardRunner() = default;
  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  virtual SimTime now() const = 0;
  /// Process all local work with timestamps <= until and advance the
  /// clock to `until`. Returns the number of events executed.
  virtual std::size_t run(SimTime until) = 0;
  /// Deliver one cross-shard message. Called with now() ==
  /// m.deliver_at, in canonical order among same-window messages.
  virtual void deliver(const ShardMessage& m) = 0;
};

/// Adapter presenting a full Simulation as a shard: deliveries invoke a
/// handler at the simulation's current time (the handler typically
/// spawns a coroutine or schedules work).
class SimulationShard final : public ShardRunner {
 public:
  using Handler = std::function<void(const ShardMessage&)>;

  SimulationShard(Simulation& sim, Handler handler)
      : sim_(sim), handler_(std::move(handler)) {}

  SimTime now() const override { return sim_.now(); }
  std::size_t run(SimTime until) override { return sim_.run(until); }
  void deliver(const ShardMessage& m) override { handler_(m); }

  Simulation& simulation() noexcept { return sim_; }

 private:
  Simulation& sim_;
  Handler handler_;
};

class ShardGroup {
 public:
  /// `shards` must outlive the group. `lookahead` is the window length
  /// in simulated seconds (> 0).
  ShardGroup(std::vector<ShardRunner*> shards, double lookahead)
      : lookahead_(lookahead) {
    if (shards.empty()) throw std::invalid_argument("ShardGroup: no shards");
    if (!(lookahead > 0)) {
      throw std::invalid_argument("ShardGroup: lookahead must be positive");
    }
    shards_.resize(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      shards_[i].runner = shards[i];
    }
  }

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Queue a message from shard `from` to shard `to`. Held in the
  /// receiver's pending batch until the next barrier — posting to your
  /// own shard takes the same barrier trip, which is what keeps K=1 and
  /// K=N byte-identical. Enforces the conservative bound: the message
  /// must not be deliverable inside the window that produced it.
  void post(int from, int to, ShardMessage m) {
    assert(from >= 0 && static_cast<std::size_t>(from) < shards_.size());
    assert(to >= 0 && static_cast<std::size_t>(to) < shards_.size());
    if (m.deliver_at < window_end_) {
      throw std::logic_error(
          "ShardGroup::post: deliver_at precedes the current window end "
          "(lookahead violated)");
    }
    m.seq = shards_[static_cast<std::size_t>(from)].next_seq++;
    shards_[static_cast<std::size_t>(to)].pending.push_back(m);
  }

  /// Drive every shard to absolute time `until` in lookahead windows.
  /// Returns the number of events executed across all shards.
  std::size_t run(SimTime until) {
    std::size_t executed = 0;
    while (now_ < until) {
      exchange();
      SimTime end = now_ + lookahead_;
      if (end > until) end = until;
      window_end_ = end;
      for (PerShard& s : shards_) executed += run_window(s, end);
      now_ = end;
      ++windows_;
    }
    // Deliver anything due exactly at `until` posted by the last window
    // on the next run() call; callers observing state between runs see
    // every shard quiesced at `until`.
    return executed;
  }

  SimTime now() const noexcept { return now_; }
  int shard_count() const noexcept { return static_cast<int>(shards_.size()); }
  double lookahead() const noexcept { return lookahead_; }
  std::uint64_t windows_run() const noexcept { return windows_; }
  /// Total cross-shard messages delivered so far.
  std::uint64_t messages_delivered() const noexcept {
    std::uint64_t total = 0;
    for (const PerShard& s : shards_) total += s.delivered;
    return total;
  }

 private:
  struct PerShard {
    ShardRunner* runner = nullptr;
    std::vector<ShardMessage> inbox;  // canonical order, read from `head`
    std::size_t head = 0;
    std::vector<ShardMessage> pending;  // posted since the last barrier
    std::uint64_t next_seq = 0;
    std::uint64_t delivered = 0;
  };

  /// One shard's window: interleave local events and due deliveries by
  /// time; at equal timestamps local events fire first (runner->run is
  /// inclusive of `until`), then messages in canonical order.
  std::size_t run_window(PerShard& s, SimTime end) {
    std::size_t executed = 0;
    while (s.head < s.inbox.size() && s.inbox[s.head].deliver_at <= end) {
      SimTime at = s.inbox[s.head].deliver_at;
      executed += s.runner->run(at);
      for (; s.head < s.inbox.size() && s.inbox[s.head].deliver_at == at;
           ++s.head) {
        s.runner->deliver(s.inbox[s.head]);
        ++s.delivered;
      }
    }
    executed += s.runner->run(end);
    return executed;
  }

  /// Barrier: sort each receiver's pending batch into canonical order
  /// and merge it behind the messages still waiting in its inbox (those
  /// go first on equal keys).
  void exchange() {
    for (PerShard& s : shards_) {
      if (s.pending.empty()) continue;
      std::sort(s.pending.begin(), s.pending.end(), shard_message_before);
      if (s.head < s.inbox.size()) {
        std::vector<ShardMessage> merged;
        merged.reserve(s.inbox.size() - s.head + s.pending.size());
        std::merge(s.inbox.begin() + static_cast<std::ptrdiff_t>(s.head),
                   s.inbox.end(), s.pending.begin(), s.pending.end(),
                   std::back_inserter(merged), shard_message_before);
        s.pending.swap(merged);
      }
      s.inbox.swap(s.pending);  // the spent inbox's storage takes new posts
      s.pending.clear();
      s.head = 0;
    }
  }

  std::vector<PerShard> shards_;
  double lookahead_;
  SimTime now_ = 0;
  SimTime window_end_ = 0;
  std::uint64_t windows_ = 0;
};

}  // namespace gridmon::sim
