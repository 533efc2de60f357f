#pragma once

// gridmon-lint: hot-path — per-event cost dominates sweep wall-clock.

/// \file server_port.hpp
/// Listen-queue admission control. A server accepts at most `backlog`
/// in-flight requests (accepted + queued); beyond that, new connections
/// are refused (RST / accept-queue overflow) and clients must back off and
/// retry.
///
/// This models the effect the paper repeatedly observes: past a
/// concurrency threshold "the network on the server side can no longer
/// handle the traffic from the queries, which limits the number of
/// concurrent queries presented to the information server" — throughput
/// flattens and *host load drops*, because most clients sit in
/// exponential backoff instead of being served.
///
/// For fault injection the port also models the two classic failure
/// signatures of a dead service:
///  - Refusing: the process is down but the host is up, so connections
///    get an immediate RST (cheap, client retries fast).
///  - Blackhole: the host is gone, SYNs vanish, and the client hangs
///    until its own connect timeout expires (expensive).

#include <coroutine>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "gridmon/net/network.hpp"
#include "gridmon/resilience/policy.hpp"
#include "gridmon/sim/event.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::net {

enum class PortState { Up, Refusing, Blackhole };

/// Outcome of an `admit()` attempt. `Shed` means the request was parked
/// in the resilience wait queue but dropped before service because its
/// queue wait exceeded the deadline budget (dead work the server declined
/// to do).
enum class Admission { Ok, Refused, TimedOut, Shed };

class ServerPort {
 public:
  ServerPort(sim::Simulation& sim, int backlog)
      : backlog_(backlog), up_(sim) {
    up_.trigger();
  }
  ServerPort(const ServerPort&) = delete;
  ServerPort& operator=(const ServerPort&) = delete;

  /// Try to admit a new request. Returns false (a refused connection)
  /// when the backlog is full or the service is down.
  bool try_admit() {
    if (state_ != PortState::Up || in_flight_ >= backlog_) {
      ++refused_;
      return false;
    }
    ++in_flight_;
    ++admitted_;
    return true;
  }

  /// Admission with failure semantics. When the port is Up this behaves
  /// exactly like try_admit() and completes synchronously (the coroutine
  /// never suspends, so fault-free runs cost no sim events). A Refusing
  /// port answers immediately; a Blackhole port swallows the attempt until
  /// the service restarts or `timeout` seconds pass (timeout < 0 waits
  /// forever, like a client with no connect timeout).
  ///
  /// With a resilience ServerPolicy installed, a full-but-Up port parks
  /// the request in a bounded wait queue instead of refusing; freed slots
  /// are handed to waiters in policy order (FIFO/LIFO/deadline-EDF), and
  /// waiters whose queue wait outlives their deadline are shed lazily at
  /// hand-off time. `deadline` is an absolute sim-time by which service
  /// must have started (negative = derive from the policy's
  /// deadline_budget).
  sim::Task<Admission> admit(double timeout = -1, double deadline = -1) {
    if (state_ == PortState::Blackhole) {
      if (timeout < 0) {
        while (state_ == PortState::Blackhole) co_await up_;
      } else {
        double wait_deadline = up_.sim().now() + timeout;
        while (state_ == PortState::Blackhole) {
          bool restarted =
              co_await up_.wait_for(wait_deadline - up_.sim().now());
          if (!restarted && state_ == PortState::Blackhole) {
            ++refused_;
            co_return Admission::TimedOut;
          }
        }
      }
    }
    if (policy_.enabled && state_ == PortState::Up && in_flight_ >= backlog_ &&
        queue_.size() < policy_.queue_limit) {
      QueueAwaiter waiter;
      waiter.port = this;
      waiter.arrival = up_.sim().now();
      waiter.deadline = deadline >= 0 ? deadline
                        : policy_.deadline_budget > 0
                            ? waiter.arrival + policy_.deadline_budget
                            : std::numeric_limits<double>::infinity();
      waiter.seq = next_seq_++;
      ++total_queued_;
      co_return co_await waiter;
    }
    co_return try_admit() ? Admission::Ok : Admission::Refused;
  }

  /// Release the admission slot (request fully processed or failed).
  /// Under a resilience policy the freed slot is handed directly to a
  /// queued waiter — after shedding waiters whose deadline has already
  /// passed — without ever decrementing in_flight_, mirroring
  /// sim::Resource's slot hand-off.
  void release() {
    if (policy_.enabled && !queue_.empty()) {
      shed_expired();
      if (!queue_.empty()) {
        std::size_t winner = pick_waiter();
        QueueAwaiter* w = queue_[winner];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(winner));
        w->result = Admission::Ok;
        ++admitted_;
        up_.sim().schedule_resume(0, w->handle);
        return;
      }
    }
    --in_flight_;
  }

  /// Crash the service: refuse (RST) or, when the whole host is gone,
  /// blackhole new connections. In-flight requests are the caller's
  /// problem — services drop them at their own crash points.
  void crash(bool blackhole = false) {
    state_ = blackhole ? PortState::Blackhole : PortState::Refusing;
    up_.reset();
    // Queued waiters see the crash as a refused connection.
    std::vector<QueueAwaiter*> drained;
    drained.swap(queue_);
    for (QueueAwaiter* w : drained) {
      w->result = Admission::Refused;
      ++refused_;
      up_.sim().schedule_resume(0, w->handle);
    }
  }

  /// Bring the service back; wakes clients hanging on a blackholed SYN.
  void restart() {
    state_ = PortState::Up;
    up_.trigger();
  }

  bool up() const noexcept { return state_ == PortState::Up; }
  PortState state() const noexcept { return state_; }

  /// Install (or clear) the resilience server policy. With `enabled`
  /// false — the default — every code path is byte-identical to a port
  /// without the resilience layer.
  void set_policy(const resilience::ServerPolicy& policy) {
    policy_ = policy;
  }
  const resilience::ServerPolicy& policy() const noexcept { return policy_; }

  /// Shed-pressure signal for serve-stale degraded modes: true when the
  /// policy is on and in-flight occupancy has crossed the pressure
  /// threshold (or requests are already queueing behind a full backlog).
  bool overloaded() const noexcept {
    if (!policy_.enabled || state_ != PortState::Up) return false;
    return !queue_.empty() ||
           static_cast<double>(in_flight_) >=
               policy_.pressure_threshold * static_cast<double>(backlog_);
  }

  int in_flight() const noexcept { return in_flight_; }
  int backlog() const noexcept { return backlog_; }
  std::size_t queued() const noexcept { return queue_.size(); }
  std::uint64_t total_admitted() const noexcept { return admitted_; }
  std::uint64_t total_refused() const noexcept { return refused_; }
  std::uint64_t total_queued() const noexcept { return total_queued_; }
  std::uint64_t total_shed() const noexcept { return total_shed_; }

 private:
  /// One parked admission attempt. Lives on the awaiting coroutine's
  /// frame; the port holds only a raw pointer for the park duration, and
  /// every exit path (hand-off, shed, crash) resumes the frame exactly
  /// once via the scheduler.
  struct QueueAwaiter {
    ServerPort* port = nullptr;
    double arrival = 0;
    double deadline = 0;  // absolute; +inf when no budget applies
    std::uint64_t seq = 0;
    Admission result = Admission::Refused;
    std::coroutine_handle<> handle;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      port->queue_.push_back(this);
    }
    Admission await_resume() const noexcept { return result; }
  };

  /// Lazily drop waiters whose service deadline already passed: doing
  /// their work now would be dead work the client has given up on.
  void shed_expired() {
    double now = up_.sim().now();
    for (std::size_t i = 0; i < queue_.size();) {
      if (now > queue_[i]->deadline) {
        QueueAwaiter* w = queue_[i];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        w->result = Admission::Shed;
        ++total_shed_;
        up_.sim().schedule_resume(0, w->handle);
      } else {
        ++i;
      }
    }
  }

  /// Index of the waiter the freed slot goes to, per the discipline.
  /// queue_ is append-ordered, so FIFO is the front and LIFO the back;
  /// EDF picks the earliest deadline with arrival order as tie-break.
  std::size_t pick_waiter() const {
    switch (policy_.discipline) {
      case resilience::QueueDiscipline::Fifo:
        return 0;
      case resilience::QueueDiscipline::Lifo:
        return queue_.size() - 1;
      case resilience::QueueDiscipline::DeadlineEdf: {
        std::size_t best = 0;
        for (std::size_t i = 1; i < queue_.size(); ++i) {
          if (queue_[i]->deadline < queue_[best]->deadline) best = i;
        }
        return best;
      }
    }
    return 0;
  }

  int backlog_;
  PortState state_ = PortState::Up;
  int in_flight_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t total_queued_ = 0;
  std::uint64_t total_shed_ = 0;
  std::uint64_t next_seq_ = 0;
  resilience::ServerPolicy policy_{};
  std::vector<QueueAwaiter*> queue_;
  sim::Event up_;
};

/// RAII admission slot.
class AdmissionSlot {
 public:
  AdmissionSlot() noexcept = default;
  explicit AdmissionSlot(ServerPort* port) noexcept : port_(port) {}
  AdmissionSlot(AdmissionSlot&& o) noexcept
      : port_(std::exchange(o.port_, nullptr)) {}
  AdmissionSlot& operator=(AdmissionSlot&& o) noexcept {
    if (this != &o) {
      release();
      port_ = std::exchange(o.port_, nullptr);
    }
    return *this;
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;
  ~AdmissionSlot() { release(); }

  /// True while the slot is held.
  explicit operator bool() const noexcept { return port_ != nullptr; }

  void release() noexcept {
    if (port_ != nullptr) {
      port_->release();
      port_ = nullptr;
    }
  }

 private:
  ServerPort* port_ = nullptr;
};

/// How one query attempt ended, as the client sees it. Every service
/// reply (MdsReply, HawkeyeReply, RgmaReply) extends it, and the
/// workloads read it as is.
struct Outcome {
  bool admitted = false;  // false: refused or timed out, retry later
  double response_bytes = 0;
  bool timed_out = false;  // a connect/transfer deadline expired on the way
  bool failed = false;     // admitted, but the service could not answer
  bool stale = false;      // answered from data older than the service's bound
};

/// The client side of a request, written once for every service (paper
/// §3.1): the query tool starts, connects, is admitted or refused by the
/// listen queue and uploads its request; after the server's work the
/// reply travels back. Each step records a failure in the caller's
/// Outcome (`timed_out`, or a refusal when it stays false) and emits the
/// trace instant that failure carries. The steps are awaited in place,
/// so they schedule the same events in the same order as the protocol
/// written inline: starting a Task is a symmetric transfer, not an event.
class Exchange {
 public:
  /// `timeout` bounds every connect, admission and transfer on a dead
  /// path; `name` labels the Refused/Timeout trace instants.
  Exchange(Network& net, Interface& nic, ServerPort& port,
           double tool_latency, double timeout, std::string_view name)
      : net_(net),
        nic_(nic),
        port_(port),
        tool_latency_(tool_latency),
        timeout_(timeout),
        name_(name) {}
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  /// Connect, admission and the `request_bytes` upload, after the client
  /// tool starts. Returns the held admission slot; an empty slot means
  /// the attempt is over and `out` says how. A server-to-server fetch
  /// passes `client_tool` false: no tool startup and no trace instants.
  sim::Task<AdmissionSlot> open(Interface& client, double request_bytes,
                                trace::Ctx ctx, Outcome& out,
                                bool client_tool = true) {
    // Every await is a plain initializer: GCC 12 miscompiles some
    // coroutines that await inside an if condition or a && operand.
    bool connected = co_await dial(client, ctx, out, client_tool);
    if (!connected) co_return AdmissionSlot{};
    AdmissionSlot slot = co_await admit(ctx, out, client_tool);
    if (!slot) co_return slot;
    bool sent = co_await upload(client, request_bytes, ctx);
    if (!sent) {
      out.timed_out = true;
      slot.release();
    }
    co_return slot;
  }

  /// Tool startup and the TCP connect. False, with `out.timed_out` set,
  /// when the SYNs go unanswered.
  sim::Task<bool> dial(Interface& client, trace::Ctx ctx, Outcome& out,
                       bool client_tool = true) {
    if (client_tool) {
      trace::Span tool(ctx, trace::SpanKind::ClientTool);
      co_await net_.simulation().delay(tool_latency_);
    }
    bool connected = co_await net_.connect(client, nic_, ctx, timeout_);
    if (!connected) {
      if (ctx && client_tool) {
        ctx.col->instant(ctx, trace::SpanKind::Timeout, name_);
      }
      out.timed_out = true;
    }
    co_return connected;
  }

  /// The listen queue's verdict: the held slot, or an empty one with
  /// `out.timed_out` telling a blackholed host from a refusal.
  sim::Task<AdmissionSlot> admit(trace::Ctx ctx, Outcome& out,
                                 bool client_tool = true) {
    Admission admission = co_await port_.admit(timeout_);
    if (admission == Admission::Ok) co_return AdmissionSlot(&port_);
    out.timed_out = admission == Admission::TimedOut;
    if (ctx && client_tool) {
      ctx.col->instant(ctx,
                       out.timed_out ? trace::SpanKind::Timeout
                                     : trace::SpanKind::Refused,
                       name_);
    }
    co_return AdmissionSlot{};
  }

  /// The request upload; false when it stalls past the timeout.
  sim::Task<bool> upload(Interface& client, double request_bytes,
                         trace::Ctx ctx) {
    return net_.transfer(client, nic_, request_bytes, ctx,
                         trace::SpanKind::RequestSend, timeout_);
  }

  /// Send the `out.response_bytes` reply back to the client.
  sim::Task<void> respond(Interface& client, trace::Ctx ctx, Outcome& out) {
    bool sent = co_await net_.transfer(nic_, client, out.response_bytes, ctx,
                                       trace::SpanKind::ResponseSend,
                                       timeout_);
    if (!sent) out.timed_out = true;
  }

 private:
  Network& net_;
  Interface& nic_;
  ServerPort& port_;
  double tool_latency_;
  double timeout_;
  std::string_view name_;
};

}  // namespace gridmon::net
