#include "gridmon/core/workload.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "gridmon/sim/event.hpp"

namespace gridmon::core {
namespace {

/// Shared mailbox between a user and one in-flight query attempt. The
/// user may abandon the attempt at its deadline; the attempt coroutine
/// keeps running (the server still does the work) and posts its result
/// into a box nobody reads.
struct AttemptBox {
  std::optional<net::Outcome> result;
  sim::Event done;
  explicit AttemptBox(sim::Simulation& s) : done(s) {}
};

sim::Task<void> run_attempt(const TracedQueryFn& query, net::Interface& nic,
                            trace::Ctx ctx, std::shared_ptr<AttemptBox> box) {
  net::Outcome a = co_await query(nic, ctx);
  box->result = a;
  box->done.trigger();
}

}  // namespace

UserWorkload::UserWorkload(Testbed& testbed, QueryFn query,
                           WorkloadConfig config)
    : UserWorkload(testbed,
                   TracedQueryFn([q = std::move(query)](
                       net::Interface& nic, trace::Ctx) { return q(nic); }),
                   config) {}

UserWorkload::UserWorkload(Testbed& testbed, TracedQueryFn query,
                           WorkloadConfig config)
    : testbed_(testbed),
      query_(std::move(query)),
      config_(config),
      policy_(config_.resilience) {
  backoff_.schedule = config_.retry_schedule;
  backoff_.jitter = config_.retry_jitter;
}

void UserWorkload::spawn_users(int n,
                               const std::vector<std::string>& client_hosts) {
  if (client_hosts.empty()) {
    throw std::invalid_argument("no client hosts");
  }
  int capacity =
      config_.max_users_per_host * static_cast<int>(client_hosts.size());
  if (n > capacity) {
    throw std::invalid_argument(
        "requested " + std::to_string(n) + " users but only " +
        std::to_string(capacity) + " fit on " +
        std::to_string(client_hosts.size()) + " client hosts");
  }
  // Even round-robin placement (paper: "evenly divide the number of
  // simulated users by the number of machines to balance the load").
  for (int i = 0; i < n; ++i) {
    const std::string& host_name = client_hosts[static_cast<std::size_t>(i) %
                                                client_hosts.size()];
    testbed_.sim().spawn(user_loop(*this, testbed_.host(host_name),
                                   testbed_.nic(host_name),
                                   testbed_.rng().fork()));
    ++users_;
  }
}

sim::Task<void> UserWorkload::user_loop(UserWorkload& self, host::Host& host,
                                        net::Interface& nic, sim::Rng rng) {
  auto& sim = host.simulation();
  // Desynchronize start-up so users do not fire in lockstep.
  co_await sim.delay(rng.uniform(0, self.config_.think_time));
  for (;;) {
    double started = sim.now();
    ++self.queries_;
    self.policy_.on_query();
    double deadline = self.config_.query_deadline > 0
                          ? started + self.config_.query_deadline
                          : -1;
    std::size_t retry = 0;
    int attempts = 0;
    bool abandoned = false;
    net::Outcome attempt;
    // One trace per user query (null Ctx while the collector is off or
    // absent, which keeps the whole iteration allocation-free).
    trace::Ctx root = self.collector_ != nullptr
                          ? self.collector_->new_trace()
                          : trace::Ctx{};
    {
      trace::Span query_span(root, trace::SpanKind::Query);
      for (;;) {
        ++attempts;
        // Circuit breaker toward the service: while Open, fail the
        // attempt locally without touching the network. Fast-fails are
        // client-side decisions, so they do not count as refusals.
        bool fast_failed = !self.policy_.allow(sim.now());
        if (fast_failed) {
          attempt = net::Outcome{};
        } else if (deadline < 0) {
          ++self.attempts_;
          attempt = co_await self.query_(nic, query_span.ctx());
        } else {
          double remaining = deadline - sim.now();
          if (remaining <= 0) {
            abandoned = true;
            break;
          }
          // Race the attempt against the script's remaining patience.
          ++self.attempts_;
          auto box = std::make_shared<AttemptBox>(sim);
          sim.spawn(run_attempt(self.query_, nic, query_span.ctx(), box));
          bool finished = co_await box->done.wait_for(remaining);
          if (!finished || !box->result) {
            // Deadline hit with the attempt still in flight: the client
            // kills its query tool and walks away; the orphaned attempt
            // runs on server-side until it fizzles out. The breaker
            // learns nothing (the outcome is unknown to the client).
            abandoned = true;
            break;
          }
          attempt = *box->result;
        }
        if (!fast_failed) {
          self.policy_.record(sim.now(), attempt.admitted && !attempt.failed &&
                                             !attempt.timed_out);
          if (attempt.timed_out) ++self.timeouts_;
          if (attempt.failed) ++self.failures_;
          if (attempt.admitted && !attempt.failed && !attempt.timed_out) break;
          if (!attempt.admitted && !attempt.timed_out) ++self.refused_;
        }
        if (self.config_.max_attempts > 0 &&
            attempts >= self.config_.max_attempts) {
          abandoned = true;
          break;
        }
        // Retry budget: an exhausted budget abandons the query rather
        // than amplifying an outage into a retry storm.
        if (!self.policy_.allow_retry()) {
          abandoned = true;
          break;
        }
        // Dropped SYN / failed attempt: wait out the retransmission timer.
        double delay = self.backoff_.delay(retry, rng);
        if (deadline >= 0 && sim.now() + delay >= deadline) {
          // The deadline lands inside this backoff: die right there.
          trace::Span backoff(query_span.ctx(), trace::SpanKind::Backoff);
          if (deadline > sim.now()) co_await sim.delay(deadline - sim.now());
          abandoned = true;
          break;
        }
        trace::Span backoff(query_span.ctx(), trace::SpanKind::Backoff);
        co_await sim.delay(delay);
        ++retry;
      }
      query_span.set_arg(attempt.response_bytes);
      if (abandoned && root) {
        root.col->instant(query_span.ctx(), trace::SpanKind::Timeout,
                          "query_deadline");
      }
    }
    if (abandoned) {
      ++self.abandoned_;
    } else {
      self.completions_.push_back(Completion{sim.now(), sim.now() - started,
                                             attempt.response_bytes,
                                             attempt.stale});
    }
    if (self.config_.client_cpu_per_query > 0) {
      co_await host.cpu().consume(self.config_.client_cpu_per_query);
    }
    trace::Span think(root, trace::SpanKind::Think);
    co_await sim.delay(self.config_.think_time);
    think.end();
  }
}

double UserWorkload::throughput(double t0, double t1) const {
  if (t1 <= t0) return 0;
  std::size_t n = 0;
  for (const auto& c : completions_) {
    if (c.t >= t0 && c.t <= t1) ++n;
  }
  return static_cast<double>(n) / (t1 - t0);
}

double UserWorkload::mean_response(double t0, double t1) const {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& c : completions_) {
    if (c.t >= t0 && c.t <= t1) {
      sum += c.response_time;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0;
}

std::size_t UserWorkload::completed(double t0, double t1) const {
  std::size_t n = 0;
  for (const auto& c : completions_) {
    if (c.t >= t0 && c.t <= t1) ++n;
  }
  return n;
}

double UserWorkload::stale_fraction(double t0, double t1) const {
  std::size_t n = 0;
  std::size_t stale = 0;
  for (const auto& c : completions_) {
    if (c.t >= t0 && c.t <= t1) {
      ++n;
      if (c.stale) ++stale;
    }
  }
  return n ? static_cast<double>(stale) / static_cast<double>(n) : 0;
}

double UserWorkload::goodput(double t0, double t1, double deadline) const {
  if (t1 <= t0) return 0;
  std::size_t n = 0;
  for (const auto& c : completions_) {
    if (c.t >= t0 && c.t <= t1 &&
        (deadline <= 0 || c.response_time <= deadline)) {
      ++n;
    }
  }
  return static_cast<double>(n) / (t1 - t0);
}

double UserWorkload::first_success_after(double t) const {
  double best = -1;
  for (const auto& c : completions_) {
    if (c.t >= t && (best < 0 || c.t < best)) best = c.t;
  }
  return best;
}

}  // namespace gridmon::core
