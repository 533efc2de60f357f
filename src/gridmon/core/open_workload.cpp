#include "gridmon/core/open_workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gridmon::core {

OpenWorkload::OpenWorkload(Testbed& testbed, QueryFn query,
                           OpenWorkloadConfig config)
    : testbed_(testbed),
      query_(std::move(query)),
      config_(config),
      policy_(config_.resilience) {
  // A schedule shorter than max_retries silently reused its last entry
  // for the extra retries; require the two knobs to agree.
  if (!config_.retry_schedule.empty() &&
      config_.retry_schedule.size() <
          static_cast<std::size_t>(std::max(config_.max_retries, 0))) {
    throw std::invalid_argument(
        "OpenWorkloadConfig: retry_schedule has " +
        std::to_string(config_.retry_schedule.size()) +
        " entries but max_retries allows " +
        std::to_string(config_.max_retries) +
        " retries; size the schedule to cover every retry (or leave it "
        "empty for the exponential default)");
  }
  backoff_.schedule = config_.retry_schedule;
  backoff_.jitter = config_.retry_jitter;
}

OpenWorkload::OpenWorkload(Testbed& testbed, TracedQueryFn query,
                           OpenWorkloadConfig config)
    : OpenWorkload(testbed,
                   QueryFn([q = std::move(query)](net::Interface& nic) {
                     return q(nic, trace::Ctx{});
                   }),
                   config) {}

void OpenWorkload::start(const std::vector<std::string>& client_hosts) {
  testbed_.sim().spawn(arrival_loop(*this, client_hosts));
}

sim::Task<void> OpenWorkload::arrival_loop(OpenWorkload& self,
                                           std::vector<std::string> hosts) {
  auto& sim = self.testbed_.sim();
  sim::Rng rng = self.testbed_.rng().fork();
  std::size_t next_host = 0;
  for (;;) {
    co_await sim.delay(rng.exponential(1.0 / self.config_.arrival_rate));
    const std::string& host = hosts[next_host++ % hosts.size()];
    ++self.arrivals_;
    sim.spawn(one_query(self, self.testbed_.nic(host), rng.fork()));
  }
}

sim::Task<void> OpenWorkload::one_query(OpenWorkload& self,
                                        net::Interface& nic, sim::Rng rng) {
  auto& sim = self.testbed_.sim();
  ++self.outstanding_;
  double started = sim.now();
  self.policy_.on_query();
  net::Outcome attempt;
  int retry = 0;
  for (;;) {
    // Circuit breaker: while Open the attempt fails locally, costing the
    // network and server nothing.
    bool fast_failed = !self.policy_.allow(sim.now());
    if (fast_failed) {
      attempt = net::Outcome{};
    } else {
      ++self.attempts_;
      attempt = co_await self.query_(nic);
      self.policy_.record(sim.now(), attempt.admitted);
    }
    if (attempt.admitted) break;
    if (retry >= self.config_.max_retries) {
      ++self.failures_;
      --self.outstanding_;
      co_return;
    }
    // Retry budget: exhausted means this one-shot script gives up now
    // instead of feeding the retry storm.
    if (!self.policy_.allow_retry()) {
      ++self.failures_;
      --self.outstanding_;
      co_return;
    }
    co_await sim.delay(
        self.backoff_.delay(static_cast<std::size_t>(retry), rng));
    ++retry;
  }
  self.completions_.push_back(
      Completion{sim.now(), sim.now() - started, attempt.response_bytes});
  --self.outstanding_;
}

double OpenWorkload::throughput(double t0, double t1) const {
  if (t1 <= t0) return 0;
  std::size_t n = 0;
  for (const auto& c : completions_) {
    if (c.t >= t0 && c.t <= t1) ++n;
  }
  return static_cast<double>(n) / (t1 - t0);
}

double OpenWorkload::mean_response(double t0, double t1) const {
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

}  // namespace gridmon::core
