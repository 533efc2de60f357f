#include "gridmon/hawkeye/agent.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace gridmon::hawkeye {

Agent::Agent(net::Network& net, host::Host& host, net::Interface& nic,
             std::string machine_name, std::vector<ModuleSpec> modules,
             AgentConfig config)
    : net_(net),
      host_(host),
      nic_(nic),
      machine_(std::move(machine_name)),
      modules_(std::move(modules)),
      config_(config),
      thread_(host.simulation(), config.threads),
      port_(host.simulation(), config.backlog) {
  if (static_cast<int>(modules_.size()) > config_.max_modules) {
    // The paper: "adding another Module caused the Startd to crash."
    throw AgentError("startd crash: " + std::to_string(modules_.size()) +
                     " modules exceeds the " +
                     std::to_string(config_.max_modules) + "-module limit");
  }
}

double Agent::current_load() const {
  if (forced_load_ >= 0) return forced_load_;
  return host_.load1().value() * 100.0;
}

sim::Task<classad::ClassAd> Agent::collect(trace::Ctx ctx) {
  trace::Span span(ctx, trace::SpanKind::Collect, machine_,
                   static_cast<double>(modules_.size()));
  ++sequence_;
  ++collections_;
  std::vector<classad::ClassAd> parts;
  parts.reserve(modules_.size());
  // Indexed loop, not range-for: the collect CPU charge suspends every
  // iteration, and modules_ must be re-entered through the index after
  // each suspension rather than through a live iterator.
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    co_await host_.cpu().consume(modules_[i].collect_cpu_ref);
    parts.push_back(run_module(modules_[i], sequence_, current_load()));
  }
  co_await host_.cpu().consume(config_.integrate_cpu);
  co_return build_startd_ad(machine_, std::move(parts));
}

sim::Task<HawkeyeReply> Agent::query(net::Interface& client, trace::Ctx ctx) {
  auto& sim = host_.simulation();
  HawkeyeReply reply;
  net::AdmissionSlot slot =
      co_await exchange_.open(client, config_.request_bytes, ctx, reply);
  if (!slot) co_return reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, machine_);
    auto lease = co_await thread_.acquire();
    wait.end();
    {
      trace::Span cpu(ctx, trace::SpanKind::Cpu, "query_base",
                      config_.query_base_cpu);
      co_await host_.cpu().consume(config_.query_base_cpu);
    }
    if (collectors_down_) {
      // A hung module wedges the whole collection sweep: the daemon waits
      // out the module timeout holding its one thread, then fails — there
      // is no resident database to fall back on.
      co_await sim.delay(config_.module_timeout);
      reply.failed = true;
      reply.response_bytes = 128;  // error envelope
      reply.admitted = true;
    } else {
      classad::ClassAd ad =
          co_await collect(ctx);  // no resident DB: always fresh
      reply.machines = 1;
      reply.response_bytes = std::max(ad.wire_bytes(), config_.min_ad_bytes);
      reply.admitted = true;
    }
  }
  // The startd hands the reply buffer to the kernel and moves on; unlike
  // the Manager's large result sets, a single ad fits the socket buffer.
  co_await exchange_.respond(client, ctx, reply);
  co_return reply;
}

sim::Task<HawkeyeReply> Agent::query_module(net::Interface& client,
                                            std::string module_name,
                                            trace::Ctx ctx) {
  auto& sim = host_.simulation();
  HawkeyeReply reply;
  net::AdmissionSlot slot =
      co_await exchange_.open(client, config_.request_bytes, ctx, reply);
  if (!slot) co_return reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, machine_);
    auto lease = co_await thread_.acquire();
    wait.end();
    {
      trace::Span cpu(ctx, trace::SpanKind::Cpu, "query_base",
                      config_.query_base_cpu);
      co_await host_.cpu().consume(config_.query_base_cpu);
    }
    if (collectors_down_) {
      co_await sim.delay(config_.module_timeout);
      reply.failed = true;
      reply.response_bytes = 128;
      reply.admitted = true;
    } else {
      trace::Span span(ctx, trace::SpanKind::Collect, module_name, 1);
      // Indexed loop: the CPU charge suspends mid-iteration, so the
      // matched module is re-entered through its index afterwards.
      for (std::size_t i = 0; i < modules_.size(); ++i) {
        if (modules_[i].name != module_name) continue;
        co_await host_.cpu().consume(modules_[i].collect_cpu_ref);
        ++sequence_;
        ++collections_;
        classad::ClassAd fragment =
            run_module(modules_[i], sequence_, current_load());
        reply.machines = 1;
        reply.response_bytes = std::max(fragment.wire_bytes(), 512.0);
        break;
      }
      if (reply.machines == 0) reply.response_bytes = 128;  // unknown module
      reply.admitted = true;
    }
  }
  co_await exchange_.respond(client, ctx, reply);
  co_return reply;
}

void Agent::start_advertising(Manager& manager) {
  if (advertising_) return;
  advertising_ = true;
  host_.simulation().spawn(advertise_loop(manager));
}

sim::Task<void> Agent::advertise_loop(Manager& manager) {
  auto& sim = host_.simulation();
  while (advertising_) {
    // A crashed startd (or one whose modules hang) skips its advertise
    // beats; the Manager's resident ad for this machine goes stale.
    if (!port_.up() || collectors_down_) {
      co_await sim.delay(config_.advertise_interval);
      continue;
    }
    if (resilience_.client.enabled && !advertise_breaker_.allow(sim.now())) {
      // Breaker open toward the Manager: skip the whole beat — including
      // the collection CPU — instead of building ads a dead or drowning
      // head node will drop anyway.
      co_await sim.delay(config_.advertise_interval);
      continue;
    }
    classad::ClassAd ad;
    {
      auto lease = co_await thread_.acquire();
      ad = co_await collect();
    }
    double bytes = std::max(ad.wire_bytes(), config_.min_ad_bytes);
    bool delivered = co_await manager.advertise(nic_, std::move(ad), bytes);
    if (resilience_.client.enabled) {
      advertise_breaker_.record(sim.now(), delivered);
    }
    co_await sim.delay(config_.advertise_interval);
  }
}

Advertiser::Advertiser(net::Network& net, host::Host& host,
                       net::Interface& nic, std::string machine_name,
                       int modules, double interval, double jitter)
    : net_(net),
      host_(host),
      nic_(nic),
      machine_(std::move(machine_name)),
      modules_(modules),
      interval_(interval),
      jitter_(jitter) {}

void Advertiser::start(Manager& manager) {
  if (running_) return;
  running_ = true;
  host_.simulation().spawn(loop(manager));
}

sim::Task<void> Advertiser::loop(Manager& manager) {
  auto& sim = host_.simulation();
  // Deterministic phase offset so a thousand advertisers do not fire in
  // the same event tick.
  double phase = static_cast<double>(std::hash<std::string>{}(machine_) %
                                     100000) /
                 100000.0 * interval_ * std::max(jitter_, 1.0);
  co_await sim.delay(phase);

  auto specs = scaled_modules(modules_);
  while (running_) {
    ++sequence_;
    std::vector<classad::ClassAd> parts;
    parts.reserve(specs.size());
    for (const auto& mod : specs) parts.push_back(run_module(mod, sequence_));
    classad::ClassAd ad = build_startd_ad(machine_, std::move(parts));
    // hawkeye_advertise is a lightweight sender: tiny CPU, no daemon.
    co_await host_.cpu().consume(0.002);
    double bytes = std::max(ad.wire_bytes(), 5000.0);
    co_await manager.advertise(nic_, std::move(ad), bytes);
    ++ads_sent_;
    co_await sim.delay(interval_);
  }
}

}  // namespace gridmon::hawkeye
