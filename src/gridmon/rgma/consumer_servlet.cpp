#include "gridmon/rgma/consumer_servlet.hpp"

#include <set>

namespace gridmon::rgma {

ConsumerServlet::ConsumerServlet(net::Network& net, host::Host& host,
                                 net::Interface& nic, std::string name,
                                 Registry& registry,
                                 ConsumerServletConfig config)
    : net_(net),
      host_(host),
      nic_(nic),
      name_(std::move(name)),
      registry_(registry),
      config_(config),
      pool_(host.simulation(), config.pool_size),
      port_(host.simulation(), config.backlog) {}

void ConsumerServlet::add_producer_servlet(ProducerServlet& servlet) {
  servlets_[servlet.name()] = &servlet;
}

bool ConsumerServlet::producer_allowed(const std::string& servlet) {
  if (!resilience_.client.enabled) return true;
  auto [it, inserted] = producer_breakers_.try_emplace(
      servlet, resilience::CircuitBreaker(resilience_.client.breaker));
  return it->second.allow(host_.simulation().now());
}

void ConsumerServlet::record_producer(const std::string& servlet,
                                      bool success) {
  if (!resilience_.client.enabled) return;
  auto it = producer_breakers_.find(servlet);
  if (it != producer_breakers_.end()) {
    it->second.record(host_.simulation().now(), success);
  }
}

sim::Task<RgmaReply> ConsumerServlet::query(net::Interface& client,
                                            std::string table,
                                            std::string where,
                                            trace::Ctx ctx) {
  auto& sim = host_.simulation();
  RgmaReply reply;
  net::AdmissionSlot slot =
      co_await exchange_.open(client, config_.request_bytes, ctx, reply);
  if (!slot) co_return reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, name_);
    auto lease = co_await pool_.acquire();
    wait.end();
    {
      trace::Span cpu(ctx, trace::SpanKind::Cpu, "query_base",
                      config_.query_base_cpu);
      co_await host_.cpu().consume(config_.query_base_cpu);
    }
    {
      trace::Span servlet(ctx, trace::SpanKind::Servlet);
      co_await sim.delay(config_.servlet_latency);
    }

    // Mediation step 1: which producers hold this table?
    auto producers = co_await registry_.lookup(nic_, table, ctx);

    // Step 2: query each hosting servlet once.
    std::set<std::string> seen;
    for (const auto& info : producers) {
      if (!seen.insert(info.servlet).second) continue;
      auto it = servlets_.find(info.servlet);
      if (it == servlets_.end()) continue;
      if (!producer_allowed(info.servlet)) {
        // Breaker open toward this producer: skip it this round instead
        // of stalling the mediation on a dead servlet's timeout.
        reply.failed = true;
        continue;
      }
      RgmaReply part = co_await it->second->select(nic_, table, where, ctx);
      record_producer(info.servlet,
                      part.admitted && !part.timed_out && !part.failed);
      if (!part.admitted) {
        // A dead ProducerServlet shrinks the merged result silently —
        // mediation degrades rather than fails outright.
        if (part.timed_out || part.failed) reply.failed = true;
        continue;
      }
      if (part.stale) reply.stale = true;
      reply.rows += part.rows;
      reply.response_bytes += part.response_bytes;
    }
    {
      trace::Span merge(ctx, trace::SpanKind::Merge, name_,
                        static_cast<double>(reply.rows));
      co_await host_.cpu().consume(config_.merge_row_cpu *
                                   static_cast<double>(reply.rows));
    }
    reply.response_bytes += 128;
    reply.admitted = true;
    if (reply.rows > 0) reply.failed = false;  // partial results still count
  }
  co_await exchange_.respond(client, ctx, reply);
  co_return reply;
}

sim::Task<bool> ConsumerServlet::subscribe(
    net::Interface& consumer, std::string table,
    std::string predicate, ProducerServlet::RowCallback on_row) {
  co_await net_.transfer(consumer, nic_, config_.request_bytes);
  auto lease = co_await pool_.acquire();
  co_await host_.cpu().consume(config_.query_base_cpu);
  auto producers = co_await registry_.lookup(nic_, table);
  bool any = false;
  std::set<std::string> seen;
  for (const auto& info : producers) {
    if (!seen.insert(info.servlet).second) continue;
    auto it = servlets_.find(info.servlet);
    if (it == servlets_.end()) continue;
    // The producer pushes straight to the consumer's interface.
    it->second->subscribe(consumer, table, predicate, on_row);
    any = true;
  }
  co_return any;
}

}  // namespace gridmon::rgma
