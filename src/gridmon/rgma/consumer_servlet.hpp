#pragma once

/// \file consumer_servlet.hpp
/// The R-GMA ConsumerServlet: mediates a Consumer's SQL query — consults
/// the Registry for suitable Producers, queries their ProducerServlets,
/// merges the rows, and returns them. Also brokers streaming
/// subscriptions (the push model MDS lacks).

#include <functional>
#include <map>
#include <string>

#include "gridmon/host/host.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/rgma/producer_servlet.hpp"
#include "gridmon/rgma/registry.hpp"
#include "gridmon/sim/resource.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::rgma {

struct ConsumerServletConfig {
  int pool_size = 4;
  int backlog = 40;
  /// Java consumer API overhead per call on the client side.
  double client_latency = 0.1;
  /// Servlet CPU per mediated query.
  double query_base_cpu = 0.12;
  /// Non-CPU blocking time per request in the servlet container.
  double servlet_latency = 0.25;
  /// CPU per merged row.
  double merge_row_cpu = 0.0002;
  double request_bytes = 600;
  double row_bytes = 120;
  /// Client/transfer patience on a dead path (blackholed SYN, partitioned
  /// WAN). Only consulted under faults.
  double connect_timeout = 75.0;
};

class ConsumerServlet {
 public:
  ConsumerServlet(net::Network& net, host::Host& host, net::Interface& nic,
                  std::string name, Registry& registry,
                  ConsumerServletConfig config = {});

  const std::string& name() const noexcept { return name_; }
  host::Host& host() noexcept { return host_; }
  net::Interface& nic() noexcept { return nic_; }
  net::ServerPort& port() noexcept { return port_; }

  /// Install the overload-control layer: server policy on the listen
  /// port, a per-ProducerServlet circuit breaker on the mediation fan-out.
  void set_resilience(const resilience::Config& config) {
    resilience_ = config;
    port_.set_policy(config.server);
  }

  /// Make a ProducerServlet resolvable by the name the Registry returns.
  void add_producer_servlet(ProducerServlet& servlet);

  /// Full mediated pull query for `table` on behalf of a consumer at
  /// `client`.
  sim::Task<RgmaReply> query(net::Interface& client,
                             std::string table,
                             std::string where = "", trace::Ctx ctx = {});

  /// Attach resource timelines ("<name>.pool") to a trace collector.
  void instrument(trace::Collector& col) {
    pool_.set_probe(&col.track(name_ + ".pool"));
  }

  /// Set up a streaming subscription: rows of `table` matching
  /// `predicate` flow producer -> consumer as they are published.
  sim::Task<bool> subscribe(net::Interface& consumer,
                            std::string table,
                            std::string predicate,
                            ProducerServlet::RowCallback on_row);

  // ---- fault injection ----
  /// Crash the ConsumerServlet container (blackhole: host gone). It holds
  /// no monitoring state of its own, so restart is immediate.
  void crash(bool blackhole = false) { port_.crash(blackhole); }
  void restart() { port_.restart(); }
  bool process_up() const noexcept { return port_.up(); }

 private:
  /// Per-producer circuit breaker (pass-throughs while client disabled).
  bool producer_allowed(const std::string& servlet);
  void record_producer(const std::string& servlet, bool success);

  net::Network& net_;
  host::Host& host_;
  net::Interface& nic_;
  std::string name_;
  Registry& registry_;
  ConsumerServletConfig config_;
  std::map<std::string, ProducerServlet*> servlets_;
  sim::Resource pool_;
  net::ServerPort port_;
  net::Exchange exchange_{net_, nic_, port_, config_.client_latency,
                          config_.connect_timeout, name_};
  resilience::Config resilience_{};
  std::map<std::string, resilience::CircuitBreaker> producer_breakers_;
};

}  // namespace gridmon::rgma
