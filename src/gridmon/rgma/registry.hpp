#pragma once

/// \file registry.hpp
/// The R-GMA Registry: an RDBMS-backed directory of Producers. Producers
/// advertise (table name, predicate, hosting servlet) with soft-state
/// leases; Consumers (via their ConsumerServlet) look up which producers
/// can answer a SQL query. Implemented, as in R-GMA 1.18, as a Java
/// servlet in front of a SQL database — which is why its per-request CPU
/// cost is the highest of the three systems studied.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gridmon/host/host.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/rdbms/database.hpp"
#include "gridmon/sim/resource.hpp"
#include "gridmon/sim/task.hpp"
#include "gridmon/store/table_store.hpp"

namespace gridmon::rgma {

/// `stale`: the rows predate the last publisher activity gap.
struct RgmaReply : net::Outcome {
  std::size_t rows = 0;
};

struct ProducerInfo {
  std::string producer;  // unique producer name
  std::string table;     // relation it publishes
  std::string servlet;   // ProducerServlet hosting it
  std::string predicate; // fixed-attribute predicate it declared
};

struct RegistryConfig {
  /// Effective servlet-container concurrency (the DB serializes most of
  /// the request anyway).
  int pool_size = 4;
  int backlog = 300;
  /// Java client-side API overhead per call.
  double client_latency = 0.15;
  /// Servlet + JDBC CPU per request (thread spawn, XML/HTTP handling).
  double query_base_cpu = 0.22;
  /// Non-CPU blocking time per request in the servlet container.
  double servlet_latency = 0.1;
  /// CPU to process one soft-state (re-)registration.
  double register_cpu = 0.02;
  /// CPU per row the RDBMS examines.
  double row_cpu = 0.0004;
  double request_bytes = 600;
  double row_bytes = 160;
  double lease_seconds = 120;
  double sweep_interval = 30;
  /// Client/transfer patience on a dead path (blackholed SYN, partitioned
  /// WAN). Only consulted under faults.
  double connect_timeout = 75.0;
  /// Durability of the producer directory. Volatile reproduces the paper
  /// (R-GMA 1.18's in-memory registry DB); wal / wal+snapshot persist the
  /// producers table through the host disk and replay it on restart.
  store::StoreConfig store;
};

class Registry {
 public:
  Registry(net::Network& net, host::Host& host, net::Interface& nic,
           RegistryConfig config = {});

  host::Host& host() noexcept { return host_; }
  net::Interface& nic() noexcept { return nic_; }
  net::ServerPort& port() noexcept { return port_; }
  rdbms::Database& database() noexcept { return db_; }

  /// (Re-)register a producer; refreshes its lease.
  sim::Task<bool> register_producer(net::Interface& from,
                                    ProducerInfo info);

  /// Which producers can answer queries on `table`? Used by
  /// ConsumerServlets during mediation.
  sim::Task<std::vector<ProducerInfo>> lookup(net::Interface& from,
                                              std::string table,
                                              trace::Ctx ctx = {});

  /// A user querying the Registry directly (the paper's Experiment 2
  /// directory-server workload).
  sim::Task<RgmaReply> client_query(net::Interface& client,
                                    std::string table, trace::Ctx ctx = {});

  /// Attach resource timelines ("registry.pool") to a trace collector.
  void instrument(trace::Collector& col) {
    pool_.set_probe(&col.track("registry.pool"));
  }

  /// Begin the periodic expired-lease sweep.
  void start_sweeper();

  std::size_t registered_count();
  std::uint64_t registrations() const noexcept { return registrations_; }

  /// Durability engine behind the producers table (null when volatile).
  const store::Log* store_log() const noexcept {
    return store_ ? &store_->log() : nullptr;
  }
  /// Absolute sim time when the directory re-converged to its pre-crash
  /// row count after the most recent crash (-1 until it happens). Durable
  /// modes get there via replay; volatile waits for lease renewals.
  double recovered_at() const noexcept { return recovered_at_; }

  // ---- fault injection ----
  /// Crash the Registry servlet container (blackhole: host gone). The
  /// in-memory producer table dies with the process; the StableImage in
  /// the store (if durability is on) survives for restart() to replay.
  void crash(bool blackhole = false);
  void restart();
  bool process_up() const noexcept { return port_.up(); }

 private:
  sim::Task<void> sweeper_loop();
  sim::Task<void> recover_then_restart();
  void note_recovery_progress();
  sim::Task<rdbms::QueryResult> run_lookup(std::string table,
                                           trace::Ctx ctx = {});

  net::Network& net_;
  host::Host& host_;
  net::Interface& nic_;
  RegistryConfig config_;
  rdbms::Database db_;
  sim::Resource pool_;
  net::ServerPort port_;
  net::Exchange exchange_{net_, nic_, port_, config_.client_latency,
                          config_.connect_timeout, "registry"};
  std::uint64_t registrations_ = 0;
  std::unique_ptr<store::TableStore> store_;
  std::size_t rows_at_crash_ = 0;
  bool awaiting_recovery_ = false;
  double recovered_at_ = -1;
};

}  // namespace gridmon::rgma
