#pragma once

/// \file giis.hpp
/// Grid Index Information Service: the MDS aggregate directory. Any
/// MdsNode — a GRIS *or another GIIS* — registers with soft state; the
/// GIIS pulls registrant data on cache miss (controlled by `cachettl`)
/// and answers LDAP searches over the aggregated tree. Implementing
/// MdsNode itself makes multi-level hierarchies (paper Figure 1, and the
/// fix proposed in §3.6) a first-class deployment.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gridmon/host/host.hpp"
#include "gridmon/ldap/dit.hpp"
#include "gridmon/mds/gris.hpp"
#include "gridmon/mds/node.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/sim/event.hpp"
#include "gridmon/sim/resource.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::mds {

struct GiisConfig {
  int pool_size = 4;
  int backlog = 512;
  /// grid-info-search startup + GSI latency on the client side.
  double client_tool_latency = 1.2;
  double query_base_cpu = 0.004;
  double examine_cpu_per_entry = 0.00005;
  double serialize_cpu_per_entry = 0.00012;
  /// CPU to process one incoming soft-state registration message.
  double registration_cpu = 0.008;
  double registration_bytes = 512;
  /// Registrations older than this many seconds age out (soft state).
  double registration_ttl = 90.0;
  /// How long pulled registrant data stays fresh. The paper's
  /// directory-server experiments set this "to a very large value so
  /// that the data was always in the cache".
  double cachettl = 1e18;
  /// CPU to merge one fetched entry into the aggregate DIT.
  double merge_cpu_per_entry = 0.0002;
  /// Give up on registrants that have not answered a cache pull after
  /// this long (LDAP operation timeout); their old data is kept out of
  /// this refresh and retried on the next one.
  double fetch_timeout = 60.0;
  double request_bytes = 512;
  /// Re-registration period when this GIIS registers upward to a parent.
  double upward_registration_interval = 30.0;
  /// Client/transfer patience on a dead path (blackholed SYN, partitioned
  /// WAN). Only consulted under faults.
  double connect_timeout = 75.0;
};

class Giis final : public MdsNode {
 public:
  Giis(net::Network& net, host::Host& host, net::Interface& nic,
       std::string name, GiisConfig config = {});

  const std::string& name() const noexcept { return name_; }
  host::Host& host() noexcept { return host_; }
  net::Interface& nic() noexcept { return nic_; }
  net::ServerPort& port() noexcept { return port_; }

  /// Install the overload-control layer: server policy on the listen
  /// port, serve-stale for the aggregate cache, and a per-registrant
  /// circuit breaker on the GIIS->GRIS fetch fan-out.
  void set_resilience(const resilience::Config& config) {
    resilience_ = config;
    port_.set_policy(config.server);
  }

  /// Register a node (GRIS or child GIIS) and start its periodic
  /// soft-state re-registration. The node must outlive this Giis.
  void add_registrant(MdsNode& node);

  /// Stop a registrant's re-registration loop (simulates death); its
  /// registration then ages out after registration_ttl.
  void kill_registrant(const std::string& node_name);

  std::size_t live_registrant_count() const;
  std::size_t entry_count() const noexcept { return dit_.size(); }
  std::uint64_t registrations_processed() const noexcept {
    return registrations_;
  }

  /// Full client query (tool latency + connect + admission + serve).
  sim::Task<MdsReply> query(net::Interface& client,
                            QueryScope scope = QueryScope::All,
                            trace::Ctx ctx = {});

  /// General LDAP search against the aggregate tree (caller-supplied
  /// filter, attribute selection, size limit).
  sim::Task<MdsReply> search(net::Interface& client, SearchRequest request,
                             trace::Ctx ctx = {});

  /// Attach resource timelines ("<name>.pool") to a trace collector.
  void instrument(trace::Collector& col) {
    pool_.set_probe(&col.track(name_ + ".pool"));
  }

  // ---- MdsNode (this GIIS registering to a parent GIIS) ----
  const std::string& node_name() const override { return name_; }
  const ldap::Dn& suffix() const override { return vo_dn_; }
  ldap::Entry suffix_entry() const override;
  net::Interface& registration_nic() override { return nic_; }
  double registration_interval() const override {
    return config_.upward_registration_interval;
  }
  /// Server-to-server pull of this GIIS's whole aggregate (hosts, VOs
  /// and devices). Refreshes this level's own cache first, so pulls
  /// cascade down a multi-level hierarchy.
  sim::Task<MdsReply> fetch(net::Interface& requester,
                            trace::Ctx ctx = {}) override;
  bool node_up() const override { return port_.up(); }

  // ---- fault injection ----
  /// Crash the slapd: the aggregate DIT and registration table are
  /// volatile, so restart comes back with an empty tree and re-learns
  /// registrants from their next soft-state beats.
  void crash(bool blackhole = false);
  void restart() { port_.restart(); }
  bool process_up() const noexcept { return port_.up(); }

 private:
  struct Registrant {
    MdsNode* node;
    double expires_at = 0;
    bool alive = true;      // re-registration loop running
    bool fetched = false;   // data currently merged into the DIT
  };

  sim::Task<void> registration_loop(MdsNode& node);
  sim::Task<void> serve_registration(MdsNode& node);

  /// Pull data from every live registrant whose cache slice is stale.
  /// Returns true when the refresh was skipped under shed pressure and
  /// the (expired) aggregate was served stale instead.
  sim::Task<bool> refresh_cache(trace::Ctx ctx);

  /// Per-registrant circuit breaker on the fetch fan-out (pass-throughs
  /// while the client policy is disabled).
  bool fetch_allowed(const std::string& node);
  void record_fetch(const std::string& node, bool success);

  /// Merge one fetch result under the node's suffix.
  sim::Task<void> merge_payload(MdsNode& node, MdsReply reply,
                                trace::Ctx ctx);

  /// Drop registrations (and their subtrees) that have aged out.
  void sweep();

  ldap::FilterPtr scope_filter(QueryScope scope) const;

  net::Network& net_;
  host::Host& host_;
  net::Interface& nic_;
  std::string name_;
  ldap::Dn vo_dn_;
  GiisConfig config_;
  std::map<std::string, Registrant> registrants_;
  ldap::Dit dit_;
  double cache_fresh_until_ = -1;
  bool refreshing_ = false;
  sim::Event refresh_done_;
  sim::Resource pool_;
  net::ServerPort port_;
  net::Exchange exchange_{net_, nic_, port_, config_.client_tool_latency,
                          config_.connect_timeout, name_};
  std::uint64_t registrations_ = 0;
  resilience::Config resilience_{};
  std::map<std::string, resilience::CircuitBreaker> fetch_breakers_;
};

}  // namespace gridmon::mds
