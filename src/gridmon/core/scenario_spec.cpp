#include "gridmon/core/scenario_spec.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "gridmon/core/adapters.hpp"
#include "gridmon/core/scenarios.hpp"

namespace gridmon::core {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

[[noreturn]] void bad_variant(const ScenarioSpec& spec) {
  throw ConfigError("service '" + spec.service_name() +
                    "' cannot answer the requested query variant");
}

/// Providers for a GRIS with the spec's overrides applied.
std::vector<mds::ProviderSpec> spec_providers(const ScenarioSpec& spec) {
  auto providers = default_providers(spec.collectors);
  for (auto& p : providers) {
    if (spec.provider_ttl > 0) p.cache_ttl = spec.provider_ttl;
    if (spec.provider_entries > 0) p.entries = spec.provider_entries;
    if (spec.provider_bytes > 0) p.bytes_per_entry = spec.provider_bytes;
  }
  return providers;
}

mds::QueryScope giis_scope(const ScenarioSpec& spec,
                           mds::QueryScope def) {
  switch (spec.query) {
    case QueryVariant::Default:
      return def;
    case QueryVariant::ScopeAll:
      return mds::QueryScope::All;
    case QueryVariant::ScopePart:
      return mds::QueryScope::Part;
    default:
      bad_variant(spec);
  }
}

}  // namespace

std::string ScenarioSpec::server_host() const {
  switch (service) {
    case ServiceKind::Gris:
    case ServiceKind::GrisNocache:
      return GrisScenario::kHost;
    case ServiceKind::Giis:
    case ServiceKind::GiisAggregate:
      return "lucky0";
    case ServiceKind::Hierarchy:
      // The flat series measures the root; the two-level series reports
      // one site server (the first mid lives on lucky1).
      return two_level ? "lucky1" : "lucky0";
    case ServiceKind::Agent:
      return "lucky4";
    case ServiceKind::Manager:
    case ServiceKind::ManagerAggregate:
    case ServiceKind::RgmaMediated:
    case ServiceKind::RgmaDirect:
    case ServiceKind::RgmaStandalone:
    case ServiceKind::RgmaComposite:
    case ServiceKind::StreamFanout:
    case ServiceKind::RgmaReplicated:
      return "lucky3";
    case ServiceKind::Registry:
      return "lucky1";
  }
  return "lucky0";
}

std::string ScenarioSpec::service_name() const {
  switch (service) {
    case ServiceKind::Gris:
      return "MDS GRIS (cache)";
    case ServiceKind::GrisNocache:
      return "MDS GRIS (nocache)";
    case ServiceKind::Giis:
      return "MDS GIIS";
    case ServiceKind::Agent:
      return "Hawkeye Agent";
    case ServiceKind::Manager:
      return "Hawkeye Manager";
    case ServiceKind::Registry:
      return "R-GMA Registry";
    case ServiceKind::RgmaMediated:
      return "R-GMA ProducerServlet (mediated)";
    case ServiceKind::RgmaDirect:
      return "R-GMA ProducerServlet (direct)";
    case ServiceKind::RgmaStandalone:
      return "R-GMA ProducerServlet (standalone)";
    case ServiceKind::GiisAggregate:
      return "MDS GIIS (aggregate)";
    case ServiceKind::ManagerAggregate:
      return "Hawkeye Manager (aggregate)";
    case ServiceKind::Hierarchy:
      return two_level ? "MDS GIIS (two-level)" : "MDS GIIS (flat)";
    case ServiceKind::RgmaComposite:
      return "R-GMA CompositeProducer";
    case ServiceKind::StreamFanout:
      return "R-GMA streaming fan-out";
    case ServiceKind::RgmaReplicated:
      return "R-GMA ProducerServlet (replicated)";
  }
  return "?";
}

namespace {

std::unique_ptr<Scenario> build_scenario(Testbed& tb,
                                         const ScenarioSpec& spec) {
  switch (spec.service) {
    case ServiceKind::Gris:
    case ServiceKind::GrisNocache: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      mds::GrisConfig gc;
      gc.cache_enabled = spec.service == ServiceKind::Gris;
      if (spec.gris_backlog > 0) gc.backlog = spec.gris_backlog;
      auto s = std::make_unique<GrisScenario>(tb, spec_providers(spec), gc);
      s->set_query(query_gris(*s->gris));
      return s;
    }
    case ServiceKind::Giis: {
      auto s = std::make_unique<GiisScenario>(
          tb, spec.gris_count, spec.collectors,
          spec.cachettl > 0 ? spec.cachettl : 1e18);
      s->set_query(
          query_giis(*s->giis, giis_scope(spec, mds::QueryScope::Part)));
      return s;
    }
    case ServiceKind::Agent: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      auto s = std::make_unique<AgentScenario>(tb, spec.collectors);
      s->set_query(query_agent(*s->agent));
      return s;
    }
    case ServiceKind::Manager: {
      hawkeye::ManagerConfig config;
      if (spec.manager_ad_lifetime > 0) {
        config.ad_lifetime = spec.manager_ad_lifetime;
      }
      if (spec.manager_stale_after > 0) {
        config.stale_after = spec.manager_stale_after;
      }
      config.store = spec.store;
      auto s = std::make_unique<ManagerScenario>(tb, spec.collectors, config);
      switch (spec.query) {
        case QueryVariant::Default:
          s->set_query(query_manager_status(*s->manager));
          break;
        case QueryVariant::ManagerDump:
          s->set_query(query_manager_dump(*s->manager));
          break;
        case QueryVariant::ManagerConstraint:
          s->set_query(query_manager_constraint(*s->manager, spec.constraint));
          break;
        default:
          bad_variant(spec);
      }
      return s;
    }
    case ServiceKind::Registry: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      rgma::RegistryConfig config;
      config.store = spec.store;
      auto s = std::make_unique<RegistryScenario>(
          tb, spec.servlets, spec.producers_each, std::move(config));
      s->set_query(query_registry(*s->registry, spec.table));
      return s;
    }
    case ServiceKind::RgmaMediated: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      auto s = std::make_unique<RgmaScenario>(
          tb, spec.collectors,
          spec.lucky_clients ? RgmaScenario::Consumers::PerLuckyNode
                             : RgmaScenario::Consumers::SingleAtUc);
      s->set_query(s->mediated_query(spec.table));
      return s;
    }
    case ServiceKind::RgmaDirect: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      auto s = std::make_unique<RgmaScenario>(tb, spec.collectors,
                                              RgmaScenario::Consumers::None);
      s->set_query(s->direct_query(spec.table));
      return s;
    }
    case ServiceKind::RgmaStandalone: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      rgma::ProducerServletConfig config;
      if (spec.ps_stale_after > 0) config.stale_after = spec.ps_stale_after;
      auto s = std::make_unique<StandaloneRgmaScenario>(
          tb, spec.collectors, config, spec.self_publish_interval);
      s->set_query(query_producer_servlet(*s->servlet, spec.table));
      return s;
    }
    case ServiceKind::GiisAggregate: {
      auto s = std::make_unique<GiisAggregationScenario>(tb, spec.gris_count,
                                                         spec.collectors);
      s->set_query(
          query_giis(*s->giis, giis_scope(spec, mds::QueryScope::All)));
      return s;
    }
    case ServiceKind::ManagerAggregate: {
      hawkeye::ManagerConfig config;
      config.store = spec.store;
      auto s = std::make_unique<ManagerAggregationScenario>(
          tb, spec.machines, spec.collectors, std::move(config));
      switch (spec.query) {
        case QueryVariant::Default:
        case QueryVariant::ManagerConstraint:
          // Worst case: a constraint no Startd ad satisfies forces a scan
          // of every resident ClassAd.
          s->set_query(query_manager_constraint(*s->manager, spec.constraint));
          break;
        case QueryVariant::ManagerDump:
          s->set_query(query_manager_dump(*s->manager));
          break;
        default:
          bad_variant(spec);
      }
      return s;
    }
    case ServiceKind::Hierarchy: {
      auto s = std::make_unique<HierarchyScenario>(
          tb, spec.gris_count, spec.two_level,
          spec.cachettl > 0 ? spec.cachettl : 45.0);
      bool routed = spec.query == QueryVariant::SiteRouted ||
                    (spec.query == QueryVariant::Default && spec.two_level);
      if (routed) {
        if (!spec.two_level) bad_variant(spec);
        s->set_query(s->site_routed_query());
      } else {
        s->set_query(
            query_giis(*s->root, giis_scope(spec, mds::QueryScope::Part)));
      }
      return s;
    }
    case ServiceKind::RgmaComposite: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      auto s = std::make_unique<CompositeScenario>(tb, spec.sources);
      auto* composite = s->composite.get();
      s->set_query([composite](net::Interface& client,
                               trace::Ctx) -> sim::Task<net::Outcome> {
        co_return co_await composite->client_query(client);
      });
      return s;
    }
    case ServiceKind::StreamFanout: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      // Push-only: no pull query to bind; query_fn() stays empty.
      return std::make_unique<FanoutScenario>(tb, spec.subscribers);
    }
    case ServiceKind::RgmaReplicated: {
      if (spec.query != QueryVariant::Default) bad_variant(spec);
      auto s = std::make_unique<ReplicatedRgmaScenario>(tb, spec.replicas,
                                                        spec.pool_size);
      s->set_query(s->balanced_query(spec.table));
      return s;
    }
  }
  throw ConfigError("unhandled service kind");
}

}  // namespace

std::unique_ptr<Scenario> make_scenario(Testbed& tb,
                                        const ScenarioSpec& spec) {
  auto s = build_scenario(tb, spec);
  if (spec.resilience.enabled) s->apply_resilience(spec.resilience);
  return s;
}

int checked_users_per_host(const ScenarioSpec& spec, int users,
                           int per_host) {
  if (per_host <= 0) per_host = spec.lucky_clients ? 100 : 50;
  const int hosts =
      spec.lucky_clients ? Testbed::kLuckyNodes : TestbedConfig{}.uc_clients;
  if (users > per_host * hosts) {
    throw ConfigError("users = " + std::to_string(users) + " exceeds " +
                      std::to_string(per_host * hosts) + ", the " +
                      std::to_string(per_host) + "-per-host cap on " +
                      std::to_string(hosts) + " " +
                      (spec.lucky_clients ? "lucky" : "uc") + " client hosts");
  }
  return per_host;
}

std::map<std::string, std::map<std::string, std::string>> parse_ini(
    const std::string& text) {
  std::map<std::string, std::map<std::string, std::string>> out;
  std::string section;
  std::stringstream ss(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(ss, raw)) {
    ++line_no;
    // Strip inline comments (';' or '#').
    std::size_t cut = raw.find_first_of(";#");
    std::string line = trim(cut == std::string::npos ? raw
                                                     : raw.substr(0, cut));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw ConfigError("line " + std::to_string(line_no) +
                          ": malformed section header");
      }
      section = lower(trim(line.substr(1, line.size() - 2)));
      out[section];
      continue;
    }
    std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("line " + std::to_string(line_no) +
                        ": expected key = value");
    }
    std::string key = lower(trim(line.substr(0, eq)));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw ConfigError("line " + std::to_string(line_no) +
                        ": empty key or value");
    }
    if (section.empty()) {
      throw ConfigError("line " + std::to_string(line_no) +
                        ": key before any [section]");
    }
    out[section][key] = value;
  }
  return out;
}

}  // namespace gridmon::core
