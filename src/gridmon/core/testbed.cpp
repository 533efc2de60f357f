#include "gridmon/core/testbed.hpp"

#include <iterator>
#include <stdexcept>

namespace gridmon::core {

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      net_(sim_),
      sampler_(sim_, config.sample_interval),
      rng_(config.seed) {
  net_.add_site({.name = "anl",
                 .nic_bandwidth_bytes_per_s = config_.lan_bandwidth_bytes,
                 .one_way_latency = config_.lan_latency});
  net_.add_site({.name = "uc",
                 .nic_bandwidth_bytes_per_s = config_.lan_bandwidth_bytes,
                 .one_way_latency = config_.lan_latency});
  net_.add_wan("anl", "uc",
               {.bandwidth_bytes_per_s = config_.wan_bandwidth_bytes,
                .one_way_latency = config_.wan_one_way_latency,
                .per_flow_cap_bytes_per_s = config_.wan_per_flow_cap});

  constexpr int kLuckyNumbers[] = {0, 1, 3, 4, 5, 6, 7};
  static_assert(std::size(kLuckyNumbers) == kLuckyNodes);
  for (int i : kLuckyNumbers) {
    std::string name = "lucky" + std::to_string(i);
    add_host(name, "anl", 2, 1133);
    lucky_.push_back(name);
  }
  for (int i = 1; i <= config_.uc_clients; ++i) {
    std::string name = (i < 10 ? "uc0" : "uc") + std::to_string(i);
    double mhz = (i <= config_.uc_fast_clients) ? 1208 : 756;
    add_host(name, "uc", 1, mhz);
    uc_.push_back(name);
  }
}

Testbed::~Testbed() {
  // Destroy all coroutine frames while hosts/NICs are still alive.
  sim_.shutdown();
}

host::Host& Testbed::add_host(const std::string& name,
                              const std::string& site, int cores,
                              double mhz) {
  auto host = std::make_unique<host::Host>(
      sim_, host::HostSpec{name, site, cores, mhz});
  host->attach(sampler_);
  net_.attach(name, site);
  auto [it, inserted] = hosts_.emplace(name, std::move(host));
  if (!inserted) throw std::invalid_argument("duplicate host: " + name);
  return *it->second;
}

host::Host& Testbed::host(const std::string& name) {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) {
    throw std::invalid_argument("unknown host: " + name);
  }
  return *it->second;
}

net::Interface& Testbed::nic(const std::string& name) {
  return net_.interface(name);
}

}  // namespace gridmon::core
