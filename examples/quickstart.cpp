/// Quickstart: build the paper's testbed, stand up one MDS GRIS with ten
/// information providers, point fifty simulated users at it, and print
/// the four metrics of the study (throughput, response time, load1, CPU).
///
///   $ ./examples/quickstart

#include <iostream>

#include "gridmon/core/experiment.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"

using namespace gridmon;

int main() {
  // The Lucky testbed (7 dual-CPU nodes at ANL) plus 20 client machines
  // at UChicago, joined by a WAN — all simulated, fully deterministic.
  core::Testbed testbed;

  // A GRIS on lucky7 with the default 10 information providers, caching
  // enabled (the paper's fast configuration). Every deployment the study
  // measures is described by a ScenarioSpec, assembled and validated by
  // its builder, and built by make_scenario.
  core::ScenarioSpec spec =
      core::ScenarioSpec::build().service(core::ServiceKind::Gris).build();
  auto scenario = core::make_scenario(testbed, spec);
  scenario->prefill();

  // Fifty users at UChicago, each looping: query, wait 1 s, repeat. The
  // factory already bound the canonical query for the service.
  core::UserWorkload users(testbed, scenario->query_fn());
  users.spawn_users(50, testbed.uc_names());

  // Ganglia-style sampling at 5 s, then a 10-minute measured window
  // after a 2-minute warm-up.
  testbed.sampler().start();
  core::MetricsReport p = core::measure(testbed, users, spec.server_host(), 50);

  std::cout << "MDS GRIS (cache), 50 concurrent users, 10-minute average:\n"
            << "  throughput     " << p.throughput << " queries/sec\n"
            << "  response time  " << p.response << " sec\n"
            << "  load1          " << p.load1 << "\n"
            << "  cpu load       " << p.cpu << " %\n"
            << "  queries done   " << users.completions().size() << "\n";

  // The simulation is deterministic: run it twice and the numbers match.
  return 0;
}
