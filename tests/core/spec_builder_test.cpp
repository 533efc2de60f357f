/// SpecBuilder: validating ScenarioSpec construction. The point of the
/// API is that *every* problem is reported at once — setters and the
/// INI path record errors instead of throwing, and build() raises one
/// ConfigError listing them all.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gridmon/core/scenario_spec.hpp"

namespace gridmon::core {
namespace {

TEST(SpecBuilderTest, CleanBuildMatchesDirectConstruction) {
  ScenarioSpec spec = ScenarioSpec::build()
                          .service(ServiceKind::GrisNocache)
                          .collectors(40)
                          .users({10, 50, 100})
                          .lucky_clients(true)
                          .window(30, 120)
                          .seed(7)
                          .build();
  EXPECT_EQ(spec.service, ServiceKind::GrisNocache);
  EXPECT_EQ(spec.collectors, 40);
  EXPECT_EQ(spec.users, (std::vector<int>{10, 50, 100}));
  EXPECT_TRUE(spec.lucky_clients);
  EXPECT_DOUBLE_EQ(spec.warmup, 30);
  EXPECT_DOUBLE_EQ(spec.duration, 120);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.engine.shards, 0);  // legacy engine by default
}

TEST(SpecBuilderTest, CollectsEveryError) {
  SpecBuilder b;
  b.users({});            // empty sweep
  b.collectors(0);        // must be positive
  b.window(-1, 0);        // negative warmup, zero duration
  b.set("experiment", "service", "frobnicator");  // unknown service
  b.set("experiment", "srevice", "gris");         // typo'd key
  try {
    b.build();
    FAIL() << "build() should have thrown";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("6 errors"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown service 'frobnicator'"), std::string::npos);
    EXPECT_NE(msg.find("unknown key 'srevice'"), std::string::npos);
    EXPECT_NE(msg.find("at least one sweep point"), std::string::npos);
    EXPECT_NE(msg.find("collectors must be positive"), std::string::npos);
    EXPECT_NE(msg.find("warmup must be non-negative"), std::string::npos);
    EXPECT_NE(msg.find("duration must be positive"), std::string::npos);
  }
}

TEST(SpecBuilderTest, IniPathCollectsAllBadKeys) {
  // First-error parsing would stop at the first bad key; the builder
  // reports all three.
  const std::string ini =
      "[experiment]\n"
      "service = gris\n"
      "users = ten\n"
      "collectors = -3\n"
      "[store]\n"
      "mode = paranoid\n";
  try {
    parse_scenario_spec(ini);
    FAIL() << "parse_scenario_spec should have thrown";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad integer 'ten'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bad integer '-3'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown durability mode 'paranoid'"),
              std::string::npos)
        << msg;
  }
}

TEST(SpecBuilderTest, EngineSectionParses) {
  ScenarioSpec spec = parse_scenario_spec(
      "[experiment]\n"
      "service = gris\n"
      "[engine]\n"
      "shards = 8\n"
      "lookahead = 0.005\n");
  EXPECT_EQ(spec.engine.shards, 8);
  EXPECT_DOUBLE_EQ(spec.engine.lookahead, 0.005);
  EXPECT_TRUE(spec.engine.sharded());
}

TEST(SpecBuilderTest, EngineThreadsKeyIsUnknown) {
  // The sharded engine runs on one thread; the old knob is a typo now.
  try {
    parse_scenario_spec(
        "[experiment]\nservice = gris\n[engine]\nshards = 4\nthreads = 2\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'threads'"), std::string::npos) << msg;
  }
}

TEST(SpecBuilderTest, ShardedEngineRejectsUnsupportedCombinations) {
  // Push-only services have no pull query for the sharded frontier.
  EXPECT_THROW(ScenarioSpec::build()
                   .service(ServiceKind::StreamFanout)
                   .shards(4)
                   .build(),
               ConfigError);
  // Fault injection is a legacy-engine feature for now.
  EXPECT_THROW(parse_scenario_spec("[experiment]\nservice = gris\n"
                                   "[engine]\nshards = 4\n"
                                   "[faults]\ncrash = server, 30, 60\n"),
               ConfigError);
  fault::FaultPlan plan;
  plan.crash("server", 30, 60);
  EXPECT_THROW(
      ScenarioSpec::build().faults(std::move(plan)).shards(2).build(),
      ConfigError);
  // And so is the resilience layer.
  resilience::Config res;
  res.enabled = true;
  EXPECT_THROW(
      ScenarioSpec::build().resilience(res).shards(2).build(),
      ConfigError);
  // The frontier clients retry forever from the UC pool: the legacy
  // abandonment knobs and the lucky-client placement are rejected.
  EXPECT_THROW(ScenarioSpec::build().lucky_clients(true).shards(2).build(),
               ConfigError);
  EXPECT_THROW(ScenarioSpec::build().query_deadline(25).shards(2).build(),
               ConfigError);
  EXPECT_THROW(ScenarioSpec::build().max_attempts(5).shards(2).build(),
               ConfigError);
  // All knobs stay legal on the legacy engine.
  EXPECT_NO_THROW(
      ScenarioSpec::build().lucky_clients(true).query_deadline(25).build());
}

TEST(SpecBuilderTest, SeededFromExistingSpecPreset) {
  ScenarioSpec preset;
  preset.service = ServiceKind::Agent;
  preset.collectors = 11;
  ScenarioSpec spec = SpecBuilder(preset).seed(9).build();
  EXPECT_EQ(spec.service, ServiceKind::Agent);
  EXPECT_EQ(spec.collectors, 11);
  EXPECT_EQ(spec.seed, 9u);
}

/// The message `set(section, key, value)` records, or "" when it parses.
std::string integer_key_error(const std::string& section,
                              const std::string& key,
                              const std::string& value) {
  SpecBuilder b;
  b.set("experiment", "service", "gris");
  b.set(section, key, value);
  try {
    b.build();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(SpecBuilderTest, IntegerKeysRejectFractionsExponentsAndOverflow) {
  const std::vector<std::pair<std::string, std::string>> keys{
      {"experiment", "seed"}, {"faults", "max_attempts"}, {"engine", "shards"}};
  for (const auto& [section, key] : keys) {
    const std::string tag = "[" + section + "] " + key + ":";
    for (const std::string value :
         {"2.9", "1e30", "1e12", "-1", "0x10", "abc", ""}) {
      std::string msg = integer_key_error(section, key, value);
      EXPECT_NE(msg.find(tag), std::string::npos)
          << tag << " '" << value << "' gave: " << msg;
    }
  }
  // In range for seed (uint64), out of range for the int keys.
  EXPECT_EQ(integer_key_error("experiment", "seed", "18446744073709551615"),
            "");
  EXPECT_NE(integer_key_error("experiment", "seed", "18446744073709551616"),
            "");
  EXPECT_NE(integer_key_error("faults", "max_attempts", "2147483648"), "");
  EXPECT_NE(integer_key_error("engine", "shards", "2147483648"), "");
}

TEST(SpecBuilderTest, IntegerKeysParseWholeNumbers) {
  ScenarioSpec spec = parse_scenario_spec(
      "[experiment]\nservice = gris\nseed = 18446744073709551615\n"
      "[faults]\nmax_attempts = 0\n[engine]\nshards = 0\n");
  EXPECT_EQ(spec.seed, 18446744073709551615ULL);
  EXPECT_EQ(spec.max_attempts, 0);
  EXPECT_EQ(spec.engine.shards, 0);
  spec = parse_scenario_spec(
      "[experiment]\nservice = gris\nseed = 7\n[engine]\nshards = 3\n");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.engine.shards, 3);
  spec = parse_scenario_spec(
      "[experiment]\nservice = gris\n[faults]\nmax_attempts = 5\n");
  EXPECT_EQ(spec.max_attempts, 5);
}

TEST(SpecBuilderTest, WhereTagPrefixesIniErrors) {
  SpecBuilder b;
  b.set("experiment", "users", "zero", "line 3");
  try {
    b.build();
    FAIL() << "build() should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: [experiment] users:"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpecBuilderTest, StoreValidationStillApplies) {
  store::StoreConfig wal;
  wal.mode = store::DurabilityMode::Wal;
  EXPECT_THROW(ScenarioSpec::build()
                   .service(ServiceKind::Gris)
                   .store(wal)
                   .build(),
               ConfigError);
  EXPECT_NO_THROW(ScenarioSpec::build()
                      .service(ServiceKind::Registry)
                      .store(wal)
                      .build());
}

}  // namespace
}  // namespace gridmon::core
