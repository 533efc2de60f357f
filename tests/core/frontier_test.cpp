/// FrontierWorkload golden-determinism tests: the sharded engine's
/// results must be byte-identical across shard counts (K=1 vs K=3) and
/// across reruns, per seed — the tentpole property of the sharded
/// conservative-lookahead engine (docs/SCALE.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "gridmon/core/frontier.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"

using namespace gridmon;
using core::FrontierConfig;
using core::FrontierWorkload;

namespace {

/// One complete sharded run: fresh testbed, GRIS scenario, `users`
/// frontier users on K shards, one 10+30 s window. Returns the full
/// observable surface as text at round-trip precision: the metrics row,
/// the counters, and every completion. `fc` carries the user-model knobs
/// (think time, retry ladder); the engine fields are set here.
std::string run_digest(int users, int shards, std::uint64_t seed,
                       int gris_backlog = 0, FrontierConfig fc = {}) {
  core::TestbedConfig tc;
  tc.seed = seed;
  core::Testbed tb(tc);
  core::ScenarioSpec spec;
  spec.service = core::ServiceKind::Gris;
  spec.gris_backlog = gris_backlog;
  auto scenario = core::make_scenario(tb, spec);
  scenario->prefill();
  fc.shards = shards;
  fc.admission_port = scenario->server_port();
  fc.server_host = spec.server_host();
  FrontierWorkload fw(tb, scenario->query_fn(), fc);
  fw.spawn_users(users);
  tb.sampler().start();
  core::MetricsReport p =
      fw.measure_window(users, 10.0, 30.0, spec.server_host());

  std::ostringstream out;
  out.precision(17);
  core::write_csv_row(out, p, core::kMetricAll);
  out << "\nqueries=" << fw.total_queries()
      << " attempts=" << fw.total_attempts()
      << " refused=" << fw.refused_attempts()
      << " fast=" << fw.fast_refused()
      << " errors=" << fw.error_count()
      << " messages=" << fw.messages_delivered() << "\n";
  for (const auto& c : fw.merged_completions()) {
    out << c.t << ' ' << c.uid << ' ' << c.response_time << ' ' << c.bytes
        << ' ' << c.stale << '\n';
  }
  return out.str();
}

/// The `shards` column of the metrics row necessarily differs between
/// shard counts; splice it out (it is the last CSV column).
std::string normalize(const std::string& s) {
  auto nl = s.find('\n');
  auto comma = s.rfind(',', nl);
  return s.substr(0, comma) + s.substr(nl);
}

/// 64-bit FNV-1a of a digest, as 16 hex digits: short enough to pin.
std::string pin(const std::string& digest) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : digest) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

/// K=1 and K=3 must produce identical bytes: same completions, same
/// float sums, same message counts modulo the shard column.
TEST(FrontierDeterminism, ShardCountDoesNotChangeResults) {
  for (std::uint64_t seed : {42ull, 7ull}) {
    std::string k1 = run_digest(300, 1, seed);
    std::string k3 = run_digest(300, 3, seed);
    EXPECT_EQ(normalize(k1), normalize(k3)) << "seed " << seed;
    EXPECT_NE(k1.substr(0, k1.find('\n')), "");
  }
}

TEST(FrontierDeterminism, RerunIsByteIdentical) {
  EXPECT_EQ(run_digest(200, 2, 42), run_digest(200, 2, 42));
}

TEST(FrontierDeterminism, SeedsDiverge) {
  EXPECT_NE(run_digest(200, 2, 42), run_digest(200, 2, 43));
}

/// A tiny listen backlog saturates the port, so the batched refusal
/// fast path (frontier.cpp flush_requests) carries most attempts; its
/// cohorts must be shard-count-independent too.
TEST(FrontierDeterminism, SaturatedFastPathIsShardInvariant) {
  std::string k1 = run_digest(300, 1, 42, /*gris_backlog=*/4);
  std::string k3 = run_digest(300, 3, 42, /*gris_backlog=*/4);
  EXPECT_EQ(normalize(k1), normalize(k3));
  // The run must actually have exercised the batched path.
  EXPECT_EQ(k1.find(" fast=0 "), std::string::npos)
      << "expected fast-path refusals, digest: "
      << k1.substr(0, k1.find('\n', k1.find('\n') + 1));
}

/// The client shards' timer firing order, pinned to digests recorded
/// from the binary-heap timer queue that preceded the calendar queue:
/// any change in which user fires when shows up here without a
/// perfbench run.
TEST(FrontierDeterminism, MatchesRecordedDigests) {
  EXPECT_EQ(pin(run_digest(300, 1, 42)), "480bb644f87104c7");
  EXPECT_EQ(pin(run_digest(300, 1, 42, /*gris_backlog=*/4)),
            "cd3cfa8f28012b46");
}

/// A think time below the lookahead (5 ms here) re-arms users into the
/// calendar bucket that is already open and sorted.
TEST(FrontierDeterminism, ThinkTimeBelowLookaheadKeepsOrder) {
  FrontierConfig fc;
  fc.think_time = 0.002;
  std::string k1 = run_digest(300, 1, 42, 0, fc);
  EXPECT_EQ(normalize(k1), normalize(run_digest(300, 3, 42, 0, fc)));
  EXPECT_EQ(pin(k1), "02571a89d1ad9c92");
}

/// A 200 s retry step needs more than the calendar's bucket cap at
/// lookahead-wide buckets, so the shard widens its buckets instead.
TEST(FrontierDeterminism, WideRetryStepKeepsOrder) {
  FrontierConfig fc;
  fc.retry_schedule = {3, 200};
  std::string k1 = run_digest(300, 1, 42, /*gris_backlog=*/4, fc);
  EXPECT_EQ(normalize(k1),
            normalize(run_digest(300, 3, 42, /*gris_backlog=*/4, fc)));
  EXPECT_EQ(pin(k1), "fe9a1f20f5a51bc4");
}

TEST(FrontierWorkloadApi, RejectsBadConfigs) {
  core::Testbed tb;
  core::ScenarioSpec spec;
  spec.service = core::ServiceKind::Gris;
  auto scenario = core::make_scenario(tb, spec);
  FrontierConfig zero;
  zero.shards = 0;
  EXPECT_THROW(FrontierWorkload(tb, scenario->query_fn(), zero),
               std::invalid_argument);
  // The timer calendar is sized from the longest armable delay, so it
  // must be finite and no delay may point into the past.
  FrontierConfig endless;
  endless.think_time = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FrontierWorkload(tb, scenario->query_fn(), endless),
               std::invalid_argument);
  FrontierConfig backwards;
  backwards.retry_schedule = {3, -1};
  EXPECT_THROW(FrontierWorkload(tb, scenario->query_fn(), backwards),
               std::invalid_argument);
  // Shards always run serially; a thread count is never silently dropped.
  FrontierConfig threaded;
  threaded.threads = 2;
  EXPECT_THROW(FrontierWorkload(tb, scenario->query_fn(), threaded),
               std::invalid_argument);
  FrontierConfig ok;
  FrontierWorkload fw(tb, scenario->query_fn(), ok);
  EXPECT_THROW(fw.spawn_users(0), std::invalid_argument);
  // 20 UC hosts x 50 users is the default capacity.
  EXPECT_THROW(fw.spawn_users(1001), std::invalid_argument);
  fw.spawn_users(100);
  EXPECT_THROW(fw.spawn_users(100), std::logic_error);
  EXPECT_EQ(fw.users(), 100);
  EXPECT_GT(fw.lookahead(), 0.0);
}
