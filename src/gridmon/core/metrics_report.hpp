#pragma once

/// \file metrics_report.hpp
/// The typed metrics row shared by every bench, tool and test: one
/// named-field struct (core::MetricsReport) plus a column schema that
/// drives a single CSV/JSON serializer. Adding a metric is a one-site
/// change — add the field, add a schema row, and every emitter (the
/// bench CSVs, gridmon_run, BENCH_*.json writers, the golden tests)
/// picks it up through the schema instead of re-interpreting positions.
///
/// Columns are organised in groups so emitters keep their historical
/// layouts byte-identical: the core group reproduces the original
/// 6-column bench CSV exactly, and the optional groups append in a
/// fixed order.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace gridmon::core {

/// One sweep point of a figure, with every metric a named field.
/// Replaces the positional row each bench used to re-interpret.
struct MetricsReport {
  double x = 0;           // users / collectors / information servers
  double throughput = 0;  // queries per second
  double response = 0;    // seconds
  double load1 = 0;       // one-minute load average
  double cpu = 0;         // percent
  double refused = 0;     // refused connection attempts per second
  double availability = 1;  // completed / (completed + abandoned) queries
  double error_rate = 0;    // timeouts + failures + abandonments per second
  double stale_frac = 0;    // fraction of completions flagged stale
  double recovery = 0;      // first answered query past recovery_mark (-1:
                            // never) — service reachability
  double recovery_complete = 0;  // state re-converged past recovery_mark
                                 // (-1: never/unknown) — data recovery
  double goodput = 0;    // timely completions/s (== throughput without a
                         // goodput deadline); stale answers still count —
                         // answer quality is tracked by stale_frac
  double shed_rate = 0;  // deadline-shed admissions per second
  double retry_amp = 0;  // attempts per started query over the window
                         // (1.0 = no retries)

  // ---- engine stats (measure() counts events; the wall-clock fields
  // are filled by the bench harness: wall-clock measurement is banned
  // inside src/gridmon by the determinism contract) ----
  double events = 0;          // simulator events processed over the run
  double wall_clock_s = 0;    // host wall-clock seconds for the run
  double events_per_sec = 0;  // events / wall_clock_s
  double peak_rss_kb = -1;    // per-point peak RSS (-1: not measured)
  double shards = 1;          // event-queue shards the run used
};

/// Column groups, in the order they append to a CSV row. `kMetricCore`
/// alone reproduces the historical bench CSV layout byte-for-byte.
enum MetricGroup : unsigned {
  kMetricCore = 1u << 0,        // x..refused_per_sec (the paper's metrics)
  kMetricHealth = 1u << 1,      // availability, error_rate, stale_frac
  kMetricRecovery = 1u << 2,    // recovery, recovery_complete
  kMetricResilience = 1u << 3,  // goodput, shed_rate, retry_amp
  kMetricEngine = 1u << 4,      // events .. shards
  kMetricAll = (1u << 5) - 1,
};

/// One schema row: CSV column name, the field it reads, and its group.
struct MetricColumn {
  const char* name;
  double MetricsReport::* field;
  unsigned group;
};

/// The full schema in emission order (stable across releases; new
/// columns append within their group).
std::span<const MetricColumn> metric_columns();

/// Comma-joined header for the selected groups, preceded by any caller
/// prefix columns (e.g. {"bench", "series"}). No trailing newline.
std::string csv_header(unsigned groups,
                       std::span<const std::string> prefix = {});

/// One CSV data row for the selected groups, preceded by the prefix
/// cells. Values are written with the stream's current floating-point
/// formatting (set `os.precision(17)` for round-trip bytes). No
/// trailing newline.
void write_csv_row(std::ostream& os, const MetricsReport& p, unsigned groups,
                   std::span<const std::string> prefix = {});

/// The selected groups as `"name": value` JSON members joined by ", "
/// (no surrounding braces), so callers can splice run identity around
/// them. Values are emitted with enough digits to round-trip.
void write_json_fields(std::ostream& os, const MetricsReport& p,
                       unsigned groups);

}  // namespace gridmon::core
