// Perf-baseline pipeline: parsing, rendering and comparison of the span
// profiles (spans.json, obs/span.hpp) and the machine-readable per-bench
// reports (BENCH_<name>.json, bench/bench_common.hpp).
//
// This is the library behind tools/mpass_prof:
//   * parse_spans       -- spans out of a spans.json / BENCH_*.json document
//   * render_span_top   -- self-time hotspot table
//   * render_span_tree  -- call-path tree with % of parent
//   * compare_profiles  -- per-span / per-bench deltas against a baseline,
//                          with a configurable regression threshold
//   * collect_bench_dir -- BENCH_*.json -> one schema-versioned
//                          BENCH_SUMMARY.json, failing on missing or
//                          unparsable bench output
//
// Kept free of harness/bench dependencies so tools and tests can link it
// through mpass_obs alone.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace mpass::obs {

/// One parsed span row (ms domain; the JSON schema carries ms).
struct SpanProfileRow {
  std::string path;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Extracts span rows from a parsed document: accepts a bare spans.json
/// ({"spans":[...]}), a BENCH_<name>.json (same key), or a raw spans array.
/// nullopt if the document has no well-formed "spans".
std::optional<std::vector<SpanProfileRow>> parse_spans(const Json& doc);

/// Self-time hotspot table, top `n` rows.
std::string render_span_top(const std::vector<SpanProfileRow>& rows,
                            std::size_t n = 20);

/// Indented call-path tree; each row shows total, self and % of parent.
std::string render_span_tree(const std::vector<SpanProfileRow>& rows);

// ---- baseline comparison ----------------------------------------------------

struct ProfCompareOptions {
  double threshold = 0.20;  // fail when cur > base * (1 + threshold)
  double min_ms = 10.0;     // ignore series where max(base, cur) < min_ms
  std::string only_bench;   // non-empty: compare only this bench's series
  bool wall_only = false;   // compare bench wall-ms, skip per-span self-ms
};

struct ProfDelta {
  std::string kind;  // "bench-wall" | "span-self"
  std::string name;  // "<bench>" or "<bench>:<path>"
  double base_ms = 0.0;
  double cur_ms = 0.0;
  double ratio = 0.0;  // cur / base
};

struct ProfCompareResult {
  std::vector<ProfDelta> regressions;   // above threshold -> fail
  std::vector<ProfDelta> improvements;  // informational
  std::size_t compared = 0;             // series compared
  std::vector<std::string> notes;       // e.g. series only in one side
  bool ok() const { return regressions.empty(); }
};

/// Compares two profile documents. Both sides may be a BENCH_SUMMARY.json
/// ({"benches":{name: <bench>}}), a single BENCH_<name>.json, or a bare
/// spans.json; wall-ms is compared per bench and self-ms per span path.
ProfCompareResult compare_profiles(const Json& base, const Json& cur,
                                   const ProfCompareOptions& opts);

std::string render_compare(const ProfCompareResult& r,
                           const ProfCompareOptions& opts);

// ---- bench-output collection ------------------------------------------------

/// Merges every BENCH_*.json under `dir` into one schema-versioned
/// BENCH_SUMMARY.json document. Fails (nullopt + *error) when a file is
/// unparsable, misses required fields (schema_version, bench, wall_ms,
/// spans), or an `expected` bench name has no file -- missing bench output
/// is an error, never silently skipped.
std::optional<std::string> collect_bench_dir(
    const std::filesystem::path& dir,
    const std::vector<std::string>& expected, std::string* error);

}  // namespace mpass::obs
