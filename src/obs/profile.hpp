// Span-profile rendering and the micro-benchmark perf gate: the library
// behind tools/mpass_prof.
//   * parse_spans       -- spans out of an MPASS_PROFILE document
//                          (obs/span.hpp)
//   * render_span_top   -- self-time hotspot table
//   * render_span_tree  -- call-path tree with % of parent
//   * compare_profiles  -- per-benchmark times of two bench_micro runs
//                          (google-benchmark JSON); fails at 2x or on a
//                          missing benchmark
//
// Kept free of harness/bench dependencies so tools and tests can link it
// through mpass_obs alone.
#pragma once

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

/// Extracts span rows from a parsed profile document ({"spans":[...]},
/// obs::spans_to_json). nullopt if it has no well-formed "spans".
std::optional<std::vector<SpanProfileRow>> parse_spans(const Json& doc);

/// Self-time hotspot table, top `n` rows.
std::string render_span_top(const std::vector<SpanProfileRow>& rows,
                            std::size_t n = 20);

/// Indented call-path tree; each row shows total, self and % of parent.
std::string render_span_tree(const std::vector<SpanProfileRow>& rows);

// ---- micro-benchmark gate ---------------------------------------------------

struct ProfDelta {
  std::string name;    // google-benchmark name, e.g. "BM_PeParse"
  double base_ns = 0.0;
  double cur_ns = 0.0;
  double ratio = 0.0;  // cur / base
};

struct ProfCompareResult {
  std::vector<ProfDelta> deltas;     // every baseline benchmark also in the
                                     // current run, by name
  std::vector<std::string> missing;  // baseline benchmarks the run lacks
  bool ok() const;  // nothing missing and no ratio above 2
};

/// Compares two google-benchmark JSON records (--benchmark_out_format=json):
/// the run_type "iteration" rows, matched by name, on real_time per
/// iteration scaled by time_unit. A name run more than once (repetitions)
/// counts at its fastest; errored rows count as absent. nullopt when either
/// document has no well-formed "benchmarks" array or the baseline times no
/// benchmark.
std::optional<ProfCompareResult> compare_profiles(const Json& base,
                                                  const Json& cur);

std::string render_compare(const ProfCompareResult& r);

}  // namespace mpass::obs
