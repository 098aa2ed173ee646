// Reader + schema validator for MPASS_TRACE directories, shared by the
// tools/mpass_trace CLI, the CI trace check, and the round-trip tests.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mpass::obs {

/// Parsed contents of one per-sample trace file.
struct SampleTraceData {
  std::string attack, target, sample;
  std::uint64_t seed = 0;
  std::uint64_t budget = 0;

  struct Query {
    std::uint64_t i = 0;
    bool malicious = false;
    double score = 0.0;
  };
  struct Opt {
    std::uint64_t iter = 0;
    double loss = 0.0;
  };
  std::vector<Query> queries;
  std::vector<Opt> opts;
  std::size_t actions = 0;
  std::uint64_t first_evasion = 0;  // i of the first benign query; 0 = none

  bool has_end = false;
  bool success = false;
  bool functional = false;
  std::uint64_t end_queries = 0;
  double apr = 0.0;
  double ms = 0.0;
};

/// One "cell" line from cells.jsonl.
struct CellTraceData {
  std::string attack, target;
  std::uint64_t n = 0;
  std::uint64_t traced = 0;  // samples executed (not served from cache)
  std::uint64_t total_queries = 0;
  std::uint64_t successes = 0;
  std::uint64_t evasion_queries = 0;  // sum of first evasions of successes
  double wall_ms = 0.0;
};

/// Everything loaded from a trace directory.
struct TraceDirData {
  std::vector<SampleTraceData> samples;
  std::vector<CellTraceData> cells;  // in file order; later lines win
  std::size_t pem_lines = 0;
};

/// Outcome of validating a trace directory.
struct TraceCheckReport {
  std::size_t files = 0;
  std::size_t lines = 0;
  std::vector<std::string> errors;    // schema/consistency violations
  std::vector<std::string> warnings;  // e.g. cells not reconcilable (cache)
  TraceDirData data;

  bool ok() const { return errors.empty(); }
};

/// Parses one per-sample JSONL payload. Appends human-readable messages to
/// `errors` (prefixed with `where`) for every violation: malformed JSON,
/// unknown "ev", missing/ill-typed fields, missing start/end framing,
/// non-contiguous query indices, non-increasing opt iterations, an "end"
/// whose query count disagrees with the emitted query events, or an "end"
/// claiming success with no benign query before it.
std::optional<SampleTraceData> parse_sample_trace(
    std::string_view text, std::string_view where,
    std::vector<std::string>* errors);

/// Loads and validates a whole trace directory: every *.jsonl line must
/// satisfy the schema, and for every cell whose samples were all executed
/// in this run (traced == n and all n files present), the sum of per-sample
/// query counts must equal the cell's total_queries, and the successful
/// samples' count and summed first-evasion indices must equal the cell's
/// successes and evasion_queries (the CellStats reconciliation of
/// docs/OBSERVABILITY.md).
TraceCheckReport check_trace_dir(const std::filesystem::path& dir);

}  // namespace mpass::obs
