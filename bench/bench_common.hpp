// Shared table-rendering helpers for the per-table bench binaries, plus the
// machine-readable BENCH_<name>.json report each of them emits
// (BenchReport).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "ml/kernels.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace mpass::bench {

/// Finds a cell by (attack, target); aborts with a message if missing.
inline const harness::CellStats& cell(
    const std::vector<harness::CellStats>& cells, std::string_view attack,
    std::string_view target) {
  for (const harness::CellStats& c : cells)
    if (c.attack == attack && c.target == target) return c;
  std::fprintf(stderr, "missing cell %s x %s\n", std::string(attack).c_str(),
               std::string(target).c_str());
  std::abort();
}

/// Prints one paper-style table: rows = targets, columns = attacks,
/// metric picked by the selector.
template <typename Selector>
void print_grid(const std::string& title,
                const std::vector<harness::CellStats>& cells,
                const std::vector<std::string>& targets,
                const std::vector<std::string>& attacks, Selector metric,
                int decimals = 1) {
  util::Table table(title);
  std::vector<std::string> header = {"Models"};
  header.insert(header.end(), attacks.begin(), attacks.end());
  table.header(header);
  for (const std::string& t : targets) {
    std::vector<std::string> row = {t};
    for (const std::string& a : attacks)
      row.push_back(util::Table::num(metric(cell(cells, a, t)), decimals));
    table.row(row);
  }
  std::cout << table.render() << std::flush;
}

inline std::vector<std::string> offline_targets() {
  return {"MalConv", "NonNeg", "LightGBM", "MalGCG"};
}

inline std::vector<std::string> av_targets() {
  return {"AV1", "AV2", "AV3", "AV4", "AV5"};
}

inline std::vector<std::string> main_attacks() {
  return {"MPass", "RLA", "MAB", "GAMMA", "MalRNN"};
}

/// Prints the per-cell compute-time / query-throughput counters collected
/// by run_cell (0 when every sample came from the result cache).
/// wall_ms sums sample-task durations, so cells are comparable even though
/// they interleave on the shared pool.
inline void print_cell_timings(const std::vector<harness::CellStats>& cells) {
  double total_ms = 0.0;
  std::size_t total_q = 0;
  for (const harness::CellStats& c : cells) {
    total_ms += c.wall_ms;
    total_q += c.total_queries;
  }
  std::printf("cell timing: %zu queries in %.0f ms cpu-cell time (threads=%zu)\n",
              total_q, total_ms, util::ThreadPool::instance().size());
  for (const harness::CellStats& c : cells)
    if (c.wall_ms > 0.0)
      std::printf("  %-12s vs %-10s %8.0f ms %8.0f q/s\n", c.attack.c_str(),
                  c.target.c_str(), c.wall_ms, c.qps);
}

/// Machine-readable per-bench report. Construct at the top of main, feed it
/// the grids the bench computed, and on destruction it writes
/// BENCH_<name>.json (schema v1: wall_ms, per-cell CellStats, merged span
/// profile, build metadata) to $MPASS_BENCH_DIR (created if needed) or the
/// working directory. The schema is documented in docs/OBSERVABILITY.md;
/// `mpass_prof top` / `tree` read its spans.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), t0_(std::chrono::steady_clock::now()) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void add_cells(const std::vector<harness::CellStats>& cells) {
    cells_.insert(cells_.end(), cells.begin(), cells.end());
  }

  ~BenchReport() {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0_)
            .count();

    std::string out;
    out.reserve(1 << 14);
    out += "{\"schema_version\":1,\"bench\":\"";
    obs::json_escape(out, name_);
    out += "\",\"wall_ms\":";
    obs::json_number(out, wall_ms);

    out += ",\"build\":{\"compiler\":\"";
    obs::json_escape(out, __VERSION__);
    out += "\",\"build_type\":\"";
#ifdef NDEBUG
    out += "Release";
#else
    out += "Debug";
#endif
    // Which byte-net kernel set ran (ml/kernels.hpp): timings taken on
    // the 8-lane and the 4-lane path are not comparable.
    out += "\",\"kernel_isa\":\"";
    out += ml::kernel_isa();
    out += "\",\"threads\":";
    obs::json_number(out,
                     static_cast<double>(util::ThreadPool::instance().size()));
    out += "}";

    out += ",\"env\":{";
    bool first_env = true;
    for (const char* var : {"MPASS_N", "MPASS_MAX_QUERIES", "MPASS_THREADS",
                            "MPASS_NO_CACHE", "MPASS_TRAIN_MAL"}) {
      const char* v = std::getenv(var);
      if (!v) continue;
      if (!first_env) out += ',';
      first_env = false;
      out += '"';
      obs::json_escape(out, var);
      out += "\":\"";
      obs::json_escape(out, v);
      out += '"';
    }
    out += "}";

    out += ",\"cells\":[";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const harness::CellStats& c = cells_[i];
      if (i) out += ',';
      out += "{\"attack\":\"";
      obs::json_escape(out, c.attack);
      out += "\",\"target\":\"";
      obs::json_escape(out, c.target);
      out += "\",\"n\":";
      obs::json_number(out, static_cast<double>(c.n));
      out += ",\"asr\":";
      obs::json_number(out, c.asr);
      out += ",\"avq\":";
      obs::json_number(out, c.avq);
      out += ",\"apr\":";
      obs::json_number(out, c.apr);
      out += ",\"functional\":";
      obs::json_number(out, c.functional);
      out += ",\"successes\":";
      obs::json_number(out, static_cast<double>(c.successes));
      out += ",\"total_queries\":";
      obs::json_number(out, static_cast<double>(c.total_queries));
      out += ",\"wall_ms\":";
      obs::json_number(out, c.wall_ms);
      out += ",\"qps\":";
      obs::json_number(out, c.qps);
      out += '}';
    }
    out += "]";

    out += ",\"spans\":";
    obs::append_span_rows(out, obs::span_snapshot());
    out += "}\n";

    std::filesystem::path dir = ".";
    if (const char* d = std::getenv("MPASS_BENCH_DIR"); d && *d) dir = d;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::filesystem::path path = dir / ("BENCH_" + name_ + ".json");
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (f) {
      f.write(out.data(), static_cast<std::streamsize>(out.size()));
      std::fprintf(stderr, "[bench] wrote %s\n", path.string().c_str());
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n", path.string().c_str());
    }
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<harness::CellStats> cells_;
};

/// Exports a grid to results/<key>.csv next to the cache dir.
inline void export_results_csv(std::string_view key,
                               const std::vector<harness::CellStats>& cells) {
  const auto path = util::cache_dir() / "results" /
                    (std::string(key) + ".csv");
  harness::export_csv(path, cells);
  std::fprintf(stderr, "[csv] wrote %s\n", path.string().c_str());
}

}  // namespace mpass::bench
