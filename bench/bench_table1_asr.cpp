// Reproduces Table I: ASR (%) of each attack against the four offline
// ML detectors. Shares its runs with Tables II/III via the result cache.
#include "bench_common.hpp"

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("table1_asr");
  const auto cells = harness::offline_grid(cfg);
  report.add_cells(cells);
  bench::print_grid(
      "Table I: ASR (%) of attacking offline models", cells,
      bench::offline_targets(), bench::main_attacks(),
      [](const harness::CellStats& c) { return c.asr; });
  std::printf("(n=%zu malware per cell, query budget %zu)\n", cfg.n_samples,
              cfg.max_queries);
  bench::print_cell_timings(cells);
  std::printf(
      "Paper Table I (2000 samples, real PE corpus):\n"
      "  MalConv 98.6/33.7/94.2/81.8/94.3  NonNeg 99.2/35.4/93.6/90.2/97.0\n"
      "  LightGBM 98.3/20.3/91.8/84.8/28.2 MalGCG 99.6/68.7/87.4/61.4/76.8\n");
  bench::export_results_csv("offline", cells);
  return 0;
}
