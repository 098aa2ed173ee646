// Reproduces Table II: AVQ (mean queries per successful AE) of each attack
// against the four offline detectors. Uses the cached Table-I runs.
#include "bench_common.hpp"

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("table2_avq");
  const auto cells = harness::offline_grid(cfg);
  report.add_cells(cells);
  bench::print_grid(
      "Table II: AVQ of attack methods on offline models", cells,
      bench::offline_targets(), bench::main_attacks(),
      [](const harness::CellStats& c) { return c.avq; });
  std::printf(
      "Paper Table II:\n"
      "  MalConv 2.6/92.3/7.6/83.9/9.3   NonNeg 2.2/79.5/10.5/15.8/5.7\n"
      "  LightGBM 2.8/94.2/11.7/18.0/70.8 MalGCG 1.6/61.4/17.0/63.1/12.4\n");
  return 0;
}
