// Ablation bench: MPass ASR as a function of the hard-label query budget
// (the paper fixes 100 queries for all attacks; this shows where MPass's
// successes actually land -- mostly in the first few queries).
#include "bench_common.hpp"
#include "attack/mpass.hpp"

int main() {
  using namespace mpass;
  auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("ablation_budget");
  cfg.n_samples = std::min<std::size_t>(cfg.n_samples, 25);
  detect::ModelZoo& zoo = detect::ModelZoo::instance();
  const detect::Detector& target = zoo.offline_by_name("MalGCG");
  std::vector<const detect::Detector*> gate = {&target};
  const auto samples = harness::make_attack_set(gate, cfg.n_samples, cfg.seed);

  util::Table table("Ablation: query budget vs MPass ASR on MalGCG");
  table.header({"Budget", "ASR (%)", "AVQ"});
  for (std::size_t budget : {1ul, 5ul, 20ul, 100ul}) {
    harness::ExperimentConfig c = cfg;
    c.max_queries = budget;
    attack::Mpass atk("MPass", {}, zoo.benign_pool(),
                      zoo.known_nets_excluding("MalGCG"));
    const harness::CellStats stats =
        harness::run_cell(atk, target, samples, samples, c);
    report.add_cells({stats});
    table.row({std::to_string(budget), util::Table::num(stats.asr),
               util::Table::num(stats.avq)});
    std::fprintf(stderr, "[budget] %zu done\n", budget);
  }
  std::cout << table.render();
  std::printf("(n=%zu malware)\n", samples.size());
  return 0;
}
