// Ablation bench (DESIGN.md adaptation #3): how much does MPass's ASR on a
// black-box target depend on the known-model ensemble's size/diversity?
// Compares: single known model, the two remaining SOTA models (the paper's
// literal setup), and SOTA + attacker-trained surrogates (this repo's
// default).
#include "bench_common.hpp"
#include "attack/mpass.hpp"

int main() {
  using namespace mpass;
  auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("ablation_ensemble");
  cfg.n_samples = std::min<std::size_t>(cfg.n_samples, 25);
  detect::ModelZoo& zoo = detect::ModelZoo::instance();
  const detect::Detector& target = zoo.offline_by_name("MalConv");
  std::vector<const detect::Detector*> gate = {&target};
  const auto samples = harness::make_attack_set(gate, cfg.n_samples, cfg.seed);

  // Ensemble variants (target MalConv is never included). Each runs under
  // its own attack name: the per-sample result cache is keyed by attack and
  // target name, so variants sharing "MPass" would be served each other's
  // cells. The default ensemble is make_attack("MPass")'s, so it keeps the
  // name.
  const auto all = zoo.known_nets_excluding("MalConv");
  struct Variant {
    std::string name;
    std::string attack;
    std::vector<ml::ByteConvNet*> nets;
  };
  std::vector<Variant> variants;
  variants.push_back({"1 SOTA model", "MPass-known1", {all[0]}});
  variants.push_back(
      {"2 SOTA models (paper setup)", "MPass-known2", {all[0], all[1]}});
  variants.push_back({"2 SOTA + 3 surrogates (default)", "MPass", all});

  util::Table table("Ablation: known-model ensemble vs MPass ASR on MalConv");
  table.header({"Known ensemble", "ASR (%)", "AVQ", "functional (%)"});
  for (const Variant& v : variants) {
    attack::Mpass atk(v.attack, {}, zoo.benign_pool(), v.nets);
    const harness::CellStats stats =
        harness::run_cell(atk, target, samples, samples, cfg);
    report.add_cells({stats});
    table.row({v.name, util::Table::num(stats.asr),
               util::Table::num(stats.avq), util::Table::num(stats.functional)});
    std::fprintf(stderr, "[ensemble] %s done\n", v.name.c_str());
  }
  std::cout << table.render();
  std::printf("(n=%zu malware, budget %zu; richer ensembles transfer better)\n",
              samples.size(), cfg.max_queries);
  return 0;
}
