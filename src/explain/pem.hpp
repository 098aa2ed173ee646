// PEM: the problem-space explainability method (paper §III-B, Algorithm 1).
//
// Runs Shapley attribution of every known model over a set of sampled
// malware, averages per common section name, ranks sections per model,
// and intersects the per-model top-k sets into the common critical sections
// the attack will target. The paper's headline finding -- code and data are
// the top-2 critical sections, with 1.3~6.0x the Shapley value of the
// top-3 section -- is exposed as a ratio statistic for the PEM bench.
#pragma once

#include "detectors/detector.hpp"
#include "explain/shapley.hpp"

namespace mpass::explain {

struct PemConfig {
  std::size_t top_k = 3;   // per-model critical-section count
};

struct PemResult {
  std::vector<std::string> common_sections;  // S_all, by corpus frequency
  std::vector<std::string> model_names;
  // avg_shapley[m][i] = E_f(phi_i) for model m, section common_sections[i].
  std::vector<std::vector<double>> avg_shapley;
  std::vector<std::vector<std::string>> per_model_topk;
  std::vector<std::string> critical;  // intersection of per-model top-k
  // mean(E[top1], E[top2]) / E[top3], per model (the 1.3~6.0x claim).
  std::vector<double> top2_over_top3;
};

/// Runs Algorithm 1 over N sampled malware files and M known models.
PemResult run_pem(std::span<const util::ByteBuf> malware,
                  std::span<const detect::Detector* const> known_models,
                  const PemConfig& cfg = {});

}  // namespace mpass::explain
