// Histogram-based gradient-boosted decision trees with logistic loss --
// a from-scratch LightGBM equivalent for the EMBER-style detector
// (Anderson & Roth 2018 use LightGBM on static PE features; see DESIGN.md).
//
// Training uses quantile feature binning + per-node (gradient, hessian)
// histograms with the standard second-order split gain.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace mpass::ml {

struct GbdtConfig {
  int trees = 80;
  int max_depth = 5;
  int bins = 64;
  float learning_rate = 0.1f;
  float feature_fraction = 1.0f;  // per-tree column subsampling
};

class Gbdt {
 public:
  explicit Gbdt(const GbdtConfig& cfg = {}) : cfg_(cfg) {}

  /// Trains on row-major features X (n x dim) with binary labels.
  void fit(const std::vector<std::vector<float>>& x,
           const std::vector<int>& y, std::uint64_t seed = 1);

  /// Probability of the positive (malicious) class.
  float predict(std::span<const float> x) const;

  /// Raw additive score (logit).
  float decision(std::span<const float> x) const;

  /// Split-count feature importance: how often each feature is used as a
  /// split across the ensemble (normalized to sum to 1; empty before fit).
  std::vector<double> feature_importance(std::size_t dim) const;

  void save(util::Archive& ar) const;
  void load(util::Unarchive& ar);

 private:
  struct Node {
    int feature = -1;       // -1 = leaf
    float threshold = 0.0f; // go left if x[feature] <= threshold
    int left = -1, right = -1;
    float value = 0.0f;     // leaf value
  };
  using Tree = std::vector<Node>;

  float tree_score(const Tree& t, std::span<const float> x) const;

  GbdtConfig cfg_;
  float base_score_ = 0.0f;
  std::vector<Tree> trees_;
};

}  // namespace mpass::ml
