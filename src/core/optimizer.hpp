// Ensemble perturbation optimization (paper §III-D, Eq. 2-3).
//
// The perturbable bytes delta are lifted into each known model's embedding
// space; one optimization step computes dLoss/dEmbedding for every known
// model (loss = sum of per-model BCE toward the benign label, the ensemble
// loss of Liu et al.), then greedily re-selects each perturbable byte to
// minimize the first-order ensemble loss -- including the contribution of
// its coupled key byte (the matrix-M constraint), so every step stays
// function-preserving.
#pragma once

#include <vector>

#include "core/modification.hpp"
#include "ml/byteconv.hpp"

namespace mpass::core {

class EnsembleOptimizer {
 public:
  /// known: the differentiable known models (never the black-box target).
  explicit EnsembleOptimizer(std::vector<ml::ByteConvNet*> known);

  /// One optimization step: computes the ensemble gradient, greedily
  /// re-selects bytes, and line-searches over update fractions, keeping
  /// the best-scoring prefix under the true (non-linearized) ensemble
  /// loss. When no prefix improves, a small exploratory prefix is kept
  /// anyway (so the next step's gradient escapes the tie), and the loss
  /// may then increase. Returns the mean ensemble BCE loss toward benign
  /// for the exact sample state left behind.
  ///
  /// The line search evaluates nested prefixes: each candidate differs
  /// from the previous one only in the updates applied in between, so
  /// every evaluation (through the nets' forward_auto), and the re-score
  /// after the rollback, re-convolves only the windows the changed bytes
  /// touched: a step on warm caches runs no full forward.
  float step(ModifiedSample& sample) const;

  /// Mean ensemble probability of `bytes` being malicious.
  float ensemble_score(std::span<const std::uint8_t> bytes) const;

  /// Mean ensemble BCE loss toward the benign label.
  float ensemble_loss(std::span<const std::uint8_t> bytes) const;

 private:
  std::vector<ml::ByteConvNet*> known_;
};

}  // namespace mpass::core
