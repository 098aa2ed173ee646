// Small statistics helpers shared by training, evaluation and the harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mpass::util {

double mean(std::span<const double> xs);
double stddev(std::span<const double> xs);  // population stddev
double median(std::vector<double> xs);      // by value: sorts a copy

/// Binary-classification counters at a fixed threshold.
struct Confusion {
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;

  double accuracy() const;
  double tpr() const;  // recall / detection rate
  double fpr() const;
};

/// Builds a confusion matrix from scores (higher = positive) and labels.
Confusion confusion_at(std::span<const double> scores,
                       std::span<const int> labels, double threshold);

/// Smallest threshold achieving fpr <= max_fpr on the given scores
/// (scores of negatives), i.e. the calibration ML AVs use in practice.
/// Returns +inf-like 1.0 if even threshold 1.0 exceeds the target on ties.
double threshold_for_fpr(std::span<const double> scores,
                         std::span<const int> labels, double max_fpr);

/// Area under the ROC curve (rank statistic).
double auc(std::span<const double> scores, std::span<const int> labels);

}  // namespace mpass::util
