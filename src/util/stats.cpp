#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mpass::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  double lo = *std::max_element(
      xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double Confusion::accuracy() const {
  const std::size_t total = tp + fp + tn + fn;
  return total == 0 ? 0.0 : static_cast<double>(tp + tn) / total;
}

double Confusion::tpr() const {
  return (tp + fn) == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
}

double Confusion::fpr() const {
  return (fp + tn) == 0 ? 0.0 : static_cast<double>(fp) / (fp + tn);
}

Confusion confusion_at(std::span<const double> scores,
                       std::span<const int> labels, double threshold) {
  Confusion c;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const bool pred = scores[i] >= threshold;
    if (labels[i] != 0) {
      pred ? ++c.tp : ++c.fn;
    } else {
      pred ? ++c.fp : ++c.tn;
    }
  }
  return c;
}

double threshold_for_fpr(std::span<const double> scores,
                         std::span<const int> labels, double max_fpr) {
  std::vector<double> neg;
  for (std::size_t i = 0; i < scores.size(); ++i)
    if (labels[i] == 0) neg.push_back(scores[i]);
  if (neg.empty()) return 0.5;
  std::sort(neg.begin(), neg.end());
  // Allow floor(max_fpr * n) negatives at or above the threshold.
  const std::size_t allowed =
      static_cast<std::size_t>(max_fpr * static_cast<double>(neg.size()));
  if (allowed >= neg.size()) return neg.front();
  // Threshold strictly above the (n - allowed - 1)-th negative score.
  const double boundary = neg[neg.size() - allowed - 1];
  return std::nextafter(boundary, 2.0);
}

double auc(std::span<const double> scores, std::span<const int> labels) {
  // Rank-based (Mann-Whitney U); ties get half credit.
  std::vector<std::pair<double, int>> v;
  v.reserve(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    v.emplace_back(scores[i], labels[i]);
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double pos = 0, neg = 0, rank_sum = 0;
  std::size_t i = 0;
  double rank = 1;
  while (i < v.size()) {
    std::size_t j = i;
    while (j < v.size() && v[j].first == v[i].first) ++j;
    const double avg_rank = rank + static_cast<double>(j - i - 1) / 2.0;
    for (std::size_t k = i; k < j; ++k) {
      if (v[k].second != 0) {
        rank_sum += avg_rank;
        ++pos;
      } else {
        ++neg;
      }
    }
    rank += static_cast<double>(j - i);
    i = j;
  }
  if (pos == 0 || neg == 0) return 0.5;
  return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg);
}

}  // namespace mpass::util
