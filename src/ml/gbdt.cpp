#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/span.hpp"
#include "util/rng.hpp"

namespace mpass::ml {

namespace {
constexpr float kLambda = 1.0f;  // L2 regularization on leaf values
constexpr float kMinChildHess = 1.0f;

inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}

void Gbdt::fit(const std::vector<std::vector<float>>& x,
               const std::vector<int>& y, std::uint64_t seed) {
  if (x.empty() || x.size() != y.size())
    throw std::invalid_argument("gbdt: bad training data");
  const std::size_t n = x.size();
  const std::size_t dim = x[0].size();
  util::Rng rng(seed);

  // ---- quantile binning ----------------------------------------------------
  // bin_edges[f] has at most bins-1 ascending thresholds; bin k holds values
  // in (edge[k-1], edge[k]].
  std::vector<std::vector<float>> edges(dim);
  {
    std::vector<float> col(n);
    for (std::size_t f = 0; f < dim; ++f) {
      for (std::size_t i = 0; i < n; ++i) col[i] = x[i][f];
      std::sort(col.begin(), col.end());
      auto& e = edges[f];
      for (int b = 1; b < cfg_.bins; ++b) {
        const std::size_t q = b * n / cfg_.bins;
        const float v = col[std::min(q, n - 1)];
        if (e.empty() || v > e.back()) e.push_back(v);
      }
    }
  }
  auto bin_of = [&](float v, const std::vector<float>& e) {
    return static_cast<int>(
        std::lower_bound(e.begin(), e.end(), v) - e.begin());
  };

  // Pre-binned matrix (row-major uint16 bins).
  std::vector<std::uint16_t> binned(n * dim);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t f = 0; f < dim; ++f)
      binned[i * dim + f] =
          static_cast<std::uint16_t>(bin_of(x[i][f], edges[f]));

  // ---- boosting ---------------------------------------------------------------
  double pos = 0;
  for (int v : y) pos += v;
  const double prior = std::clamp(pos / static_cast<double>(n), 1e-4, 1 - 1e-4);
  base_score_ = static_cast<float>(std::log(prior / (1.0 - prior)));

  std::vector<float> score(n, base_score_);
  std::vector<float> grad(n), hess(n);
  trees_.clear();

  const int max_nodes = (2 << cfg_.max_depth) + 1;
  for (int round = 0; round < cfg_.trees; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const float p = sigmoidf(score[i]);
      grad[i] = p - static_cast<float>(y[i]);
      hess[i] = std::max(p * (1.0f - p), 1e-6f);
    }

    // Column subsample for this tree.
    std::vector<std::size_t> feats;
    for (std::size_t f = 0; f < dim; ++f)
      if (cfg_.feature_fraction >= 1.0f || rng.chance(cfg_.feature_fraction))
        feats.push_back(f);
    if (feats.empty()) feats.push_back(rng.below(dim));

    Tree tree;
    tree.reserve(static_cast<std::size_t>(max_nodes));

    struct Work {
      int node;
      int depth;
      std::vector<std::uint32_t> rows;
    };
    std::vector<Work> queue;
    {
      std::vector<std::uint32_t> all(n);
      for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::uint32_t>(i);
      tree.push_back({});
      queue.push_back({0, 0, std::move(all)});
    }

    while (!queue.empty()) {
      Work w = std::move(queue.back());
      queue.pop_back();

      double G = 0, H = 0;
      for (std::uint32_t i : w.rows) {
        G += grad[i];
        H += hess[i];
      }
      auto make_leaf = [&] {
        tree[static_cast<std::size_t>(w.node)].value =
            static_cast<float>(-G / (H + kLambda)) * cfg_.learning_rate;
      };
      if (w.depth >= cfg_.max_depth || w.rows.size() < 2) {
        make_leaf();
        continue;
      }

      // Best split via per-feature histograms.
      const double parent_gain = G * G / (H + kLambda);
      double best_gain = 1e-6;  // require strictly positive improvement
      int best_feat = -1;
      int best_bin = -1;
      std::vector<double> hg(static_cast<std::size_t>(cfg_.bins));
      std::vector<double> hh(static_cast<std::size_t>(cfg_.bins));
      for (std::size_t f : feats) {
        if (edges[f].empty()) continue;
        std::fill(hg.begin(), hg.end(), 0.0);
        std::fill(hh.begin(), hh.end(), 0.0);
        for (std::uint32_t i : w.rows) {
          const int b = binned[static_cast<std::size_t>(i) * dim + f];
          hg[static_cast<std::size_t>(b)] += grad[i];
          hh[static_cast<std::size_t>(b)] += hess[i];
        }
        double gl = 0, hl = 0;
        const int usable = static_cast<int>(edges[f].size());
        for (int b = 0; b < usable; ++b) {
          gl += hg[static_cast<std::size_t>(b)];
          hl += hh[static_cast<std::size_t>(b)];
          const double gr = G - gl;
          const double hr = H - hl;
          if (hl < kMinChildHess || hr < kMinChildHess) continue;
          const double gain = gl * gl / (hl + kLambda) +
                              gr * gr / (hr + kLambda) - parent_gain;
          if (gain > best_gain) {
            best_gain = gain;
            best_feat = static_cast<int>(f);
            best_bin = b;
          }
        }
      }
      if (best_feat < 0) {
        make_leaf();
        continue;
      }

      // Partition rows.
      std::vector<std::uint32_t> left, right;
      for (std::uint32_t i : w.rows) {
        const int b =
            binned[static_cast<std::size_t>(i) * dim +
                   static_cast<std::size_t>(best_feat)];
        (b <= best_bin ? left : right).push_back(i);
      }
      if (left.empty() || right.empty()) {
        make_leaf();
        continue;
      }

      Node& nd = tree[static_cast<std::size_t>(w.node)];
      nd.feature = best_feat;
      nd.threshold =
          edges[static_cast<std::size_t>(best_feat)]
               [static_cast<std::size_t>(best_bin)];
      nd.left = static_cast<int>(tree.size());
      tree.push_back({});
      nd.right = static_cast<int>(tree.size());
      tree.push_back({});
      const int l = tree[static_cast<std::size_t>(w.node)].left;
      const int rgt = tree[static_cast<std::size_t>(w.node)].right;
      queue.push_back({l, w.depth + 1, std::move(left)});
      queue.push_back({rgt, w.depth + 1, std::move(right)});
    }

    for (std::size_t i = 0; i < n; ++i)
      score[i] += tree_score(tree, x[i]);
    trees_.push_back(std::move(tree));
  }
}

float Gbdt::tree_score(const Tree& t, std::span<const float> x) const {
  int node = 0;
  while (t[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& nd = t[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                   : nd.right;
  }
  return t[static_cast<std::size_t>(node)].value;
}

float Gbdt::decision(std::span<const float> x) const {
  float s = base_score_;
  for (const Tree& t : trees_) s += tree_score(t, x);
  return s;
}

float Gbdt::predict(std::span<const float> x) const {
  OBS_SCOPE("ml.gbdt.predict");
  return sigmoidf(decision(x));
}

std::vector<double> Gbdt::feature_importance(std::size_t dim) const {
  std::vector<double> importance(dim, 0.0);
  double total = 0.0;
  for (const Tree& t : trees_)
    for (const Node& nd : t)
      if (nd.feature >= 0 && static_cast<std::size_t>(nd.feature) < dim) {
        importance[static_cast<std::size_t>(nd.feature)] += 1.0;
        total += 1.0;
      }
  if (total > 0)
    for (double& v : importance) v /= total;
  return importance;
}

void Gbdt::save(util::Archive& ar) const {
  ar.tag("gbdt");
  ar.f32(base_score_);
  ar.u32(static_cast<std::uint32_t>(trees_.size()));
  for (const Tree& t : trees_) {
    ar.u32(static_cast<std::uint32_t>(t.size()));
    for (const Node& nd : t) {
      ar.i64(nd.feature);
      ar.f32(nd.threshold);
      ar.i64(nd.left);
      ar.i64(nd.right);
      ar.f32(nd.value);
    }
  }
}

void Gbdt::load(util::Unarchive& ar) {
  ar.tag("gbdt");
  base_score_ = ar.f32();
  trees_.assign(ar.u32(), {});
  for (Tree& t : trees_) {
    t.assign(ar.u32(), {});
    for (Node& nd : t) {
      nd.feature = static_cast<int>(ar.i64());
      nd.threshold = ar.f32();
      nd.left = static_cast<int>(ar.i64());
      nd.right = static_cast<int>(ar.i64());
      nd.value = ar.f32();
    }
  }
}

}  // namespace mpass::ml
