#include "detectors/advtrain.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace mpass::detect {

using util::ByteBuf;

namespace {

constexpr int kBatch = 4;  // samples per Adam step
constexpr std::uint64_t kSeed = 17;
// PGD-AT: fraction of each malware sample's bytes perturbed, and the number
// of gradient ascent steps used to craft the training AE.
constexpr double kPerturbFraction = 0.05;
constexpr int kPgdSteps = 2;
// Fraction of malware samples that get an AE companion each epoch; 1.0
// doubles the malicious side of every batch with off-distribution bytes,
// which collapses small-capacity models.
constexpr double kAdvSampleFraction = 0.35;

/// Crafts a gradient byte-level AE of `sample` against `net`: picks the
/// highest-|gradient| positions and flips each to the byte minimizing the
/// first-order benign-direction loss. No function preservation -- exactly
/// the uniform-perturbation AEs the paper says PGD-AT is limited to.
ByteBuf craft_pgd_ae(ml::ByteConvNet& net, const ByteBuf& sample,
                     util::Rng& rng) {
  ByteBuf adv = sample;
  const std::size_t budget = std::max<std::size_t>(
      16, static_cast<std::size_t>(kPerturbFraction *
                                   static_cast<double>(sample.size())));
  for (int step = 0; step < kPgdSteps; ++step) {
    net.forward(adv);
    std::vector<float> grad;
    net.backward(/*target=*/0.0f, &grad, /*accumulate_params=*/false,
                 /*soft_pool_tau=*/0.5f);
    const int d = net.config().embed_dim;
    const std::size_t n =
        std::min<std::size_t>(net.consumed(), adv.size());
    // Rank positions by gradient magnitude.
    std::vector<std::pair<float, std::size_t>> ranked;
    ranked.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      float mag = 0;
      for (int k = 0; k < d; ++k)
        mag += grad[t * d + k] * grad[t * d + k];
      ranked.emplace_back(mag, t);
    }
    const std::size_t take = std::min(budget / kPgdSteps + 1, ranked.size());
    std::partial_sort(
        ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(take),
        ranked.end(), [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t t = ranked[i].second;
      const float* g = grad.data() + t * d;
      int best = adv[t];
      float best_score = 0.0f;
      const auto cur = net.embedding_row(adv[t]);
      float cur_score = 0.0f;
      for (int k = 0; k < d; ++k) cur_score += g[k] * cur[k];
      best_score = cur_score;
      // Sample candidates (full 256 scan is overkill at training time).
      for (int c = 0; c < 32; ++c) {
        const int v = static_cast<int>(rng.below(256));
        const auto e = net.embedding_row(v);
        float s = 0.0f;
        for (int k = 0; k < d; ++k) s += g[k] * e[k];
        if (s < best_score) {
          best_score = s;
          best = v;
        }
      }
      adv[t] = static_cast<std::uint8_t>(best);
    }
  }
  return adv;
}

}  // namespace

float adversarial_train_pgd(ByteConvDetector& detector,
                            const corpus::Dataset& train,
                            const AdvTrainConfig& cfg) {
  ml::ByteConvNet& net = detector.net();
  ml::Adam opt(net.params(), cfg.lr);
  util::Rng rng(kSeed);
  std::vector<std::size_t> order(train.samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  float last_loss = 0.0f;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    double loss = 0.0;
    std::size_t count = 0;
    int in_batch = 0;
    // Warm-up epoch on clean data first: crafting AEs against an untrained
    // net is pure label noise.
    const bool craft = epoch > 0;
    for (std::size_t idx : order) {
      const corpus::Sample& s = train.samples[idx];
      net.forward(s.bytes);
      loss += net.backward(static_cast<float>(s.label));
      ++count;
      if (craft && s.label == 1 && rng.chance(kAdvSampleFraction)) {
        // Train on the crafted AE too, still labeled malicious.
        const ByteBuf adv = craft_pgd_ae(net, s.bytes, rng);
        net.forward(adv);
        loss += net.backward(1.0f);
        ++count;
      }
      if (++in_batch == kBatch) {
        opt.step();
        net.clamp_nonneg();
        in_batch = 0;
      }
    }
    if (in_batch) {
      opt.step();
      net.clamp_nonneg();
    }
    last_loss = static_cast<float>(loss / std::max<std::size_t>(count, 1));
  }
  return last_loss;
}

float adversarial_train_with_aes(ByteConvDetector& detector,
                                 const corpus::Dataset& train,
                                 std::span<const ByteBuf> aes,
                                 const AdvTrainConfig& cfg) {
  // Build the mixed set: all clean samples + AEs (malicious label). The
  // paper mixes AE/clean malware 50/50; with fewer AEs than malware the AEs
  // are repeated to reach the same ratio.
  corpus::Dataset mixed = train;
  if (!aes.empty()) {
    const std::size_t n_malware = train.count(1);
    for (std::size_t i = 0; i < n_malware; ++i) {
      corpus::Sample s;
      s.bytes = aes[i % aes.size()];
      s.label = 1;
      mixed.samples.push_back(std::move(s));
    }
  }
  NetTrainConfig tc;
  tc.epochs = cfg.epochs;
  tc.lr = cfg.lr;
  tc.seed = kSeed;
  return train_net(detector, mixed, tc);
}

}  // namespace mpass::detect
