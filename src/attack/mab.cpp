#include "attack/mab.hpp"

#include <algorithm>
#include <cmath>

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace mpass::attack {

using util::ByteBuf;

namespace {
// Pulls before restarting from pristine.
constexpr int kMaxPullsPerRestart = 25;

/// Crude Beta sampler via moment-matched Gaussian (adequate for bandits).
double sample_beta(double a, double b, util::Rng& rng) {
  const double mean = a / (a + b);
  const double var = a * b / ((a + b) * (a + b) * (a + b + 1.0));
  return std::clamp(mean + std::sqrt(var) * rng.gaussian(), 0.0, 1.0);
}
}  // namespace

std::size_t Mab::sample_arm(util::Rng& rng) {
  std::size_t best = 0;
  double best_draw = -1.0;
  for (std::size_t a = 0; a < kNumActions; ++a) {
    if (is_risky(static_cast<Action>(a))) continue;  // MAB stays safe
    const double draw = sample_beta(alpha_[a], beta_[a], rng);
    if (draw > best_draw) {
      best_draw = draw;
      best = a;
    }
  }
  return best;
}

AttackResult Mab::run(std::span<const std::uint8_t> malware,
                      detect::HardLabelOracle& oracle, std::uint64_t seed) {
  OBS_SCOPE("attack.mab.run");
  util::Rng rng(seed);
  AttackResult result;
  result.adversarial.assign(malware.begin(), malware.end());

  while (!oracle.exhausted()) {
    ByteBuf current(malware.begin(), malware.end());
    std::vector<std::size_t> pulled;
    for (int pull = 0; pull < kMaxPullsPerRestart && !oracle.exhausted();
         ++pull) {
      const std::size_t a = sample_arm(rng);
      auto mutated =
          apply_action(static_cast<Action>(a), current, pool_, rng);
      if (!mutated) {
        beta_[a] += 0.25;
        continue;
      }
      current = std::move(*mutated);
      pulled.push_back(a);
      if (obs::tracing())
        obs::Event("action")
            .str("kind", "mab_pull")
            .str("arm", action_name(static_cast<Action>(a)))
            .uint("pull", static_cast<std::uint64_t>(pull))
            .uint("size", current.size());
      // Each pull mutates the working copy in place (append/rename-style
      // edits), so the detector's incremental forward re-scores only the
      // touched windows of `current` against its cached previous query.
      const bool detected = oracle.query(current);
      if (detected) {
        beta_[a] += 1.0;
        continue;
      }
      alpha_[a] += 1.0;
      result.success = true;
      result.adversarial = current;

      // Minimization: replay the pulled arms from pristine, dropping one at
      // a time while the sample still evades (each trial costs a query).
      if (pulled.size() > 1) {
        util::Rng replay_rng(seed ^ 0x33);  // deterministic action content
        for (std::size_t drop = 0;
             drop < pulled.size() && !oracle.exhausted(); ++drop) {
          ByteBuf trial(malware.begin(), malware.end());
          util::Rng trng(replay_rng());
          bool applied_all = true;
          for (std::size_t i = 0; i < pulled.size(); ++i) {
            if (i == drop) continue;
            auto step = apply_action(static_cast<Action>(pulled[i]), trial,
                                     pool_, trng);
            if (!step) {
              applied_all = false;
              break;
            }
            trial = std::move(*step);
          }
          if (!applied_all) continue;
          if (trial.size() < result.adversarial.size() &&
              !oracle.query(trial)) {
            result.adversarial = trial;
          }
        }
      }
      return result;
    }
  }
  return result;
}

}  // namespace mpass::attack
