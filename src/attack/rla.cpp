#include "attack/rla.hpp"

#include "obs/span.hpp"

namespace mpass::attack {

using util::ByteBuf;

constexpr int kMaxEpisodeLen = 10;  // mutations per episode before reset
constexpr double kEpsilon = 0.25;   // exploration rate
constexpr double kAlpha = 0.2;      // learning rate
constexpr double kGamma = 0.9;      // discount

double& Rla::q(std::uint64_t state, std::size_t action) {
  auto [it, inserted] = qtable_.try_emplace(state);
  if (inserted) it->second.fill(0.0);
  return it->second[action];
}

std::size_t Rla::choose(std::uint64_t state, util::Rng& rng) {
  if (rng.chance(kEpsilon)) return rng.below(kNumActions);
  auto [it, inserted] = qtable_.try_emplace(state);
  if (inserted) it->second.fill(0.0);
  std::size_t best = 0;
  for (std::size_t a = 1; a < kNumActions; ++a)
    if (it->second[a] > it->second[best]) best = a;
  return best;
}

AttackResult Rla::run(std::span<const std::uint8_t> malware,
                      detect::HardLabelOracle& oracle, std::uint64_t seed) {
  OBS_SCOPE("attack.rla.run");
  util::Rng rng(seed);
  AttackResult result;
  result.adversarial.assign(malware.begin(), malware.end());

  while (!oracle.exhausted()) {
    // One episode: mutate from the pristine sample.
    ByteBuf current(malware.begin(), malware.end());
    std::uint64_t state = state_fingerprint(current);
    for (int step = 0; step < kMaxEpisodeLen && !oracle.exhausted(); ++step) {
      const std::size_t a = choose(state, rng);
      auto mutated =
          apply_action(static_cast<Action>(a), current, pool_, rng);
      if (!mutated) {
        q(state, a) += kAlpha * (-0.05 - q(state, a));  // useless action
        continue;
      }
      current = std::move(*mutated);
      const bool detected = oracle.query(current);
      const std::uint64_t next = state_fingerprint(current);
      const double reward = detected ? -0.01 : 1.0;
      auto [it, inserted] = qtable_.try_emplace(next);
      if (inserted) it->second.fill(0.0);
      double next_max = 0.0;
      for (double v : it->second) next_max = std::max(next_max, v);
      q(state, a) += kAlpha * (reward + kGamma * next_max - q(state, a));
      state = next;

      if (!detected) {
        result.success = true;
        result.adversarial = current;
        return result;
      }
    }
  }
  return result;
}

}  // namespace mpass::attack
