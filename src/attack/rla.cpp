#include "attack/rla.hpp"

#include "obs/span.hpp"

namespace mpass::attack {

using util::ByteBuf;

double& Rla::q(std::uint64_t state, std::size_t action) {
  auto [it, inserted] = qtable_.try_emplace(state);
  if (inserted) it->second.fill(0.0);
  return it->second[action];
}

std::size_t Rla::choose(std::uint64_t state, util::Rng& rng) {
  if (rng.chance(cfg_.epsilon)) return rng.below(kNumActions);
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
    for (int step = 0; step < cfg_.max_episode_len && !oracle.exhausted();
         ++step) {
      const std::size_t a = choose(state, rng);
      auto mutated =
          apply_action(static_cast<Action>(a), current, pool_, rng);
      if (!mutated) {
        q(state, a) += cfg_.alpha * (-0.05 - q(state, a));  // useless action
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
      q(state, a) +=
          cfg_.alpha * (reward + cfg_.gamma * next_max - q(state, a));
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
