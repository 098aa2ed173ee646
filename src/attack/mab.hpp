// MAB: the multi-armed-bandit evasion attack (Song et al., AsiaCCS 2022 --
// reference [15] of the paper).
//
// Thompson sampling with Beta posteriors over the functionality-safe action
// arms; mutations accumulate on a working copy, one query per pull. On
// success a minimization pass re-queries trimmed variants to reduce the
// file-size overhead (MAB-malware's "minimization" stage).
#pragma once

#include <array>

#include "attack/actions.hpp"
#include "attack/attack.hpp"

namespace mpass::attack {

class Mab : public Attack {
 public:
  explicit Mab(std::span<const util::ByteBuf> benign_pool)
      : pool_(benign_pool.begin(), benign_pool.end()) {
    alpha_.fill(1.0);
    beta_.fill(1.0);
  }

  std::string_view name() const override { return "MAB"; }

  AttackResult run(std::span<const std::uint8_t> malware,
                   detect::HardLabelOracle& oracle,
                   std::uint64_t seed) override;

  /// Copies the Beta posteriors as-is (uniform priors before any run).
  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<Mab>(*this);
  }

 private:
  std::size_t sample_arm(util::Rng& rng);

  std::vector<util::ByteBuf> pool_;
  // Beta posteriors per safe arm (risky arms are excluded from MAB).
  std::array<double, kNumActions> alpha_{}, beta_{};
};

}  // namespace mpass::attack
