// RLA: the reinforcement-learning evasion attack (Anderson et al., Black
// Hat 2017 "gym-malware" -- reference [21] of the paper).
//
// A tabular Q-learning agent over coarse PE-state fingerprints chooses
// manipulation actions (including the risky overlay actions that cause the
// 23% functionality-broken AEs reported in §IV-A). Each mutation costs one
// hard-label query; the policy persists across the episodes of one run. The
// harness runs each sample on a fresh clone, so it never carries over to
// another sample.
#pragma once

#include <unordered_map>

#include "attack/actions.hpp"
#include "attack/attack.hpp"

namespace mpass::attack {

class Rla : public Attack {
 public:
  explicit Rla(std::span<const util::ByteBuf> benign_pool)
      : pool_(benign_pool.begin(), benign_pool.end()) {}

  std::string_view name() const override { return "RLA"; }

  AttackResult run(std::span<const std::uint8_t> malware,
                   detect::HardLabelOracle& oracle,
                   std::uint64_t seed) override;

  /// Copies the Q-table as-is; a clone taken before any run starts from a
  /// blank policy (the per-sample parallel harness does exactly that).
  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<Rla>(*this);
  }

 private:
  double& q(std::uint64_t state, std::size_t action);
  std::size_t choose(std::uint64_t state, util::Rng& rng);

  std::vector<util::ByteBuf> pool_;
  std::unordered_map<std::uint64_t, std::array<double, kNumActions>> qtable_;
};

}  // namespace mpass::attack
