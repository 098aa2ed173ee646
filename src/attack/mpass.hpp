// MPass: the full hard-label black-box attack (paper §III). The ablation
// variants of §V (Other-sec, Random-data, no shuffle) are MpassConfig
// settings; harness::make_attack names them.
//
// Workflow per sample (Fig. 1): modify with an initial perturbation from a
// randomly selected benign program + recovery module; query the target;
// on failure, optimize the perturbation on the known-model ensemble and
// re-query; re-initialize with a fresh donor if a donor stalls; stop at
// success or query exhaustion. Every AE is function-preserving by
// construction (runtime recovery + key co-updates).
#pragma once

#include "attack/attack.hpp"
#include "core/modification.hpp"
#include "ml/byteconv.hpp"

namespace mpass::attack {

struct MpassConfig {
  core::ModificationConfig modification;
  // Table VI ablation: random bytes at I, no optimization.
  bool random_content = false;
};

class Mpass : public Attack {
 public:
  /// benign_pool: attacker-harvested benign programs (donors).
  /// known: differentiable known models (empty => no optimization). The
  /// attack copies them, so its forward caches are its own and instances
  /// run safely on concurrent threads.
  Mpass(std::string name, MpassConfig cfg,
        std::span<const util::ByteBuf> benign_pool,
        std::span<ml::ByteConvNet* const> known);

  std::string_view name() const override { return name_; }

  AttackResult run(std::span<const std::uint8_t> malware,
                   detect::HardLabelOracle& oracle,
                   std::uint64_t seed) override;

  /// Copies the pool and the known models; the copied nets start with cold
  /// caches, so a clone never shares forward state with this instance.
  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<Mpass>(*this);
  }

 private:
  std::string name_;
  MpassConfig cfg_;
  std::vector<util::ByteBuf> pool_;
  std::vector<ml::ByteConvNet> known_;
};

}  // namespace mpass::attack
