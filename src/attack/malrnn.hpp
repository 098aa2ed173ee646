// MalRNN: byte-level language-model append attack (Ebrahimi et al. 2020 --
// reference [14] of the paper).
//
// A GRU language model trained on benign programs generates benign-looking
// byte streams that are appended to the malware overlay in growing chunks;
// one hard-label query per append. Effective against byte-level detectors
// whose features the appended tail can dilute, largely ineffective against
// feature-space models (LightGBM row of Table I).
#pragma once

#include "attack/attack.hpp"
#include "ml/gru.hpp"

namespace mpass::attack {

class MalRnn : public Attack {
 public:
  /// lm: the benign byte language model (ModelZoo::benign_lm()).
  explicit MalRnn(const ml::GruLm& lm) : lm_(lm) {}

  std::string_view name() const override { return "MalRNN"; }

  AttackResult run(std::span<const std::uint8_t> malware,
                   detect::HardLabelOracle& oracle,
                   std::uint64_t seed) override;

  /// Clones share the language model: GruLm::generate() is const and reads
  /// only the trained parameters and the inference tables packed eagerly
  /// when they last changed (no lazy buffers; scratch is per call), so
  /// concurrent sampling with per-clone Rng streams is race-free
  /// (GruLm.ConcurrentGenerateMatchesSequential, run under TSan in CI).
  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<MalRnn>(*this);
  }

 private:
  const ml::GruLm& lm_;
};

}  // namespace mpass::attack
