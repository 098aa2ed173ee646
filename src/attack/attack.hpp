// Common interface for all evasion attacks (MPass, RLA, MAB, GAMMA, MalRNN,
// and the packer obfuscators), so the experiment harness measures ASR / AVQ /
// APR identically across methods through the shared hard-label oracle.
#pragma once

#include <memory>
#include <string>

#include "detectors/detector.hpp"

namespace mpass::attack {

/// What only the attack knows. Query counts (AVQ) come from the oracle and
/// APR from the returned bytes; the harness derives both.
struct AttackResult {
  bool success = false;
  util::ByteBuf adversarial;  // best-effort output even on failure
};

class Attack {
 public:
  virtual ~Attack() = default;

  virtual std::string_view name() const = 0;

  /// Attacks one malware sample through the hard-label oracle; the oracle
  /// carries the per-sample query budget. Attacks may keep cross-sample
  /// state (RL policies, bandit posteriors) -- real attackers do.
  virtual AttackResult run(std::span<const std::uint8_t> malware,
                           detect::HardLabelOracle& oracle,
                           std::uint64_t seed) = 0;

  /// Deep copy of this attack's current state (donor pools, learned
  /// policies, owned surrogate models). The harness gives every parallel
  /// (target, attack, sample) task its own clone, so per-sample runs are
  /// independent of scheduling order. Returning nullptr marks the attack
  /// non-clonable; such attacks run their samples sequentially on the
  /// shared instance (order-dependent cross-sample state preserved).
  virtual std::unique_ptr<Attack> clone() const { return nullptr; }
};

/// APR of an AE: (|adv| - |orig|) / |orig|, 0 for an empty original.
double apr_of(std::size_t original_size, std::size_t adversarial_size);

}  // namespace mpass::attack
