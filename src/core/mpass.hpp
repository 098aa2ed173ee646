// MPass: the full hard-label black-box attack (paper §III).
//
// Workflow per sample (Fig. 1): modify with an initial perturbation from a
// randomly selected benign program + recovery module; query the target;
// on failure, optimize the perturbation on the known-model ensemble and
// re-query; re-initialize with a fresh donor if a donor stalls; stop at
// success or query exhaustion. Every AE is function-preserving by
// construction (runtime recovery + key co-updates).
#pragma once

#include "core/optimizer.hpp"
#include "detectors/detector.hpp"

namespace mpass::core {

struct MpassConfig {
  ModificationConfig modification;
  int opt_steps_per_query = 2;   // ensemble steps between target queries
  int queries_per_donor = 8;     // re-roll the donor after this many misses
  // Only spend a query once the ensemble consensus is at most this
  // confident (or the extra-step budget is exhausted) -- queries are the
  // scarce resource, local optimization is free.
  float query_gate_score = 0.35f;
  int max_gate_steps = 6;
  bool optimize = true;          // false: initial perturbation only
  bool random_content = false;   // Table VI ablation: random bytes at I
};

/// Query counts come from the oracle (HardLabelOracle::queries and
/// first_evasion), APR from the returned bytes (attack::apr_of).
struct MpassResult {
  bool success = false;
  util::ByteBuf adversarial;   // best-effort sample even on failure
};

class Mpass {
 public:
  /// benign_pool: attacker-harvested benign programs (donors).
  /// known: differentiable known models (empty => no optimization).
  Mpass(MpassConfig cfg, std::span<const util::ByteBuf> benign_pool,
        std::vector<ml::ByteConvNet*> known);

  /// Attacks one malware sample through the hard-label oracle.
  MpassResult run(std::span<const std::uint8_t> malware,
                  detect::HardLabelOracle& oracle, std::uint64_t seed) const;

  const MpassConfig& config() const { return cfg_; }

  /// Attacker assets, exposed so adapters can deep-copy an attack
  /// (MpassAttack::clone re-clones the known models from these).
  std::span<const util::ByteBuf> pool() const { return pool_; }
  std::span<ml::ByteConvNet* const> known() const { return known_; }

 private:
  MpassConfig cfg_;
  std::vector<util::ByteBuf> pool_;
  std::vector<ml::ByteConvNet*> known_;
};

}  // namespace mpass::core
