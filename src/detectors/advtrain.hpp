// Adversarial training for byte detectors (paper §VI, "Adversarial
// training"). The paper argues both standard flavors fail against MPass:
//
//  * PGD-AT-style gradient AEs perturb bytes without function preservation,
//    so they lie off the distribution of real function-preserving AEs and
//    barely help;
//  * mixing MPass's own AEs into training ("classic adversarial training",
//    50/50 with clean malware) suppresses MPass's ASR by less than 10%,
//    because the space of malware AEs is too large to cover by sampling.
//
// This module implements both so the claim can be measured
// (bench_advtrain).
#pragma once

#include "corpus/generator.hpp"
#include "detectors/models.hpp"
#include "detectors/training.hpp"

namespace mpass::detect {

struct AdvTrainConfig {
  int epochs = 2;
  float lr = 1e-3f;
};

/// PGD-AT-style training: each malware sample is accompanied by a
/// gradient-crafted byte-level AE (not function-preserving, as the paper
/// notes). Returns final-epoch mean loss.
float adversarial_train_pgd(ByteConvDetector& detector,
                            const corpus::Dataset& train,
                            const AdvTrainConfig& cfg);

/// Classic adversarial training: fine-tunes on clean data plus the provided
/// AEs labeled malicious (paper mixes AE/clean 50/50).
/// Returns final-epoch mean loss.
float adversarial_train_with_aes(ByteConvDetector& detector,
                                 const corpus::Dataset& train,
                                 std::span<const util::ByteBuf> aes,
                                 const AdvTrainConfig& cfg);

}  // namespace mpass::detect
