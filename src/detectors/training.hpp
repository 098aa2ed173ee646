// Training and calibration for the offline detectors.
//
// Thresholds are calibrated to a target false-positive rate on held-out
// benign samples, the way deployed ML AVs are tuned.
#pragma once

#include "corpus/generator.hpp"
#include "detectors/models.hpp"

namespace mpass::detect {

struct EvalReport {
  double accuracy = 0.0;
  double auc = 0.0;
  double tpr = 0.0;  // detection rate at the calibrated threshold
  double fpr = 0.0;
};

/// Scores a whole dataset and evaluates at the detector's threshold.
EvalReport evaluate(const Detector& detector, const corpus::Dataset& data);

/// Sets the threshold achieving fpr <= max_fpr on `data` (benign scores).
void calibrate_threshold(Detector& detector, const corpus::Dataset& data,
                         double max_fpr);

struct NetTrainConfig {
  int epochs = 3;
  float lr = 1e-3f;
  std::uint64_t seed = 7;
};

/// Trains a ByteConvDetector with Adam + BCE over minibatches of 4; applies
/// the non-negativity clamp after each step when the architecture requires
/// it.
/// Returns final-epoch mean training loss.
float train_net(ByteConvDetector& detector, const corpus::Dataset& train,
                const NetTrainConfig& cfg);

/// Fits the GBDT detector on extracted features.
void train_gbdt(GbdtDetector& detector, const corpus::Dataset& train,
                std::uint64_t seed = 7);

}  // namespace mpass::detect
