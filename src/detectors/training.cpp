#include "detectors/training.hpp"

#include "util/stats.hpp"

namespace mpass::detect {

EvalReport evaluate(const Detector& detector, const corpus::Dataset& data) {
  std::vector<double> scores;
  std::vector<int> labels;
  scores.reserve(data.samples.size());
  for (const corpus::Sample& s : data.samples) {
    scores.push_back(detector.score(s.bytes));
    labels.push_back(s.label);
  }
  const util::Confusion c =
      util::confusion_at(scores, labels, detector.threshold());
  EvalReport r;
  r.accuracy = c.accuracy();
  r.tpr = c.tpr();
  r.fpr = c.fpr();
  r.auc = util::auc(scores, labels);
  return r;
}

void calibrate_threshold(Detector& detector, const corpus::Dataset& data,
                         double max_fpr) {
  std::vector<double> scores;
  std::vector<int> labels;
  for (const corpus::Sample& s : data.samples) {
    scores.push_back(detector.score(s.bytes));
    labels.push_back(s.label);
  }
  detector.set_threshold(util::threshold_for_fpr(scores, labels, max_fpr));
}

constexpr int kBatch = 4;  // samples per Adam step

float train_net(ByteConvDetector& detector, const corpus::Dataset& train,
                const NetTrainConfig& cfg) {
  ml::ByteConvNet& net = detector.net();
  ml::Adam opt(net.params(), cfg.lr);
  util::Rng rng(cfg.seed);

  std::vector<std::size_t> order(train.samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  float last_epoch_loss = 0.0f;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    int in_batch = 0;
    for (std::size_t idx : order) {
      const corpus::Sample& s = train.samples[idx];
      net.forward(s.bytes);
      epoch_loss += net.backward(static_cast<float>(s.label));
      if (++in_batch == kBatch) {
        opt.step();
        net.clamp_nonneg();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      opt.step();
      net.clamp_nonneg();
    }
    last_epoch_loss =
        static_cast<float>(epoch_loss / static_cast<double>(order.size()));
  }
  return last_epoch_loss;
}

void train_gbdt(GbdtDetector& detector, const corpus::Dataset& train,
                std::uint64_t seed) {
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  x.reserve(train.samples.size());
  for (const corpus::Sample& s : train.samples) {
    x.push_back(detector.features(s.bytes));
    y.push_back(s.label);
  }
  detector.gbdt().fit(x, y, seed);
}

}  // namespace mpass::detect
