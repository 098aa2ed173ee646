// Concrete detector implementations: the four offline models of §IV-A.
//
//   MalConv  -> ByteConvDetector (gated conv byte net)
//   NonNeg   -> ByteConvDetector with non-negative dense weights
//   MalGCG   -> ByteConvDetector with global channel gating
//   LightGBM -> GbdtDetector over EMBER-style features
#pragma once

#include <memory>

#include "detectors/detector.hpp"
#include "detectors/features.hpp"
#include "ml/byteconv.hpp"
#include "ml/gbdt.hpp"

namespace mpass::detect {

/// Byte-level neural detector. The underlying net is exposed because MPass's
/// optimization uses *known* models' gradients (white-box surrogates),
/// while targets are only ever queried through HardLabelOracle.
class ByteConvDetector : public Detector {
 public:
  ByteConvDetector(std::string name, const ml::ByteConvConfig& cfg,
                   std::uint64_t seed)
      : name_(std::move(name)), net_(cfg, seed) {}

  std::string_view name() const override { return name_; }

  /// Incremental scoring: query-based attacks (MAB's per-pull mutations,
  /// GAMMA's genome variants, MPass's optimized re-queries) score buffers
  /// differing from the previous query in a few windows, so the net's
  /// forward_auto diffs against its cached forward and re-convolves only
  /// the changed timesteps. Bit-for-bit equal to a full forward.
  double score(std::span<const std::uint8_t> bytes) const override {
    return net_.forward_auto(bytes);
  }

  /// Deep copy (ByteConvNet's copy constructor gives the clone private
  /// parameters; activation caches start cold).
  std::unique_ptr<Detector> clone() const override {
    return std::make_unique<ByteConvDetector>(*this);
  }

  ml::ByteConvNet& net() const { return net_; }

  void save(util::Archive& ar) const;
  void load(util::Unarchive& ar);

 private:
  std::string name_;
  // forward() caches activations; scoring is logically const.
  mutable ml::ByteConvNet net_;
};

/// Feature-space GBDT detector (the "LightGBM"/EMBER model). With
/// vendor_features enabled it additionally consumes the commercial-AV
/// heuristic block (entry-point placement etc., see features.hpp).
class GbdtDetector : public Detector {
 public:
  GbdtDetector(std::string name, const ml::GbdtConfig& cfg,
               bool vendor_features = false)
      : name_(std::move(name)), gbdt_(cfg), vendor_(vendor_features) {}

  std::string_view name() const override { return name_; }

  double score(std::span<const std::uint8_t> bytes) const override {
    const std::vector<float> f = features(bytes);
    return gbdt_.predict(f);
  }

  std::unique_ptr<Detector> clone() const override {
    return std::make_unique<GbdtDetector>(*this);
  }

  /// The feature extraction this detector was configured with.
  std::vector<float> features(std::span<const std::uint8_t> bytes) const {
    return vendor_ ? extract_vendor_features(bytes) : extract_features(bytes);
  }

  bool vendor_features() const { return vendor_; }
  ml::Gbdt& gbdt() { return gbdt_; }
  const ml::Gbdt& gbdt() const { return gbdt_; }

  void save(util::Archive& ar) const;
  void load(util::Unarchive& ar);

 private:
  std::string name_;
  ml::Gbdt gbdt_;
  bool vendor_ = false;
};

/// Standard architectures for the four offline detectors.
ml::ByteConvConfig malconv_config();
ml::ByteConvConfig nonneg_config();
ml::ByteConvConfig malgcg_config();
ml::GbdtConfig lightgbm_config();

}  // namespace mpass::detect
