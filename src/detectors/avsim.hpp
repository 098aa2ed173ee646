// Commercial ML-AV simulators: the five real-world targets of §IV-B
// (MAX, CrowdStrike, Acronis, SentinelOne, Cylance -- AV1..AV5).
//
// Each AV couples (a) an ML model -- GBDT, byte-conv net, or a hybrid
// ensemble, trained on its own vendor corpus -- with (b) a byte-signature
// database mined from known malware (n-grams frequent in malware and absent
// from the vendor's benign corpus), and (c) a *learning* update: newly
// submitted malicious samples are mined for new shared signatures, modeling
// the weekly-update dynamics of Fig. 4. The paper verifies these AVs are
// ML-based and not hash-based (Table VI); our simulators likewise score
// content, never hashes.
#pragma once

#include <memory>

#include "corpus/generator.hpp"
#include "detectors/models.hpp"

namespace mpass::detect {

/// Byte-pattern signature database with substring matching.
class SignatureDb {
 public:
  void add(util::ByteBuf pattern);
  std::size_t size() const { return patterns_.size(); }
  bool matches(std::span<const std::uint8_t> bytes) const;

  void save(util::Archive& ar) const;
  void load(util::Unarchive& ar);

 private:
  std::vector<util::ByteBuf> patterns_;
};

/// Mines n-gram signatures: byte n-grams occurring in at least
/// min_doc_frac of the malicious documents and in none of the benign ones.
/// Returns up to max_sigs patterns ranked by document frequency.
std::vector<util::ByteBuf> mine_signatures(
    std::span<const util::ByteBuf> malicious,
    std::span<const util::ByteBuf> benign, std::size_t ngram,
    std::size_t max_sigs, double min_doc_frac);

/// Static configuration of one simulated AV.
struct AvProfile {
  std::string name;
  enum class Model { Gbdt, ByteConv, ByteConvGcg, Hybrid } model;
  double target_fpr = 0.01;
  std::size_t max_sigs = 150;
  double min_doc_frac = 0.05;
  std::uint64_t seed = 1;
  std::size_t vendor_malware = 250;  // extra vendor-private training data
  std::size_t vendor_benign = 250;
};

/// The five default profiles (AV1..AV5).
std::vector<AvProfile> default_av_profiles();

/// One simulated commercial ML AV.
class CommercialAv : public Detector {
 public:
  /// Trains the model on shared + vendor-private data and seeds the
  /// signature DB from the vendor's malware corpus.
  CommercialAv(AvProfile profile, const corpus::Dataset& shared_train);

  /// Tag type: build the right model shapes without training (cache loads).
  struct Untrained {};
  CommercialAv(AvProfile profile, Untrained);

  std::string_view name() const override { return profile_.name; }
  double score(std::span<const std::uint8_t> bytes) const override;

  /// Deep copy via the archive round-trip (model weights, signature DB,
  /// benign whitelist, threshold).
  std::unique_ptr<Detector> clone() const override;

  /// Weekly learning update: mines new signatures shared across the
  /// submitted (vendor-sandbox-confirmed malicious) samples.
  /// Returns the number of new signatures added.
  std::size_t update(std::span<const util::ByteBuf> submissions);

  const SignatureDb& signatures() const { return sigs_; }

  void save(util::Archive& ar) const;
  void load(util::Unarchive& ar);

 private:
  double model_score(std::span<const std::uint8_t> bytes) const;

  AvProfile profile_;
  std::unique_ptr<GbdtDetector> gbdt_;
  std::unique_ptr<ByteConvDetector> net_;
  SignatureDb sigs_;
  std::vector<util::ByteBuf> benign_ref_;  // vendor benign corpus (whitelist)
};

}  // namespace mpass::detect
