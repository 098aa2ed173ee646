#include "detectors/avsim.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "detectors/training.hpp"
#include "util/hashing.hpp"
#include "util/stats.hpp"

namespace mpass::detect {

using util::ByteBuf;

// ---- SignatureDb -----------------------------------------------------------

void SignatureDb::add(ByteBuf pattern) {
  patterns_.push_back(std::move(pattern));
}

bool SignatureDb::matches(std::span<const std::uint8_t> bytes) const {
  for (const ByteBuf& p : patterns_) {
    if (p.empty() || p.size() > bytes.size()) continue;
    const void* hit = memmem(bytes.data(), bytes.size(), p.data(), p.size());
    if (hit != nullptr) return true;
  }
  return false;
}

void SignatureDb::save(util::Archive& ar) const {
  ar.tag("sigdb");
  ar.u32(static_cast<std::uint32_t>(patterns_.size()));
  for (const ByteBuf& p : patterns_) ar.bytes(p);
}

void SignatureDb::load(util::Unarchive& ar) {
  ar.tag("sigdb");
  patterns_.assign(ar.u32(), {});
  for (ByteBuf& p : patterns_) p = ar.bytes();
}

// ---- signature mining -------------------------------------------------------

std::vector<ByteBuf> mine_signatures(std::span<const ByteBuf> malicious,
                                     std::span<const ByteBuf> benign,
                                     std::size_t ngram, std::size_t max_sigs,
                                     double min_doc_frac) {
  if (malicious.empty() || ngram == 0) return {};

  // Hash set of every benign n-gram (stride 1: the whitelist must be tight).
  std::unordered_set<std::uint64_t> benign_grams;
  for (const ByteBuf& doc : benign) {
    if (doc.size() < ngram) continue;
    for (std::size_t i = 0; i + ngram <= doc.size(); ++i)
      benign_grams.insert(util::fnv1a64({doc.data() + i, ngram}));
  }

  // Document frequency of malicious n-grams (stride 2 for speed; exemplar
  // bytes kept for the first occurrence).
  struct Entry {
    std::size_t docs = 0;
    const std::uint8_t* exemplar = nullptr;
  };
  std::unordered_map<std::uint64_t, Entry> freq;
  std::unordered_set<std::uint64_t> seen_in_doc;
  for (const ByteBuf& doc : malicious) {
    if (doc.size() < ngram) continue;
    seen_in_doc.clear();
    for (std::size_t i = 0; i + ngram <= doc.size(); i += 2) {
      const std::uint64_t h = util::fnv1a64({doc.data() + i, ngram});
      if (benign_grams.contains(h)) continue;
      if (!seen_in_doc.insert(h).second) continue;
      Entry& e = freq[h];
      ++e.docs;
      if (!e.exemplar) e.exemplar = doc.data() + i;
    }
  }

  const std::size_t min_docs = std::max<std::size_t>(
      1, static_cast<std::size_t>(min_doc_frac *
                                  static_cast<double>(malicious.size())));
  std::vector<std::pair<std::size_t, const std::uint8_t*>> ranked;
  for (const auto& [h, e] : freq)
    if (e.docs >= min_docs) ranked.emplace_back(e.docs, e.exemplar);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<ByteBuf> out;
  out.reserve(std::min(max_sigs, ranked.size()));
  for (const auto& [docs, ptr] : ranked) {
    if (out.size() >= max_sigs) break;
    out.emplace_back(ptr, ptr + ngram);
  }
  return out;
}

// ---- profiles ---------------------------------------------------------------

std::vector<AvProfile> default_av_profiles() {
  using Model = AvProfile::Model;
  std::vector<AvProfile> v;
  // AV1 "MAX": feature-space GBDT with vendor heuristics, mid signature DB.
  v.push_back({"AV1", Model::Gbdt, 0.015, 160, 0.05, 101, 250, 250});
  // AV2 "CrowdStrike": hybrid (byte net + heuristic GBDT), larger sig DB.
  v.push_back({"AV2", Model::Hybrid, 0.015, 220, 0.05, 202, 300, 300});
  // AV3 "Acronis": pure byte-level model, small signature DB (most
  // code/data focused -- the AV MPass evades best, Fig. 3).
  v.push_back({"AV3", Model::ByteConv, 0.02, 60, 0.10, 303, 200, 200});
  // AV4 "SentinelOne": channel-gated byte net, small-mid signature DB.
  v.push_back({"AV4", Model::ByteConvGcg, 0.015, 90, 0.08, 404, 250, 250});
  // AV5 "Cylance": hybrid ensemble + big signature DB + strict threshold
  // (hardest target).
  v.push_back({"AV5", Model::Hybrid, 0.03, 300, 0.04, 505, 350, 350});
  return v;
}

// ---- CommercialAv -------------------------------------------------------------

CommercialAv::CommercialAv(AvProfile profile, Untrained)
    : profile_(std::move(profile)) {
  using Model = AvProfile::Model;
  if (profile_.model == Model::Gbdt || profile_.model == Model::Hybrid) {
    ml::GbdtConfig cfg = lightgbm_config();
    cfg.trees = 120;
    gbdt_ = std::make_unique<GbdtDetector>(profile_.name + "-gbdt", cfg,
                                           /*vendor_features=*/true);
  }
  if (profile_.model != Model::Gbdt) {
    ml::ByteConvConfig cfg = profile_.model == Model::ByteConvGcg
                                 ? malgcg_config()
                                 : malconv_config();
    cfg.filters = 20;
    net_ = std::make_unique<ByteConvDetector>(profile_.name + "-net", cfg,
                                              profile_.seed);
  }
}

CommercialAv::CommercialAv(AvProfile profile,
                           const corpus::Dataset& shared_train)
    : profile_(std::move(profile)) {
  // Vendor corpus = shared feed + vendor-private telemetry.
  corpus::Dataset vendor = shared_train;
  const std::uint64_t base = util::fnv1a64(profile_.name) ^ profile_.seed;
  for (std::size_t i = 0; i < profile_.vendor_malware; ++i) {
    corpus::CompiledSample s =
        corpus::make_malware(util::hash_combine(base, 0xA0 + i));
    vendor.samples.push_back({s.bytes(), 1, std::move(s.meta)});
  }
  for (std::size_t i = 0; i < profile_.vendor_benign; ++i) {
    corpus::CompiledSample s =
        corpus::make_benign(util::hash_combine(base, 0xB0 + i));
    vendor.samples.push_back({s.bytes(), 0, std::move(s.meta)});
  }

  // Train the ML component.
  using Model = AvProfile::Model;
  if (profile_.model == Model::Gbdt || profile_.model == Model::Hybrid) {
    ml::GbdtConfig cfg = lightgbm_config();
    cfg.trees = 120;
    gbdt_ = std::make_unique<GbdtDetector>(profile_.name + "-gbdt", cfg,
                                           /*vendor_features=*/true);
    train_gbdt(*gbdt_, vendor, profile_.seed);
  }
  if (profile_.model != Model::Gbdt) {
    ml::ByteConvConfig cfg = profile_.model == Model::ByteConvGcg
                                 ? malgcg_config()
                                 : malconv_config();
    cfg.filters = 20;
    net_ = std::make_unique<ByteConvDetector>(profile_.name + "-net", cfg,
                                              profile_.seed);
    NetTrainConfig tc;
    tc.epochs = 2;
    tc.seed = profile_.seed;
    train_net(*net_, vendor, tc);
  }

  // Vendor benign whitelist + initial signatures from known malware.
  std::vector<ByteBuf> mal_docs, ben_docs;
  for (const corpus::Sample& s : vendor.samples)
    (s.label ? mal_docs : ben_docs).push_back(s.bytes);
  benign_ref_ = ben_docs;
  for (ByteBuf& sig :
       mine_signatures(mal_docs, ben_docs, 12, profile_.max_sigs,
                       profile_.min_doc_frac))
    sigs_.add(std::move(sig));

  // Calibrate the ML threshold on the vendor corpus.
  corpus::Dataset calib = vendor;
  std::vector<double> scores;
  std::vector<int> labels;
  for (const corpus::Sample& s : calib.samples) {
    scores.push_back(model_score(s.bytes));
    labels.push_back(s.label);
  }
  set_threshold(util::threshold_for_fpr(scores, labels, profile_.target_fpr));
}

double CommercialAv::model_score(std::span<const std::uint8_t> bytes) const {
  switch (profile_.model) {
    case AvProfile::Model::Gbdt:
      return gbdt_->score(bytes);
    case AvProfile::Model::ByteConv:
    case AvProfile::Model::ByteConvGcg:
      return net_->score(bytes);
    case AvProfile::Model::Hybrid:
      return std::max(gbdt_->score(bytes), net_->score(bytes));
  }
  return 0.0;
}

double CommercialAv::score(std::span<const std::uint8_t> bytes) const {
  if (sigs_.matches(bytes)) return 1.0;
  return model_score(bytes);
}

std::size_t CommercialAv::update(std::span<const ByteBuf> submissions) {
  if (submissions.empty()) return 0;
  std::vector<ByteBuf> fresh = mine_signatures(
      submissions, benign_ref_, 12,
      /*max_sigs=*/64, /*min_doc_frac=*/std::max(0.08, profile_.min_doc_frac));
  std::size_t added = 0;
  for (ByteBuf& sig : fresh) {
    sigs_.add(std::move(sig));
    ++added;
  }
  return added;
}

std::unique_ptr<Detector> CommercialAv::clone() const {
  auto copy = std::make_unique<CommercialAv>(profile_, Untrained{});
  util::Archive ar;
  save(ar);
  const ByteBuf blob = ar.take();
  util::Unarchive un(blob);
  copy->load(un);
  return copy;
}

void CommercialAv::save(util::Archive& ar) const {
  ar.tag("commercial-av");
  ar.str(profile_.name);
  ar.f64(threshold());
  ar.u32(static_cast<std::uint32_t>(profile_.model));
  if (gbdt_) gbdt_->save(ar);
  if (net_) net_->save(ar);
  sigs_.save(ar);
  ar.u32(static_cast<std::uint32_t>(benign_ref_.size()));
  for (const ByteBuf& b : benign_ref_) ar.bytes(b);
}

void CommercialAv::load(util::Unarchive& ar) {
  ar.tag("commercial-av");
  profile_.name = ar.str();
  set_threshold(ar.f64());
  const auto model = static_cast<AvProfile::Model>(ar.u32());
  if (model != profile_.model)
    throw util::ParseError("commercial-av: model kind mismatch");
  if (gbdt_) gbdt_->load(ar);
  if (net_) net_->load(ar);
  sigs_.load(ar);
  benign_ref_.assign(ar.u32(), {});
  for (ByteBuf& b : benign_ref_) b = ar.bytes();
}

}  // namespace mpass::detect
