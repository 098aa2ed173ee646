// Tests for feature extraction, detector training/calibration, the
// hard-label oracle, and the commercial-AV simulators (signature mining).
#include <gtest/gtest.h>

#include <cmath>

#include "corpus/generator.hpp"
#include "detectors/avsim.hpp"
#include "detectors/features.hpp"
#include "detectors/models.hpp"
#include "detectors/training.hpp"
#include "util/rng.hpp"

namespace mpass::detect {
namespace {

using util::ByteBuf;

corpus::Dataset tiny_dataset(std::uint64_t seed, std::size_t per_class) {
  return corpus::generate_dataset(seed, per_class, per_class);
}

TEST(Features, FixedDimensionAndFiniteValues) {
  const ByteBuf sample = corpus::make_malware(100).bytes();
  const std::vector<float> f = extract_features(sample);
  EXPECT_EQ(f.size(), feature_dim());
  for (float v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(Features, ToleratesGarbageAndEmptyInput) {
  util::Rng rng(1);
  const std::vector<float> f1 = extract_features(rng.bytes(2000));
  EXPECT_EQ(f1.size(), feature_dim());
  const std::vector<float> f2 = extract_features(ByteBuf{});
  EXPECT_EQ(f2.size(), feature_dim());
  // parse_ok flag must be 0 for garbage.
  const auto names = parsed_feature_names();
  const std::size_t base = 512;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == "parse_ok") {
      EXPECT_EQ(f1[base + i], 0.0f);
      EXPECT_EQ(f2[base + i], 0.0f);
    }
}

TEST(Features, SeparateClassesOnAverage) {
  // Mean hard-import count and code syscall stats should differ by class.
  const auto names = parsed_feature_names();
  auto idx_of = [&](std::string_view n) {
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == n) return 512 + i;
    return std::size_t{0};
  };
  const std::size_t hard_idx = idx_of("code_sys_hard");
  double mal = 0, ben = 0;
  for (int i = 0; i < 10; ++i) {
    mal += extract_features(corpus::make_malware(200 + i).bytes())[hard_idx];
    ben += extract_features(corpus::make_benign(200 + i).bytes())[hard_idx];
  }
  EXPECT_GT(mal, ben);
}

TEST(Detectors, HardLabelOracleCountsQueries) {
  // A detector with a fixed verdict.
  class Fixed : public Detector {
   public:
    std::string_view name() const override { return "fixed"; }
    double score(std::span<const std::uint8_t>) const override { return 1.0; }
  };
  Fixed det;
  HardLabelOracle oracle(det, 3);
  const ByteBuf x(10, 0);
  EXPECT_TRUE(oracle.query(x));
  EXPECT_EQ(oracle.queries(), 1u);
  EXPECT_FALSE(oracle.exhausted());
  oracle.query(x);
  oracle.query(x);
  EXPECT_TRUE(oracle.exhausted());
  EXPECT_EQ(oracle.first_evasion(), 0u);  // never answered benign
}

TEST(Detectors, HardLabelOracleRecordsFirstEvasion) {
  // Verdict = first byte: nonzero files are malicious.
  class FirstByte : public Detector {
   public:
    std::string_view name() const override { return "first-byte"; }
    double score(std::span<const std::uint8_t> b) const override {
      return b[0] ? 1.0 : 0.0;
    }
  };
  FirstByte det;
  HardLabelOracle oracle(det, 10);
  const ByteBuf mal(4, 1), ben(4, 0);
  for (const ByteBuf* x : {&mal, &mal, &ben, &mal, &ben}) oracle.query(*x);
  EXPECT_EQ(oracle.queries(), 5u);
  EXPECT_EQ(oracle.first_evasion(), 3u);  // later benign verdicts ignored
}

TEST(Detectors, TinyNetTrainsAboveChance) {
  const corpus::Dataset data = tiny_dataset(50, 48);
  const auto [train, test] = data.split(0.75);
  ml::ByteConvConfig cfg;
  cfg.max_len = 8192;
  cfg.embed_dim = 4;
  cfg.filters = 8;
  cfg.width = 16;
  cfg.stride = 8;
  cfg.hidden = 8;
  ByteConvDetector det("tiny", cfg, 3);
  NetTrainConfig tc;
  tc.epochs = 10;
  tc.lr = 2e-3f;
  train_net(det, train, tc);
  calibrate_threshold(det, train, 0.05);
  const EvalReport r = evaluate(det, test);
  EXPECT_GT(r.auc, 0.75);
}

TEST(Detectors, GbdtTrainsAboveChance) {
  const corpus::Dataset data = tiny_dataset(60, 30);
  const auto [train, test] = data.split(0.7);
  GbdtDetector det("gbdt", {});
  train_gbdt(det, train);
  calibrate_threshold(det, train, 0.05);
  const EvalReport r = evaluate(det, test);
  EXPECT_GT(r.auc, 0.9);
  EXPECT_LE(r.fpr, 0.35);
}

TEST(Detectors, CalibrationRespectsFprOnTrain) {
  const corpus::Dataset data = tiny_dataset(70, 30);
  GbdtDetector det("gbdt", {});
  train_gbdt(det, data);
  calibrate_threshold(det, data, 0.1);
  const EvalReport r = evaluate(det, data);
  EXPECT_LE(r.fpr, 0.1 + 1e-9);
}

TEST(Detectors, SerializationRoundTrip) {
  const corpus::Dataset data = tiny_dataset(80, 16);
  GbdtDetector det("gbdt", {});
  train_gbdt(det, data);
  det.set_threshold(0.42);
  util::Archive ar;
  det.save(ar);
  const ByteBuf blob = ar.take();
  GbdtDetector other("placeholder", {});
  util::Unarchive un(blob);
  other.load(un);
  EXPECT_EQ(other.name(), "gbdt");
  EXPECT_DOUBLE_EQ(other.threshold(), 0.42);
  const ByteBuf probe = data.samples[0].bytes;
  EXPECT_DOUBLE_EQ(other.score(probe), det.score(probe));
}

TEST(Features, VendorHeuristicsFlagMovedEntryPoint) {
  // A normal sample: entry in .text, code decodes, no WX section.
  const corpus::CompiledSample s = corpus::make_malware(300);
  const auto names = detect::vendor_feature_names();
  const std::size_t base = detect::feature_dim();
  auto idx_of = [&](std::string_view n) {
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == n) return base + i;
    ADD_FAILURE() << "unknown vendor feature " << n;
    return std::size_t{0};
  };
  const auto clean = detect::extract_vendor_features(s.bytes());
  EXPECT_EQ(clean.size(), detect::vendor_feature_dim());
  EXPECT_EQ(clean[idx_of("entry_section_executable")], 1.0f);
  EXPECT_EQ(clean[idx_of("entry_code_decodes")], 1.0f);
  EXPECT_EQ(clean[idx_of("first_exec_is_entry")], 1.0f);

  // Retarget the entry point at a new trailing section: the heuristics
  // that real AVs ship must fire.
  pe::PeFile f = s.pe;
  util::Rng rng(4);
  f.add_section("odd", rng.bytes(512),
                pe::kScnCode | pe::kScnMemRead | pe::kScnMemExecute |
                    pe::kScnMemWrite);
  f.entry_point = f.sections.back().vaddr;
  const auto moved = detect::extract_vendor_features(f.build());
  EXPECT_EQ(moved[idx_of("entry_in_last_section")], 1.0f);
  EXPECT_EQ(moved[idx_of("entry_section_std_name")], 0.0f);
  EXPECT_EQ(moved[idx_of("wx_section_present")], 1.0f);
  EXPECT_EQ(moved[idx_of("first_exec_is_entry")], 0.0f);
}

// ---- signature mining ---------------------------------------------------------

TEST(Signatures, MinesCommonMaliciousNgrams) {
  util::Rng rng(5);
  // Malicious docs share a 16-byte marker; benign docs do not contain it.
  const ByteBuf marker = util::to_bytes("EVIL_MARKER_BYTES");
  std::vector<ByteBuf> mal, ben;
  for (int i = 0; i < 10; ++i) {
    ByteBuf doc = rng.bytes(400);
    std::copy(marker.begin(), marker.end(), doc.begin() + 100 + i);
    mal.push_back(std::move(doc));
    ben.push_back(rng.bytes(400));
  }
  const auto sigs = mine_signatures(mal, ben, 12, 32, 0.5);
  ASSERT_FALSE(sigs.empty());
  SignatureDb db;
  for (const auto& s : sigs) db.add(s);
  // Every malicious doc matches; benign docs do not.
  for (const auto& d : mal) EXPECT_TRUE(db.matches(d));
  for (const auto& d : ben) EXPECT_FALSE(db.matches(d));
}

TEST(Signatures, NoSignaturesWhenNothingShared) {
  util::Rng rng(6);
  std::vector<ByteBuf> mal, ben;
  for (int i = 0; i < 8; ++i) {
    mal.push_back(rng.bytes(300));
    ben.push_back(rng.bytes(300));
  }
  const auto sigs = mine_signatures(mal, ben, 12, 32, 0.5);
  EXPECT_TRUE(sigs.empty());
}

TEST(Signatures, BenignWhitelistExcludesSharedContent) {
  util::Rng rng(7);
  const ByteBuf common = util::to_bytes("totally common library string!");
  std::vector<ByteBuf> mal, ben;
  for (int i = 0; i < 8; ++i) {
    ByteBuf m = rng.bytes(200);
    m.insert(m.end(), common.begin(), common.end());
    mal.push_back(std::move(m));
    ByteBuf b = rng.bytes(200);
    b.insert(b.end(), common.begin(), common.end());
    ben.push_back(std::move(b));
  }
  // The shared string exists in benign docs too -> must not become a sig.
  const auto sigs = mine_signatures(mal, ben, 12, 32, 0.5);
  SignatureDb db;
  for (const auto& s : sigs) db.add(s);
  for (const auto& d : ben) EXPECT_FALSE(db.matches(d));
}

TEST(Signatures, DbSerializationRoundTrip) {
  SignatureDb db;
  db.add(util::to_bytes("pattern-one!"));
  db.add(util::to_bytes("pattern-two!"));
  util::Archive ar;
  db.save(ar);
  const ByteBuf blob = ar.take();
  SignatureDb other;
  util::Unarchive un(blob);
  other.load(un);
  EXPECT_EQ(other.size(), 2u);
  EXPECT_TRUE(other.matches(util::to_bytes("xx pattern-two! yy")));
  EXPECT_FALSE(other.matches(util::to_bytes("pattern-three!")));
}

TEST(Signatures, AvProfilesAreFiveAndDistinct) {
  const auto profiles = default_av_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  for (std::size_t i = 0; i < profiles.size(); ++i)
    for (std::size_t j = i + 1; j < profiles.size(); ++j)
      EXPECT_NE(profiles[i].name, profiles[j].name);
}

}  // namespace
}  // namespace mpass::detect
