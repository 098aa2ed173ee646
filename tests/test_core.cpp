// Tests for the MPass core: recovery stub + shuffle strategy, modification
// engine (positions I / key map J), the ensemble optimizer invariants, and
// the attack::Mpass loop built on them.
#include <gtest/gtest.h>

#include <bit>
#include <string_view>

#include "attack/mpass.hpp"
#include "core/optimizer.hpp"
#include "corpus/generator.hpp"
#include "detectors/models.hpp"
#include "detectors/training.hpp"
#include "isa/isa.hpp"
#include "obs/span.hpp"
#include "util/hashing.hpp"
#include "vm/sandbox.hpp"

namespace mpass::core {
namespace {

using util::ByteBuf;

ByteBuf donor_bytes(std::uint64_t seed = 1000) {
  return corpus::make_benign(seed).bytes();
}

// Property sweep: the modification preserves functionality across random
// malware, with and without the shuffle strategy.
// The padding is an explicit zeroed member: gtest names each case after the
// parameter's raw bytes, and implicit padding would leak uninitialised bytes
// into the test names, making them change from run to run.
struct ModCase {
  std::uint64_t seed;
  bool shuffle;
  std::uint8_t pad[7] = {};
};
static_assert(sizeof(ModCase) == 16);

class ModificationPreserves : public ::testing::TestWithParam<ModCase> {};

TEST_P(ModificationPreserves, TraceIdentical) {
  const ModCase& c = GetParam();
  const ByteBuf orig = corpus::make_malware(c.seed).bytes();
  util::Rng rng(c.seed ^ 0xF00D);
  ModificationConfig cfg;
  cfg.stub.shuffle = c.shuffle;
  const ModifiedSample mod =
      apply_modification(orig, donor_bytes(), cfg, rng);
  const vm::Sandbox sandbox;
  EXPECT_TRUE(sandbox.functionality_preserved(orig, mod.bytes));
  EXPECT_GT(mod.apr, 0.2);
  EXPECT_LT(mod.apr, 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModificationPreserves,
    ::testing::Values(ModCase{1, true}, ModCase{2, true}, ModCase{3, true},
                      ModCase{4, true}, ModCase{5, true}, ModCase{6, false},
                      ModCase{7, false}, ModCase{8, false}));

TEST(Modification, SetByteKeepsRecoveredContentInvariant) {
  const ByteBuf orig = corpus::make_malware(99).bytes();
  util::Rng rng(7);
  ModifiedSample mod =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng);
  // Hammer random perturbable positions with random values.
  for (int i = 0; i < 500; ++i)
    mod.set_byte(mod.perturbable[rng.below(mod.perturbable.size())],
                 rng.byte());
  const vm::Sandbox sandbox;
  EXPECT_TRUE(sandbox.functionality_preserved(orig, mod.bytes));
}

TEST(Modification, PerturbablePositionsAreSortedUniqueInRange) {
  const ByteBuf orig = corpus::make_malware(123).bytes();
  util::Rng rng(11);
  const ModifiedSample mod =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng);
  ASSERT_FALSE(mod.perturbable.empty());
  for (std::size_t i = 1; i < mod.perturbable.size(); ++i)
    EXPECT_LT(mod.perturbable[i - 1], mod.perturbable[i]);
  EXPECT_LT(mod.perturbable.back(), mod.bytes.size());
  // Every key offset is inside the file and not itself perturbable-mapped.
  ASSERT_EQ(mod.key_of.size(), mod.bytes.size());
  for (const std::uint32_t key : mod.key_of) {
    if (key == ModifiedSample::kNoKey) continue;
    EXPECT_LT(key, mod.bytes.size());
    EXPECT_EQ(mod.key_of[key], ModifiedSample::kNoKey);
  }
}

TEST(Modification, EncodedSectionsCarryDonorContent) {
  // After encoding, the code section bytes must differ from the original
  // (benign content now) yet recover at runtime (checked elsewhere).
  const corpus::CompiledSample s = corpus::make_malware(321);
  const ByteBuf orig = s.bytes();
  util::Rng rng(13);
  const ModifiedSample mod =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng);
  const pe::PeFile before = pe::PeFile::parse(orig);
  const pe::PeFile after = pe::PeFile::parse(mod.bytes);
  const auto idx = before.find_section(before.sections[0].name);
  ASSERT_TRUE(idx.has_value());
  std::size_t diff = 0;
  const auto& a = before.sections[0].data;
  const auto& b = after.sections[0].data;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    diff += a[i] != b[i];
  // Donor slices can coincide with original bytes (both are programs), but
  // a substantial share of the section must have been rewritten.
  EXPECT_GT(diff, a.size() / 8);
}

TEST(Modification, OtherSecModeLeavesCodeAndDataAlone) {
  const ByteBuf orig = corpus::make_malware(555).bytes();
  util::Rng rng(17);
  ModificationConfig cfg;
  cfg.targets = TargetMode::OtherSec;
  const ModifiedSample mod =
      apply_modification(orig, donor_bytes(), cfg, rng);
  const pe::PeFile before = pe::PeFile::parse(orig);
  const pe::PeFile after = pe::PeFile::parse(mod.bytes);
  // Executable section content unchanged.
  EXPECT_EQ(before.sections[0].data, after.sections[0].data);
  const vm::Sandbox sandbox;
  EXPECT_TRUE(sandbox.functionality_preserved(orig, mod.bytes));
}

TEST(Modification, ShuffleRandomizesStubLayout) {
  const ByteBuf orig = corpus::make_malware(777).bytes();
  util::Rng rng1(1), rng2(2);
  const ModifiedSample m1 =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng1);
  const ModifiedSample m2 =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng2);
  // Same malware + same donor, different seeds -> different recovery
  // sections (the anti-signature property behind Fig. 4).
  const ByteBuf s1(m1.bytes.begin() + m1.recovery_section_off,
                   m1.bytes.begin() + m1.recovery_section_off +
                       m1.recovery_section_len);
  const ByteBuf s2(m2.bytes.begin() + m2.recovery_section_off,
                   m2.bytes.begin() + m2.recovery_section_off +
                       m2.recovery_section_len);
  EXPECT_NE(s1, s2);
}

TEST(Modification, RejectsNonPe) {
  util::Rng rng(19);
  const ByteBuf junk(500, 0x42);
  EXPECT_THROW(
      apply_modification(junk, donor_bytes(), ModificationConfig{}, rng),
      util::ParseError);
}

TEST(Recovery, NoShuffleStubIsContiguous) {
  // Without shuffle there must be no gaps: free ranges = tail filler only.
  RegionPlan region{0x401000, 64, 3};
  ByteBuf key(64, 7);
  util::Rng rng(23);
  StubOptions opts;
  opts.shuffle = false;
  opts.lead_filler = 128;
  const ByteBuf filler(256, 0xAB);
  const RecoverySection sec = build_recovery_section(
      {&region, 1}, {&key, 1}, 0x403000, 0x401000, filler, opts, rng);
  EXPECT_EQ(sec.free_ranges.size(), 1u);  // just the lead filler
  EXPECT_EQ(sec.free_ranges[0].second, 128u);
  EXPECT_EQ(sec.free_ranges[0].first, 0u);
}

TEST(Recovery, ShuffledStubHasGapsAndValidEntry) {
  RegionPlan region{0x401000, 64, 3};
  ByteBuf key(64, 7);
  util::Rng rng(29);
  StubOptions opts;  // shuffle on
  opts.lead_filler = 64;
  const ByteBuf filler(256, 0xCD);
  const RecoverySection sec = build_recovery_section(
      {&region, 1}, {&key, 1}, 0x403000, 0x401000, filler, opts, rng);
  EXPECT_GT(sec.free_ranges.size(), 3u);
  EXPECT_LT(sec.entry_offset, sec.data.size());
  // Keys go last: the key block starts after the stub + filler and reaches
  // the end of the section.
  ASSERT_EQ(sec.key_offsets.size(), 1u);
  EXPECT_EQ(sec.key_offsets[0] + key.size(), sec.data.size());
  // The stored key bytes are intact.
  for (std::size_t i = 0; i < key.size(); ++i)
    EXPECT_EQ(sec.data[sec.key_offsets[0] + i], 7);
  // The instruction at the entry must decode.
  util::ByteReader r({sec.data.data() + sec.entry_offset,
                      sec.data.size() - sec.entry_offset});
  EXPECT_NO_THROW(isa::decode(r));
}

TEST(Recovery, MismatchedKeysRejected) {
  RegionPlan region{0x401000, 64, 3};
  ByteBuf key(32, 7);  // wrong length
  util::Rng rng(31);
  const ByteBuf filler(64, 0);
  EXPECT_THROW(build_recovery_section({&region, 1}, {&key, 1}, 0x403000,
                                      0x401000, filler, {}, rng),
               std::logic_error);
}

// ---- optimizer ------------------------------------------------------------------

class TinyNetFixture : public ::testing::Test {
 protected:
  static ml::ByteConvConfig tiny() {
    ml::ByteConvConfig cfg;
    cfg.max_len = 8192;
    cfg.embed_dim = 4;
    cfg.filters = 6;
    cfg.width = 16;
    cfg.stride = 8;
    cfg.hidden = 6;
    return cfg;
  }

  void SetUp() override {
    const corpus::Dataset data = corpus::generate_dataset(900, 20, 20);
    det_ = std::make_unique<detect::ByteConvDetector>("tiny", tiny(), 5);
    detect::NetTrainConfig tc;
    tc.epochs = 3;
    detect::train_net(*det_, data, tc);
    detect::calibrate_threshold(*det_, data, 0.05);
  }

  std::unique_ptr<detect::ByteConvDetector> det_;
};

TEST_F(TinyNetFixture, OptimizerStepReturnsLossOfKeptState) {
  const ByteBuf orig = corpus::make_malware(888).bytes();
  util::Rng rng(37);
  ModifiedSample mod =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng);
  EnsembleOptimizer opt({&det_->net()});
  const float initial = opt.ensemble_loss(mod.bytes);
  float best = initial;
  for (int i = 0; i < 4; ++i) {
    const float loss = opt.step(mod);
    // The returned loss must describe the exact byte state step() left
    // behind -- it used to report a stale base loss when the exploratory
    // fallback fired (loss can legitimately *increase* on such steps).
    EXPECT_EQ(loss, opt.ensemble_loss(mod.bytes));
    best = std::min(best, loss);
  }
  // Weak progress: the best state seen is no worse than the start.
  EXPECT_LE(best, initial + 1e-3f);
}

TEST_F(TinyNetFixture, SetByteRollbackRestoresExactBytes) {
  const ByteBuf orig = corpus::make_malware(887).bytes();
  util::Rng rng(53);
  ModifiedSample mod =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng);
  ASSERT_FALSE(mod.perturbable.empty());
  const std::uint64_t before = util::fnv1a64(mod.bytes);

  // Apply a burst of random writes (recording prior values), then roll them
  // back in reverse: the sample must be digest-identical, including every
  // key-coupled byte set_byte co-updates. This is the invariant the
  // optimizer's line-search rollback (a rejected proposal) relies on.
  struct Write {
    std::uint32_t pos;
    std::uint8_t old_value;
  };
  std::vector<Write> writes;
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t p = mod.perturbable[rng.below(mod.perturbable.size())];
    writes.push_back({p, mod.bytes[p]});
    mod.set_byte(p, rng.byte());
  }
  for (auto it = writes.rbegin(); it != writes.rend(); ++it)
    mod.set_byte(it->pos, it->old_value);
  EXPECT_EQ(util::fnv1a64(mod.bytes), before);
}

TEST_F(TinyNetFixture, OptimizerIncrementalMatchesFullRecompute) {
  // The optimizer scores through forward_auto (incremental, cached); every
  // returned loss must equal a full forward of the bytes step() left
  // behind, computed on a fresh copy of the net whose cache is cold.
  const ByteBuf orig = corpus::make_malware(886).bytes();
  util::Rng rng(61);
  ModifiedSample mod =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng);
  EnsembleOptimizer opt({&det_->net()});
  for (int i = 0; i < 4; ++i) {
    const float loss = opt.step(mod);
    ml::ByteConvNet copy(det_->net());
    EXPECT_EQ(loss, ml::bce_loss(copy.forward(mod.bytes), 0.0f))
        << "step " << i;
  }
}

TEST_F(TinyNetFixture, OptimizerStepsMatchScalarScanDigest) {
  // The digest was recorded with the scalar convolution and the scalar
  // per-candidate scan; the vectorized kernels must reproduce every byte.
  // With push_keys_beyond = 0 the keys sit inside the second net's window
  // (untrained, d = 6, F = 12, channel gating, whole-file max_len), so the
  // scan exercises the key-coupled term and a second embedding width.
  ml::ByteConvConfig wide = detect::malgcg_config();
  wide.max_len = 1 << 16;
  wide.embed_dim = 6;
  wide.filters = 12;
  ml::ByteConvNet second(wide, 77);
  ModificationConfig cfg;
  cfg.push_keys_beyond = 0;
  util::Rng rng(71);
  ModifiedSample mod =
      apply_modification(corpus::make_malware(885).bytes(), donor_bytes(),
                         cfg, rng);
  EnsembleOptimizer opt({&det_->net(), &second});
  float loss = 0.0f;
  for (int i = 0; i < 4; ++i) loss = opt.step(mod);
  EXPECT_EQ(util::fnv1a64(mod.bytes), 0x00b4b8d9f71c755eULL);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(loss), 0x3edaa0d4u);
}

TEST_F(TinyNetFixture, OptimizerPreservesFunctionality) {
  const ByteBuf orig = corpus::make_malware(889).bytes();
  util::Rng rng(41);
  ModifiedSample mod =
      apply_modification(orig, donor_bytes(), ModificationConfig{}, rng);
  EnsembleOptimizer opt({&det_->net()});
  for (int i = 0; i < 3; ++i) opt.step(mod);
  const vm::Sandbox sandbox;
  EXPECT_TRUE(sandbox.functionality_preserved(orig, mod.bytes));
}

TEST_F(TinyNetFixture, WhiteBoxAttackSucceeds) {
  // Known model == target: MPass must bypass within the budget on a sample
  // the detector flags.
  std::vector<ByteBuf> pool = {donor_bytes(1), donor_bytes(2)};
  ml::ByteConvNet* const known[] = {&det_->net()};
  attack::Mpass attack("MPass", {}, pool, known);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const ByteBuf sample = corpus::make_malware(7100 + seed).bytes();
    if (!det_->is_malicious(sample)) continue;
    detect::HardLabelOracle oracle(*det_, 100);
    const attack::AttackResult r = attack.run(sample, oracle, 5);
    EXPECT_TRUE(r.success);
    EXPECT_GE(oracle.queries(), 1u);
    // MPass stops at its first evasion.
    EXPECT_EQ(oracle.first_evasion(), oracle.queries());
    if (r.success) {
      EXPECT_FALSE(det_->is_malicious(r.adversarial));
      const vm::Sandbox sandbox;
      EXPECT_TRUE(sandbox.functionality_preserved(sample, r.adversarial));
    }
    return;
  }
  GTEST_SKIP() << "tiny detector flagged no sample";
}

TEST(Optimizer, RequiresNonEmptyEnsemble) {
  EXPECT_THROW(EnsembleOptimizer({}), std::invalid_argument);
}

/// Full forwards run so far: ml.byteconv.forward span counts summed over
/// every call path.
std::uint64_t full_forwards() {
  std::uint64_t n = 0;
  for (const obs::SpanRow& row : obs::span_snapshot()) {
    const std::string_view path = row.path;
    if (path == "ml.byteconv.forward" ||
        path.ends_with("/ml.byteconv.forward"))
      n += row.count;
  }
  return n;
}

TEST(Optimizer, WarmStepRunsNoFullForward) {
  // The micro-benchmark's setup: three untrained MalConv-shaped nets and
  // one modified sample. The first step pays one full forward per net (the
  // caches are cold); after it every net's cache holds the kept prefix, so
  // the second step's gradient forward, line search and kept-prefix
  // re-score are all deltas or cache hits.
  const ml::ByteConvConfig cfg = detect::malconv_config();
  ml::ByteConvNet a(cfg, 21), b(cfg, 22), c(cfg, 23);
  util::Rng rng(7);
  ModifiedSample mod = apply_modification(
      corpus::make_malware(0xBE9C).bytes(), corpus::make_benign(0xD0).bytes(),
      ModificationConfig{}, rng);
  const EnsembleOptimizer opt({&a, &b, &c});
  opt.step(mod);
  const std::uint64_t before = full_forwards();
  opt.step(mod);
  EXPECT_EQ(full_forwards() - before, 0u);
}

TEST(Mpass, RandomContentModeQueriesUntilBudget) {
  // Against an always-malicious detector, random-content mode must consume
  // the full budget and fail, inside the attack's span.
  class Always : public detect::Detector {
   public:
    std::string_view name() const override { return "always"; }
    double score(std::span<const std::uint8_t>) const override { return 1.0; }
    std::unique_ptr<detect::Detector> clone() const override {
      return std::make_unique<Always>(*this);
    }
  };
  Always det;
  std::vector<ByteBuf> pool = {donor_bytes(3)};
  attack::MpassConfig cfg;
  cfg.random_content = true;
  attack::Mpass attack("Random-data", cfg, pool, {});
  detect::HardLabelOracle oracle(det, 10);
  const ByteBuf sample = corpus::make_malware(4242).bytes();
  const attack::AttackResult r = attack.run(sample, oracle, 1);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(oracle.queries(), 10u);
  EXPECT_EQ(oracle.first_evasion(), 0u);
  bool spanned = false;
  for (const obs::SpanRow& row : obs::span_snapshot())
    spanned |= row.path == "attack.mpass.run";
  EXPECT_TRUE(spanned);
}

}  // namespace
}  // namespace mpass::core
