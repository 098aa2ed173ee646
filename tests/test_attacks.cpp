// Tests for the attack baselines: action set semantics, RLA/MAB/GAMMA/
// MalRNN behavior against controllable detectors, obfuscator attacks, and
// the harness's oracle-derived AVQ for each of them.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "attack/actions.hpp"
#include "attack/gamma.hpp"
#include "attack/mab.hpp"
#include "attack/malrnn.hpp"
#include "attack/obfuscate.hpp"
#include "attack/rla.hpp"
#include "corpus/generator.hpp"
#include "harness/experiment.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pe/pe.hpp"
#include "util/hashing.hpp"
#include "vm/sandbox.hpp"

namespace mpass::attack {
namespace {

using util::ByteBuf;

std::vector<ByteBuf> tiny_pool() {
  std::vector<ByteBuf> pool;
  for (int i = 0; i < 4; ++i)
    pool.push_back(corpus::make_benign(600 + i).bytes());
  return pool;
}

/// Detector that flags files under a size threshold as malicious -- all
/// appending attacks can beat it, deterministically.
class SizeDetector : public detect::Detector {
 public:
  explicit SizeDetector(std::size_t threshold) : threshold_(threshold) {}
  std::string_view name() const override { return "size"; }
  double score(std::span<const std::uint8_t> bytes) const override {
    return bytes.size() < threshold_ ? 1.0 : 0.0;
  }
  std::unique_ptr<detect::Detector> clone() const override {
    return std::make_unique<SizeDetector>(*this);
  }
 private:
  std::size_t threshold_;
};

/// Detector that never lets anything through.
class AlwaysMalicious : public detect::Detector {
 public:
  std::string_view name() const override { return "always"; }
  double score(std::span<const std::uint8_t>) const override { return 1.0; }
  std::unique_ptr<detect::Detector> clone() const override {
    return std::make_unique<AlwaysMalicious>(*this);
  }
};

// ---- actions -------------------------------------------------------------------

class ActionSafety : public ::testing::TestWithParam<Action> {};

TEST_P(ActionSafety, SafeActionsPreserveFunctionality) {
  const Action action = GetParam();
  if (is_risky(action)) GTEST_SKIP() << "risky action";
  const auto pool = tiny_pool();
  util::Rng rng(5);
  const vm::Sandbox sandbox;
  int applied = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const ByteBuf orig = corpus::make_malware(1500 + seed).bytes();
    const auto mutated = apply_action(action, orig, pool, rng);
    if (!mutated) continue;
    ++applied;
    EXPECT_TRUE(sandbox.functionality_preserved(orig, *mutated))
        << action_name(action) << " seed " << seed;
  }
  EXPECT_GT(applied, 0) << action_name(action);
}

INSTANTIATE_TEST_SUITE_P(
    AllSafe, ActionSafety,
    ::testing::Values(Action::AppendOverlay, Action::AddBenignSection,
                      Action::RenameSections, Action::SetTimestamp,
                      Action::AppendImports, Action::UpxPack));

TEST(Actions, RemoveOverlayBreaksOverlayDependentMalware) {
  const auto pool = tiny_pool();
  util::Rng rng(7);
  const vm::Sandbox sandbox;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const corpus::CompiledSample s = corpus::make_malware(2500 + seed);
    if (!s.meta.overlay_dependent) continue;
    const ByteBuf orig = s.bytes();
    const auto mutated = apply_action(Action::RemoveOverlay, orig, pool, rng);
    ASSERT_TRUE(mutated.has_value());
    EXPECT_FALSE(sandbox.functionality_preserved(orig, *mutated));
    return;
  }
  FAIL() << "no overlay-dependent malware sampled";
}

TEST(Actions, RemoveOverlayHarmlessWithoutOverlayDependence) {
  const auto pool = tiny_pool();
  util::Rng rng(8);
  const vm::Sandbox sandbox;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const corpus::CompiledSample s = corpus::make_malware(2600 + seed);
    if (s.meta.overlay_dependent || s.pe.overlay.empty()) continue;
    const ByteBuf orig = s.bytes();
    const auto mutated = apply_action(Action::RemoveOverlay, orig, pool, rng);
    ASSERT_TRUE(mutated.has_value());
    // Inert overlay removal does not change behavior.
    EXPECT_TRUE(sandbox.functionality_preserved(orig, *mutated));
    return;
  }
  GTEST_SKIP() << "no inert-overlay malware sampled";
}

TEST(Actions, ApplyActionRejectsGarbage) {
  const auto pool = tiny_pool();
  util::Rng rng(9);
  EXPECT_FALSE(apply_action(Action::AppendOverlay, ByteBuf(100, 7), pool, rng)
                   .has_value());
}

TEST(Actions, StateFingerprintReactsToStructure) {
  const ByteBuf a = corpus::make_malware(3100).bytes();
  const auto pool = tiny_pool();
  util::Rng rng(10);
  const auto b = apply_action(Action::AddBenignSection, a, pool, rng);
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(state_fingerprint(a), state_fingerprint(*b));
}

// ---- baseline attacks ------------------------------------------------------------

TEST(Baselines, MabBeatsSizeDetector) {
  const ByteBuf sample = corpus::make_malware(3200).bytes();
  const SizeDetector det(sample.size() + 4096);
  Mab mab({}, tiny_pool());
  ASSERT_TRUE(det.is_malicious(sample));
  detect::HardLabelOracle oracle(det, 100);
  const AttackResult r = mab.run(sample, oracle, 3);
  EXPECT_TRUE(r.success);
  EXPECT_GE(r.adversarial.size(), sample.size() + 4096);
  EXPECT_LE(oracle.queries(), 100u);
}

TEST(Baselines, RlaBeatsSizeDetectorAndLearns) {
  Rla rla({}, tiny_pool());
  int wins = 0, attempted = 0;
  for (int i = 0; i < 5; ++i) {
    const ByteBuf sample = corpus::make_malware(3300 + i).bytes();
    const SizeDetector det(sample.size() + 2048);
    ++attempted;
    detect::HardLabelOracle oracle(det, 100);
    wins += rla.run(sample, oracle, 11 + i).success;
  }
  EXPECT_EQ(attempted, 5);
  EXPECT_GE(wins, 4);
}

TEST(Baselines, GammaInjectsBenignSections) {
  const ByteBuf sample = corpus::make_malware(3400).bytes();
  const SizeDetector det(sample.size() + 2048);
  Gamma gamma({}, tiny_pool());
  detect::HardLabelOracle oracle(det, 100);
  const AttackResult r = gamma.run(sample, oracle, 17);
  ASSERT_TRUE(r.success);
  // The AE must contain more sections than the original.
  const pe::PeFile before = pe::PeFile::parse(sample);
  const pe::PeFile after = pe::PeFile::parse(r.adversarial);
  EXPECT_GT(after.sections.size(), before.sections.size());
  const vm::Sandbox sandbox;
  EXPECT_TRUE(sandbox.functionality_preserved(sample, r.adversarial));
}

TEST(Baselines, FailAgainstAlwaysMaliciousWithinBudget) {
  const AlwaysMalicious det;
  const ByteBuf sample = corpus::make_malware(3500).bytes();
  const auto pool = tiny_pool();
  Mab mab({}, pool);
  Rla rla({}, pool);
  Gamma gamma({}, pool);
  for (Attack* atk : std::initializer_list<Attack*>{&mab, &rla, &gamma}) {
    detect::HardLabelOracle oracle(det, 25);
    const AttackResult r = atk->run(sample, oracle, 23);
    EXPECT_FALSE(r.success) << atk->name();
    EXPECT_EQ(oracle.queries(), 25u) << atk->name();
  }
}

TEST(Baselines, ObfuscateAttackIsOneShot) {
  const SizeDetector det(1);  // nothing is malicious
  ObfuscateAttack upx(pack::PackerKind::UpxLike);
  const ByteBuf sample = corpus::make_malware(3600).bytes();
  detect::HardLabelOracle oracle(det, 100);
  const AttackResult r = upx.run(sample, oracle, 29);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(oracle.queries(), 1u);
  const vm::Sandbox sandbox;
  EXPECT_TRUE(sandbox.functionality_preserved(sample, r.adversarial));
}

TEST(Baselines, MalRnnAppendsGrowingChunks) {
  ml::GruLm lm(ml::GruLmConfig{}, 3);  // untrained LM still generates bytes
  MalRnn malrnn({}, lm);
  const ByteBuf sample = corpus::make_malware(3700).bytes();
  const SizeDetector det(sample.size() + 6000);
  ASSERT_TRUE(det.is_malicious(sample));
  detect::HardLabelOracle oracle(det, 100);
  const AttackResult r = malrnn.run(sample, oracle, 31);
  EXPECT_TRUE(r.success);
  EXPECT_GE(r.adversarial.size(), sample.size() + 6000);
  // Appending to the overlay never breaks functionality.
  const vm::Sandbox sandbox;
  EXPECT_TRUE(sandbox.functionality_preserved(sample, r.adversarial));
}

TEST(Baselines, MalRnnTracesWhereEachChunkLands) {
  /// Flags files under a size threshold and records every queried length.
  class SizeLog : public detect::Detector {
   public:
    explicit SizeLog(std::size_t threshold) : threshold_(threshold) {}
    std::string_view name() const override { return "size"; }
    double score(std::span<const std::uint8_t> bytes) const override {
      sizes.push_back(bytes.size());
      return bytes.size() < threshold_ ? 1.0 : 0.0;
    }
    std::unique_ptr<detect::Detector> clone() const override {
      return std::make_unique<SizeLog>(*this);
    }
    mutable std::vector<std::size_t> sizes;
   private:
    std::size_t threshold_;
  };

  const auto dir =
      std::filesystem::path(testing::TempDir()) / "mpass_malrnn_trace";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::set_trace_dir(dir);
  ml::GruLm lm(ml::GruLmConfig{}, 3);
  MalRnn malrnn({}, lm);
  const ByteBuf sample = corpus::make_malware(3700).bytes();
  const SizeLog det(sample.size() + 6000);
  const std::uint64_t digest = util::fnv1a64(sample);
  {
    obs::TraceScope scope("MalRNN", det.name(), digest, 31, 100);
    ASSERT_TRUE(scope.active());
    detect::HardLabelOracle oracle(det, 100);
    EXPECT_TRUE(malrnn.run(sample, oracle, 31).success);
  }
  obs::set_trace_dir(std::nullopt);

  char name[64];
  std::snprintf(name, sizeof(name), "MalRNN-size-%016llx.jsonl",
                static_cast<unsigned long long>(digest));
  std::ifstream in(dir / name);
  ASSERT_TRUE(in.good());
  std::size_t appends = 0;
  for (std::string line; std::getline(in, line);) {
    const auto ev = obs::Json::parse(line);
    ASSERT_TRUE(ev.has_value()) << line;
    if (ev->get("ev")->str() != "action") continue;
    EXPECT_EQ(ev->get("kind")->str(), "malrnn_append");
    const double offset = ev->get("offset")->number();
    const double len = ev->get("len")->number();
    const double size = ev->get("size")->number();
    // The chunk ends the file, and the k-th append is the k-th query.
    EXPECT_EQ(offset + len, size);
    EXPECT_GT(len, 0.0);
    ASSERT_LT(appends, det.sizes.size());
    EXPECT_EQ(size, static_cast<double>(det.sizes[appends]));
    ++appends;
  }
  EXPECT_GE(appends, 2u);
  EXPECT_EQ(appends, det.sizes.size());
  std::filesystem::remove_all(dir);
}

// ---- harness AVQ per attack --------------------------------------------------

std::unique_ptr<Attack> make_baseline(std::string_view name,
                                      std::span<const ByteBuf> pool,
                                      ml::GruLm& lm) {
  if (name == "RLA") return std::make_unique<Rla>(RlaConfig{}, pool);
  if (name == "MAB") return std::make_unique<Mab>(MabConfig{}, pool);
  if (name == "GAMMA") return std::make_unique<Gamma>(GammaConfig{}, pool);
  if (name == "MalRNN") return std::make_unique<MalRnn>(MalRnnConfig{}, lm);
  return std::make_unique<ObfuscateAttack>(pack::PackerKind::PespinLike);
}

struct AvqCase {
  std::string_view attack;
  // Bytes an AE must grow past the largest sample to evade. 0: the
  // detector flags nothing, since a packed file need not outgrow anything.
  std::size_t margin;
};

// Stable test names: gtest would otherwise print the struct's raw bytes.
void PrintTo(const AvqCase& c, std::ostream* os) {
  *os << c.attack << " margin " << c.margin;
}

class HarnessAvq : public ::testing::TestWithParam<AvqCase> {};

// AVQ comes from the oracle's first benign verdict, so every attack that
// succeeds has 1 <= AVQ <= budget, whether or not it counts its queries.
TEST_P(HarnessAvq, SuccessImpliesAvqWithinBudget) {
  const auto pool = tiny_pool();
  ml::GruLm lm(ml::GruLmConfig{}, 3);
  const std::unique_ptr<Attack> atk =
      make_baseline(GetParam().attack, pool, lm);
  std::vector<ByteBuf> samples;
  std::size_t largest = 0;
  for (int i = 0; i < 4; ++i) {
    samples.push_back(corpus::make_malware(3800 + i).bytes());
    largest = std::max(largest, samples.back().size());
  }
  const SizeDetector det(GetParam().margin ? largest + GetParam().margin
                                           : 1);
  harness::ExperimentConfig cfg;
  cfg.max_queries = 30;
  cfg.use_cache = false;
  const harness::CellStats stats =
      harness::run_cell(*atk, det, samples, samples, cfg);
  ASSERT_GT(stats.successes, 0u);
  EXPECT_GE(stats.avq, 1.0);
  EXPECT_LE(stats.avq, 30.0);
  // MAB keeps querying after its first evasion to minimize the AE; those
  // queries count in total_queries but not in AVQ.
  if (GetParam().attack == "MAB") {
    EXPECT_LT(stats.avq * static_cast<double>(stats.successes),
              static_cast<double>(stats.total_queries));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Attacks, HarnessAvq,
    ::testing::Values(AvqCase{"RLA", 4096}, AvqCase{"MAB", 4096},
                      AvqCase{"GAMMA", 4096}, AvqCase{"MalRNN", 4096},
                      AvqCase{"PESpin", 0}),
    [](const ::testing::TestParamInfo<AvqCase>& info) {
      return std::string(info.param.attack);
    });

TEST(Baselines, AprAccounting) {
  EXPECT_DOUBLE_EQ(apr_of(100, 150), 0.5);
  EXPECT_DOUBLE_EQ(apr_of(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(apr_of(0, 50), 0.0);
}

}  // namespace
}  // namespace mpass::attack
