// End-to-end integration: a private miniature ModelZoo (small corpus, short
// training, no cache) driving the full pipeline -- PEM, MPass, a baseline,
// an AV with learning -- exactly as the bench harness does, at test scale.
#include <gtest/gtest.h>

#include "attack/mab.hpp"
#include "attack/mpass.hpp"
#include "explain/pem.hpp"
#include "harness/experiment.hpp"
#include "obs/span.hpp"

namespace mpass {
namespace {

using util::ByteBuf;

class MiniZoo : public ::testing::Test {
 protected:
  /// The zoo, with the span rows taken just before and just after it was
  /// built.
  struct Build {
    detect::ModelZoo* zoo = nullptr;
    std::vector<obs::SpanRow> before, after;
  };

  static const Build& build() {
    static const Build b = [] {
      detect::ZooConfig cfg;
      cfg.seed = 20230707;
      cfg.train_malware = 80;
      cfg.train_benign = 80;
      cfg.test_malware = 24;
      cfg.test_benign = 24;
      cfg.packed_malware = 10;
      cfg.packed_benign = 4;
      cfg.benign_pool = 12;
      cfg.net_epochs = 2;
      cfg.lm_windows = 150;
      cfg.lm_epochs = 1;
      cfg.use_cache = false;
      Build out;
      out.before = obs::span_snapshot();
      out.zoo = new detect::ModelZoo(cfg);
      out.after = obs::span_snapshot();
      return out;
    }();
    return b;
  }

  static detect::ModelZoo& zoo() { return *build().zoo; }
};

/// Summed span count over the rows whose path satisfies `match`.
template <typename Match>
std::uint64_t span_count(const std::vector<obs::SpanRow>& rows, Match match) {
  std::uint64_t n = 0;
  for (const obs::SpanRow& r : rows)
    if (match(std::string_view(r.path))) n += r.count;
  return n;
}

TEST_F(MiniZoo, TrainingSpansNestUnderZooTrain) {
  // The nets train as util::ThreadPool tasks, which carry the submitting
  // call path, so no backward pass of the build lands at the profile root.
  const auto at_root = [](std::string_view p) {
    return p == "ml.byteconv.backward";
  };
  const auto under_train = [](std::string_view p) {
    return p.starts_with("zoo.train/") && p.ends_with("/ml.byteconv.backward");
  };
  EXPECT_EQ(span_count(build().after, at_root),
            span_count(build().before, at_root));
  EXPECT_GT(span_count(build().after, under_train),
            span_count(build().before, under_train));
}

TEST_F(MiniZoo, DetectorsLearnSomething) {
  for (detect::Detector* d : zoo().offline()) {
    const detect::EvalReport r = zoo().eval_offline(d->name());
    EXPECT_GT(r.auc, 0.75) << d->name();
  }
  EXPECT_EQ(zoo().known_nets_excluding("MalConv").size(), 5u);
  EXPECT_EQ(zoo().known_nets_excluding("LightGBM").size(), 6u);
}

TEST_F(MiniZoo, MpassBeatsAtLeastOneDetectedSample) {
  detect::Detector& target = zoo().offline_by_name("MalConv");
  const detect::Detector* gate[] = {&target};
  const auto samples = harness::make_attack_set(gate, 4, 99);
  ASSERT_FALSE(samples.empty());
  attack::Mpass mpass("MPass", {}, zoo().benign_pool(),
                      zoo().known_nets_excluding("MalConv"));
  const vm::Sandbox sandbox;
  int wins = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    detect::HardLabelOracle oracle(target, 100);
    const attack::AttackResult r = mpass.run(samples[i], oracle, 5 + i);
    if (r.success) {
      ++wins;
      EXPECT_FALSE(target.is_malicious(r.adversarial));
      EXPECT_TRUE(sandbox.functionality_preserved(samples[i], r.adversarial));
    }
  }
  EXPECT_GE(wins, 1);
}

TEST_F(MiniZoo, PemRanksContentSections) {
  std::vector<ByteBuf> malware;
  for (int i = 0; i < 6; ++i)
    malware.push_back(corpus::make_malware(606000 + i).bytes());
  std::vector<const detect::Detector*> known;
  for (detect::Detector* d : zoo().offline()) known.push_back(d);
  const explain::PemResult res = explain::run_pem(malware, known);
  ASSERT_EQ(res.model_names.size(), 4u);
  // The common sections list must contain the standard content sections.
  EXPECT_NE(std::find(res.common_sections.begin(), res.common_sections.end(),
                      ".text"),
            res.common_sections.end());
}

TEST_F(MiniZoo, AvLearningCatchesBaselineArtifacts) {
  detect::CommercialAv& av = *zoo().avs()[0];
  attack::Mab mab(zoo().benign_pool());
  const detect::Detector* gate[] = {&av};
  const auto samples = harness::make_attack_set(gate, 6, 123);
  std::vector<ByteBuf> aes;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    detect::HardLabelOracle oracle(av, 60);
    const attack::AttackResult r = mab.run(samples[i], oracle, 9 + i);
    if (r.success) aes.push_back(r.adversarial);
  }
  if (aes.size() < 3) GTEST_SKIP() << "MAB produced too few AEs on this AV";
  const std::size_t before = av.signatures().size();
  av.update(aes);
  EXPECT_GE(av.signatures().size(), before);  // mining ran
  std::size_t caught = 0;
  for (const ByteBuf& ae : aes)
    if (av.is_malicious(ae)) ++caught;
  // The shared benign-content library should be mineable from >= 3 AEs.
  EXPECT_GT(caught, 0u);
}

TEST_F(MiniZoo, HarnessGridRunsEndToEnd) {
  harness::ExperimentConfig cfg;
  cfg.n_samples = 3;
  cfg.max_queries = 40;
  cfg.use_cache = false;
  detect::Detector& target = zoo().offline_by_name("LightGBM");
  const detect::Detector* gate[] = {&target};
  const auto samples = harness::make_attack_set(gate, cfg.n_samples, 7);
  ASSERT_FALSE(samples.empty());
  attack::Mpass mpass("MPass", {}, zoo().benign_pool(),
                      zoo().known_nets_excluding("LightGBM"));
  const harness::CellStats stats =
      harness::run_cell(mpass, target, samples, samples, cfg);
  EXPECT_EQ(stats.n, samples.size());
  EXPECT_LE(stats.asr, 100.0);
  if (stats.successes > 0) {
    EXPECT_GE(stats.avq, 1.0);
    EXPECT_EQ(stats.functional, 100.0);  // MPass AEs always preserve behavior
  }
}

}  // namespace
}  // namespace mpass
