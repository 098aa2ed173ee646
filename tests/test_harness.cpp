// Tests for the experiment harness: metric computation, sample gating,
// result-cache round-trips.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace mpass::harness {
namespace {

using util::ByteBuf;

class SizeDetector : public detect::Detector {
 public:
  explicit SizeDetector(std::size_t threshold) : threshold_(threshold) {}
  std::string_view name() const override { return "size"; }
  double score(std::span<const std::uint8_t> bytes) const override {
    return bytes.size() < threshold_ ? 1.0 : 0.0;
  }
 private:
  std::size_t threshold_;
};

/// Scripted attack: succeeds on every other sample using a fixed number of
/// queries, never produces a functional check failure (AE = original).
class Scripted : public attack::Attack {
 public:
  std::string_view name() const override { return "scripted"; }
  attack::AttackResult run(std::span<const std::uint8_t> malware,
                           detect::HardLabelOracle& oracle,
                           std::uint64_t) override {
    attack::AttackResult r;
    r.adversarial.assign(malware.begin(), malware.end());
    oracle.query(r.adversarial);
    oracle.query(r.adversarial);
    r.queries = 2;
    r.success = (++calls_ % 2) == 1;
    r.apr = 0.5;
    return r;
  }
 private:
  int calls_ = 0;
};

TEST(Harness, RunCellComputesMetrics) {
  const SizeDetector det(1);  // never flags anything; irrelevant here
  Scripted atk;
  std::vector<ByteBuf> samples;
  for (int i = 0; i < 6; ++i)
    samples.push_back(corpus::make_malware(8800 + i).bytes());
  ExperimentConfig cfg;
  cfg.max_queries = 10;
  const CellStats stats = run_cell(atk, det, samples, samples, cfg);
  EXPECT_EQ(stats.n, 6u);
  EXPECT_EQ(stats.successes, 3u);
  EXPECT_DOUBLE_EQ(stats.asr, 50.0);
  EXPECT_DOUBLE_EQ(stats.avq, 2.0);
  EXPECT_DOUBLE_EQ(stats.apr, 50.0);
  // AE == original, so functionality is trivially preserved.
  EXPECT_DOUBLE_EQ(stats.functional, 100.0);
  EXPECT_EQ(stats.aes.size(), 3u);
}

TEST(Harness, MakeAttackSetOnlyReturnsDetectedSamples) {
  const SizeDetector strict(1 << 20);  // flags everything under 1 MiB
  const detect::Detector* gate[] = {&strict};
  const auto samples = make_attack_set(gate, 5, 77);
  EXPECT_EQ(samples.size(), 5u);
  for (const ByteBuf& s : samples) EXPECT_TRUE(strict.is_malicious(s));

  const SizeDetector impossible(0);  // flags nothing
  const detect::Detector* gate2[] = {&impossible};
  EXPECT_TRUE(make_attack_set(gate2, 3, 77).empty());
}

TEST(Harness, CellCacheRoundTrip) {
  ExperimentConfig cfg;
  cfg.seed = 987654;  // private cache slot for this test
  cfg.use_cache = true;
  std::vector<CellStats> cells(2);
  cells[0].attack = "A";
  cells[0].target = "T";
  cells[0].n = 10;
  cells[0].successes = 7;
  cells[0].asr = 70.0;
  cells[0].avq = 3.5;
  cells[0].apr = 120.0;
  cells[0].functional = 100.0;
  cells[0].aes = {ByteBuf{1, 2, 3}, ByteBuf{4, 5}};
  cells[1].attack = "B";
  cells[1].target = "T";
  save_cells("unittest", cfg, cells);
  const auto loaded = load_cells("unittest", cfg);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].attack, "A");
  EXPECT_EQ((*loaded)[0].successes, 7u);
  EXPECT_DOUBLE_EQ((*loaded)[0].avq, 3.5);
  EXPECT_EQ((*loaded)[0].aes[0], (ByteBuf{1, 2, 3}));
  EXPECT_EQ((*loaded)[1].attack, "B");

  ExperimentConfig other = cfg;
  other.seed = 123;  // digest changes -> cache miss
  EXPECT_FALSE(load_cells("unittest", other).has_value());
}

TEST(Harness, CsvExportWritesAllCells) {
  std::vector<CellStats> cells(2);
  cells[0] = {"MPass", "MalConv", 10, 9, 90.0, 2.5, 110.0, 100.0, {}, 0,
              0.0,     0.0};
  cells[1] = {"RLA", "MalConv", 10, 2, 20.0, 80.0, 400.0, 77.0, {}, 0,
              0.0,   0.0};
  const auto path = util::cache_dir() / "results" / "unittest.csv";
  export_csv(path, cells);
  const auto data = util::load_file(path);
  ASSERT_TRUE(data.has_value());
  const std::string text(data->begin(), data->end());
  EXPECT_NE(text.find("attack,target"), std::string::npos);
  EXPECT_NE(text.find("MPass,MalConv,10,9,90.00,2.50"), std::string::npos);
  EXPECT_NE(text.find("RLA"), std::string::npos);
}

TEST(Harness, ConfigDigestSensitivity) {
  ExperimentConfig a;
  ExperimentConfig b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.n_samples += 1;
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace mpass::harness
