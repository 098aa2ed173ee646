// Tests for the experiment harness: metric computation, sample gating,
// per-sample result-cache resume.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "harness/experiment.hpp"
#include "util/hashing.hpp"

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
  std::unique_ptr<detect::Detector> clone() const override {
    return std::make_unique<SizeDetector>(*this);
  }
 private:
  std::size_t threshold_;
};

/// Flags the first `k` queries of every distinct file, then lets it pass:
/// the first benign verdict for each file is query k + 1.
class FlagsFirstQueries : public detect::Detector {
 public:
  explicit FlagsFirstQueries(std::size_t k) : k_(k) {}
  std::string_view name() const override { return "flags-first"; }
  double score(std::span<const std::uint8_t> bytes) const override {
    return ++seen_[util::fnv1a64(bytes)] <= k_ ? 1.0 : 0.0;
  }
  std::unique_ptr<detect::Detector> clone() const override {
    return std::make_unique<FlagsFirstQueries>(*this);
  }
 private:
  std::size_t k_;
  mutable std::map<std::uint64_t, std::size_t> seen_;
};

/// Scripted attack: its AE is the sample with its own size in zero bytes
/// appended (APR 100%). On the samples whose digest is in `persist` it
/// queries until the first benign verdict and then spends two more queries
/// (like MAB's minimization); on the others it gives up after three
/// detected queries. The choice depends on the sample alone, so clones
/// behave alike. Success is the oracle's verdict, and the attack reports no
/// counts.
class Scripted : public attack::Attack {
 public:
  explicit Scripted(std::set<std::uint64_t> persist)
      : persist_(std::move(persist)) {}
  std::string_view name() const override { return "scripted"; }
  attack::AttackResult run(std::span<const std::uint8_t> malware,
                           detect::HardLabelOracle& oracle,
                           std::uint64_t) override {
    attack::AttackResult r;
    r.adversarial.assign(malware.begin(), malware.end());
    r.adversarial.resize(2 * malware.size(), 0);
    const bool persist = persist_.contains(util::fnv1a64(malware));
    for (int i = 0; i < 3 || (persist && !oracle.exhausted()); ++i)
      if (!oracle.query(r.adversarial)) {
        r.success = true;
        break;
      }
    if (r.success)
      for (int extra = 0; extra < 2; ++extra) oracle.query(r.adversarial);
    return r;
  }
  std::unique_ptr<attack::Attack> clone() const override {
    return std::make_unique<Scripted>(*this);
  }
 private:
  std::set<std::uint64_t> persist_;
};

/// Points MPASS_CACHE_DIR at a fresh directory for the guard's lifetime and
/// restores the previous value (or its absence) afterwards.
struct CacheDirGuard {
  std::filesystem::path dir;
  std::optional<std::string> saved;
  explicit CacheDirGuard(const char* name) {
    dir = std::filesystem::path(testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    if (const char* v = std::getenv("MPASS_CACHE_DIR")) saved = v;
    setenv("MPASS_CACHE_DIR", dir.c_str(), 1);
  }
  ~CacheDirGuard() {
    if (saved)
      setenv("MPASS_CACHE_DIR", saved->c_str(), 1);
    else
      unsetenv("MPASS_CACHE_DIR");
    std::filesystem::remove_all(dir);
  }
};

std::vector<ByteBuf> scripted_samples() {
  std::vector<ByteBuf> samples;
  for (int i = 0; i < 6; ++i)
    samples.push_back(corpus::make_malware(8800 + i).bytes());
  return samples;
}

/// Digests of every `stride`-th sample, starting with the first.
std::set<std::uint64_t> every(std::span<const ByteBuf> samples,
                              std::size_t stride) {
  std::set<std::uint64_t> out;
  for (std::size_t i = 0; i < samples.size(); i += stride)
    out.insert(util::fnv1a64(samples[i]));
  return out;
}

TEST(Harness, RunCellComputesMetrics) {
  const FlagsFirstQueries det(3);  // first benign verdict: query 4
  const std::vector<ByteBuf> samples = scripted_samples();
  Scripted atk(every(samples, 2));
  ExperimentConfig cfg;
  cfg.max_queries = 10;
  cfg.use_cache = false;
  std::vector<ByteBuf> aes;
  const CellStats stats =
      run_cell(atk, det, samples, samples, cfg, nullptr, &aes);
  EXPECT_EQ(stats.n, 6u);
  EXPECT_EQ(stats.successes, 3u);
  EXPECT_DOUBLE_EQ(stats.asr, 50.0);
  // AVQ is the oracle's first-evasion index; the post-evasion queries
  // count only in total_queries: 3 x (4 + 2) + 3 x 3.
  EXPECT_DOUBLE_EQ(stats.avq, 4.0);
  EXPECT_EQ(stats.total_queries, 27u);
  // APR comes from the returned bytes.
  EXPECT_DOUBLE_EQ(stats.apr, 100.0);
  // Appended zeros are inert overlay, so functionality is preserved.
  EXPECT_DOUBLE_EQ(stats.functional, 100.0);
  EXPECT_EQ(aes.size(), 3u);
}

TEST(Harness, RunCellAeOutputLeavesResultsUnchanged) {
  const std::vector<ByteBuf> samples = scripted_samples();
  ExperimentConfig cfg;
  cfg.max_queries = 10;
  cfg.use_cache = false;
  const auto run = [&](std::vector<ByteBuf>* aes) {
    const FlagsFirstQueries det(3);
    Scripted atk(every(samples, 2));
    return run_cell(atk, det, samples, samples, cfg, nullptr, aes);
  };
  std::vector<ByteBuf> aes;
  const CellStats with = run(&aes);
  const CellStats without = run(nullptr);
  EXPECT_EQ(with.result_digest(), without.result_digest());
  EXPECT_EQ(with.ae_digest, without.ae_digest);
  EXPECT_NE(with.ae_digest, 0u);
  // Scripted persists (and succeeds) on samples 0, 2 and 4: their AEs come
  // back in sample order, each doubled with zero bytes.
  ASSERT_EQ(aes.size(), 3u);
  for (std::size_t i = 0; i < aes.size(); ++i) {
    ByteBuf expected = samples[2 * i];
    expected.resize(2 * expected.size(), 0);
    EXPECT_EQ(aes[i], expected) << "AE " << i;
  }
}

TEST(Harness, RunCellResumesFromPerSampleCache) {
  const CacheDirGuard guard("mpass_harness_sample_cache");
  const std::vector<ByteBuf> samples = scripted_samples();
  ExperimentConfig cfg;
  cfg.max_queries = 10;
  cfg.use_cache = true;
  const auto run = [&](std::vector<ByteBuf>* aes) {
    const FlagsFirstQueries det(3);
    Scripted atk(every(samples, 1));
    return run_cell(atk, det, samples, samples, cfg, nullptr, aes);
  };

  std::vector<ByteBuf> fresh_aes;
  const CellStats fresh = run(&fresh_aes);
  EXPECT_EQ(fresh.successes, 6u);
  EXPECT_EQ(fresh.total_queries, 36u);  // 6 x (4 + 2)
  EXPECT_GT(fresh.wall_ms, 0.0);
  ASSERT_EQ(fresh_aes.size(), 6u);
  ASSERT_TRUE(std::filesystem::exists(guard.dir / "results" / "samples"));

  // Every sample is now a cache hit: nothing executes, the results and the
  // AE bytes come back from the shards.
  std::vector<ByteBuf> cached_aes;
  const CellStats cached = run(&cached_aes);
  EXPECT_EQ(cached.result_digest(), fresh.result_digest());
  EXPECT_EQ(cached.total_queries, fresh.total_queries);
  EXPECT_EQ(cached_aes, fresh_aes);
  EXPECT_EQ(cached.wall_ms, 0.0);

  // The shard key covers the config digest: another budget misses every
  // shard and executes afresh.
  cfg.max_queries = 12;
  const CellStats rerun = run(nullptr);
  EXPECT_EQ(rerun.successes, 6u);
  EXPECT_GT(rerun.wall_ms, 0.0);
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
