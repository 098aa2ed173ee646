// Tests for the work-stealing thread pool and the parallel harness built on
// it: task completion, exception propagation, nested submission (waiters
// help drain the pool), and the key contract of the per-sample parallel
// run_cell -- identical CellStats at 1 thread and at N threads.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "attack/gamma.hpp"
#include "attack/mab.hpp"
#include "corpus/generator.hpp"
#include "detectors/models.hpp"
#include "harness/experiment.hpp"
#include "util/threadpool.hpp"

namespace mpass {
namespace {

TEST(ThreadPool, CompletesAllTasksWithResults) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<int>> futs;
  futs.reserve(200);
  for (int i = 0; i < 200; ++i)
    futs.push_back(pool.submit([&count, i] {
      ++count;
      return i;
    }));
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(pool.wait(std::move(futs[static_cast<std::size_t>(i)])), i);
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  util::ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(std::move(bad)), std::runtime_error);
  // The worker that ran the throwing task stays alive and usable.
  EXPECT_EQ(pool.wait(pool.submit([] { return 7; })), 7);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  // Single worker: the outer task can only finish if waiting on inner
  // futures executes pending tasks on the waiting thread.
  util::ThreadPool pool(1);
  auto outer = pool.submit([&pool] {
    std::vector<std::future<int>> inner;
    inner.reserve(8);
    for (int i = 0; i < 8; ++i)
      inner.push_back(pool.submit([i] { return i * i; }));
    int sum = 0;
    for (auto& f : inner) sum += pool.wait(std::move(f));
    return sum;
  });
  EXPECT_EQ(pool.wait(std::move(outer)), 140);
}

TEST(ThreadPool, OutsideThreadCanHelp) {
  util::ThreadPool pool(1);
  // Park the lone worker so pending tasks can only run via run_one().
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto parked = pool.submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  auto side = pool.submit([] { return 42; });
  while (!pool.run_one()) std::this_thread::yield();
  EXPECT_EQ(side.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(side.get(), 42);
  release.store(true);
  pool.wait(std::move(parked));
}

/// run_cell must produce bit-identical CellStats regardless of the thread
/// count (per-sample clones + per-sample RNG streams seeded from the sample
/// digest make each outcome independent of scheduling order).
template <typename MakeAttack>
void expect_thread_count_invariance(MakeAttack make_attack) {
  std::vector<util::ByteBuf> samples;
  for (int i = 0; i < 6; ++i)
    samples.push_back(corpus::make_malware(9100 + i).bytes());
  std::vector<util::ByteBuf> pool_benign;
  for (int i = 0; i < 4; ++i)
    pool_benign.push_back(corpus::make_benign(9200 + i).bytes());

  detect::ByteConvDetector target("tgt", detect::malconv_config(), 4711);

  harness::ExperimentConfig cfg;
  cfg.n_samples = samples.size();
  cfg.max_queries = 12;
  cfg.seed = 424242;
  cfg.use_cache = false;  // exercise real runs, not the per-sample cache

  util::ThreadPool one(1);
  util::ThreadPool many(8);
  auto atk1 = make_attack(pool_benign);
  auto atk8 = make_attack(pool_benign);
  std::vector<util::ByteBuf> aes1, aes8;
  const harness::CellStats s1 =
      harness::run_cell(*atk1, target, samples, samples, cfg, &one, &aes1);
  const harness::CellStats s8 =
      harness::run_cell(*atk8, target, samples, samples, cfg, &many, &aes8);

  EXPECT_EQ(s1.n, s8.n);
  EXPECT_EQ(s1.successes, s8.successes);
  EXPECT_DOUBLE_EQ(s1.asr, s8.asr);
  EXPECT_DOUBLE_EQ(s1.avq, s8.avq);
  EXPECT_DOUBLE_EQ(s1.apr, s8.apr);
  EXPECT_DOUBLE_EQ(s1.functional, s8.functional);
  ASSERT_EQ(aes1.size(), aes8.size());
  for (std::size_t i = 0; i < aes1.size(); ++i)
    EXPECT_EQ(aes1[i], aes8[i]) << "AE " << i << " differs";
  EXPECT_EQ(s1.ae_digest, s8.ae_digest);
  EXPECT_EQ(s1.result_digest(), s8.result_digest());
  EXPECT_GT(s1.total_queries, 0u);
}

TEST(ThreadPool, RunCellDeterministicAcrossThreadCounts) {
  expect_thread_count_invariance([](std::span<const util::ByteBuf> benign) {
    return std::make_unique<attack::Gamma>(attack::GammaConfig{}, benign);
  });
}

TEST(ThreadPool, RunCellDeterministicForStatefulAttackClones) {
  // MAB keeps cross-sample bandit state; per-sample clones reset it, which
  // is exactly what makes the parallel schedule order-free.
  expect_thread_count_invariance([](std::span<const util::ByteBuf> benign) {
    return std::make_unique<attack::Mab>(attack::MabConfig{}, benign);
  });
}

}  // namespace
}  // namespace mpass
