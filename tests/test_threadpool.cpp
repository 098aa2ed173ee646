// Tests for the thread pool and the parallel harness built on it: task
// completion, exception propagation, nested submission (waiters help drain
// the queue), draining on destruction, and the key contract of the
// per-sample parallel run_cell -- identical CellStats at 1 thread and at N
// threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "attack/gamma.hpp"
#include "attack/mab.hpp"
#include "attack/mpass.hpp"
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

void expect_nested_fan_out_completes(std::size_t workers) {
  // The harness's shape: each "cell" task submits one task per "sample"
  // and waits for them. With one worker, the outer tasks can only finish if
  // waiting on inner futures runs queued tasks on the waiting thread.
  util::ThreadPool pool(workers);
  std::vector<std::future<int>> cells;
  for (int c = 0; c < 4; ++c)
    cells.push_back(pool.submit([&pool, c] {
      std::vector<std::future<int>> samples;
      samples.reserve(8);
      for (int i = 0; i < 8; ++i)
        samples.push_back(pool.submit([c, i] { return c * 8 + i; }));
      int sum = 0;
      for (auto& f : samples) sum += pool.wait(std::move(f));
      return sum;
    }));
  int sum = 0;
  for (auto& f : cells) sum += pool.wait(std::move(f));
  EXPECT_EQ(sum, 31 * 32 / 2) << workers << " workers";
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  expect_nested_fan_out_completes(1);
  expect_nested_fan_out_completes(4);
}

TEST(ThreadPool, OutsideThreadCanHelp) {
  util::ThreadPool pool(1);
  // Park the lone worker: the side task can then only run on the main
  // thread, helping from inside wait().
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto parked = pool.submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  const std::thread::id main_id = std::this_thread::get_id();
  auto side = pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(pool.wait(std::move(side)), main_id);
  release.store(true);
  pool.wait(std::move(parked));
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  std::vector<std::future<void>> futs;
  std::thread releaser;
  {
    util::ThreadPool pool(1);
    // The parked worker holds every later task in the queue; it is released
    // from another thread, normally after the destructor has begun. All
    // queued tasks must run before the destructor returns.
    futs.push_back(pool.submit([&release] {
      while (!release.load()) std::this_thread::yield();
    }));
    for (int i = 0; i < 16; ++i)
      futs.push_back(pool.submit([&ran] { ++ran; }));
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.store(true);
    });
  }
  releaser.join();
  EXPECT_EQ(ran.load(), 16);
  for (auto& f : futs)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
}

// The target's init seed. At this seed GAMMA and MAB each evade some but
// not all of the six samples at the threshold set below, so both the
// success and the failure paths are compared across thread counts.
constexpr std::uint64_t kTargetSeed = 6;

/// run_cell must produce bit-identical CellStats regardless of the thread
/// count (per-sample clones + per-sample RNG streams seeded from the sample
/// digest make each outcome independent of scheduling order). `want_digest`
/// pins the 1-thread result_digest(), so a drifted attack constant fails
/// here too, not only in the golden grids.
template <typename MakeAttack>
void expect_thread_count_invariance(MakeAttack make_attack,
                                    std::uint64_t want_digest) {
  std::vector<util::ByteBuf> samples;
  for (int i = 0; i < 6; ++i)
    samples.push_back(corpus::make_malware(9100 + i).bytes());
  std::vector<util::ByteBuf> pool_benign;
  for (int i = 0; i < 4; ++i)
    pool_benign.push_back(corpus::make_benign(9200 + i).bytes());

  // Every sample stays detected (score >= threshold), and the lowest-scored
  // one sits right at the threshold, so every attack here can evade and
  // the comparison covers real AEs, not only query counts.
  detect::ByteConvDetector target("tgt", detect::malconv_config(),
                                  kTargetSeed);
  double lowest = 1.0;
  for (const util::ByteBuf& s : samples)
    lowest = std::min(lowest, target.score(s));
  target.set_threshold(lowest);

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

  ASSERT_GT(s1.successes, 0u);
  ASSERT_FALSE(aes1.empty());
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
  EXPECT_EQ(s1.result_digest(), want_digest);
  EXPECT_GT(s1.total_queries, 0u);
}

TEST(ThreadPool, RunCellDeterministicAcrossThreadCounts) {
  expect_thread_count_invariance([](std::span<const util::ByteBuf> benign) {
    return std::make_unique<attack::Gamma>(benign);
  }, 0x44fdeb3bfd1be37eull);
}

TEST(ThreadPool, RunCellDeterministicForStatefulAttackClones) {
  // MAB keeps cross-sample bandit state; per-sample clones reset it, which
  // is exactly what makes the parallel schedule order-free.
  expect_thread_count_invariance([](std::span<const util::ByteBuf> benign) {
    return std::make_unique<attack::Mab>(benign);
  }, 0x642b394b6cb4b823ull);
}

TEST(ThreadPool, RunCellDeterministicForMpassCopiedKnownModels) {
  // The known nets are locals of the factory and die before run_cell
  // starts: the attack must have copied them, and every per-sample clone
  // optimizes on its own copies, whatever thread it runs on. `a` has the
  // target's config and seed, so it is the target's net.
  expect_thread_count_invariance([](std::span<const util::ByteBuf> benign) {
    ml::ByteConvNet a(detect::malconv_config(), kTargetSeed);
    ml::ByteConvNet b(detect::malconv_config(), 32);
    ml::ByteConvNet* const known[] = {&a, &b};
    return std::make_unique<attack::Mpass>("MPass", attack::MpassConfig{},
                                           benign, known);
  }, 0xe49d62ff11191eccull);
}

}  // namespace
}  // namespace mpass
