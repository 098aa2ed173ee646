// Component micro-benchmarks (google-benchmark): PE parse/build, feature
// extraction, detector inference, the MPass optimizer step, MalRNN's GRU
// byte generation, emulator throughput, LZSS, Shapley.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include "core/modification.hpp"
#include "core/optimizer.hpp"
#include "corpus/generator.hpp"
#include "detectors/features.hpp"
#include "detectors/models.hpp"
#include "explain/shapley.hpp"
#include "ml/gru.hpp"
#include "pack/packer.hpp"
#include "pe/pe.hpp"
#include "util/compress.hpp"
#include "util/threadpool.hpp"
#include "vm/sandbox.hpp"

namespace {

using namespace mpass;

const util::ByteBuf& sample_malware() {
  static const util::ByteBuf bytes = corpus::make_malware(0xBE9C).bytes();
  return bytes;
}

void BM_PeParse(benchmark::State& state) {
  const auto& bytes = sample_malware();
  for (auto _ : state)
    benchmark::DoNotOptimize(pe::PeFile::parse(bytes));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_PeParse);

void BM_PeBuild(benchmark::State& state) {
  const pe::PeFile file = pe::PeFile::parse(sample_malware());
  for (auto _ : state) benchmark::DoNotOptimize(file.build());
}
BENCHMARK(BM_PeBuild);

void BM_FeatureExtract(benchmark::State& state) {
  const auto& bytes = sample_malware();
  for (auto _ : state)
    benchmark::DoNotOptimize(detect::extract_features(bytes));
}
BENCHMARK(BM_FeatureExtract);

// One full forward over a 16 KB buffer (max_len): the whole convolution.
// Scoring an unchanged buffer through the detector would time the
// forward_auto cache hit instead.
void BM_MalConvForward(benchmark::State& state) {
  detect::ByteConvDetector det("bench", detect::malconv_config(), 11);
  util::ByteBuf buf = sample_malware();
  buf.resize(16384, 0x90);
  for (auto _ : state) benchmark::DoNotOptimize(det.net().forward(buf));
}
BENCHMARK(BM_MalConvForward);

// One attack-mode backward over a 16 KB buffer: the input gradient with
// the soft-pool surrogate (tau = 0.5), as each optimizer step runs it per
// known net.
void BM_MalConvBackward(benchmark::State& state) {
  detect::ByteConvDetector det("bench", detect::malconv_config(), 11);
  util::ByteBuf buf = sample_malware();
  buf.resize(16384, 0x90);
  det.net().forward(buf);
  std::vector<float> grad;
  for (auto _ : state)
    benchmark::DoNotOptimize(det.net().backward(
        0.0f, &grad, /*accumulate_params=*/false, /*soft_pool_tau=*/0.5f));
}
BENCHMARK(BM_MalConvBackward);

// Single-window-edit query cost: the inner loop of every query-based
// attack -- mutate one small window, re-score. Delta scores through the
// detector (forward_auto: diff vs cached activations), Full calls the net's
// forward(), which re-convolves the whole buffer each query. The attack
// grids are this, millions of times.
void BM_MalConvQueryDelta(benchmark::State& state) {
  detect::ByteConvDetector det("bench", detect::malconv_config(), 11);
  util::ByteBuf buf = sample_malware();
  if (buf.size() < 16384) buf.resize(16384, 0x90);
  det.score(buf);  // warm the cache
  std::size_t at = 0;
  std::uint8_t v = 1;
  for (auto _ : state) {
    for (std::size_t j = 0; j < 64; ++j) buf[at + j] = v;
    benchmark::DoNotOptimize(det.score(buf));
    at = (at + 512) % (buf.size() - 64);
    ++v;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MalConvQueryDelta);

void BM_MalConvQueryFull(benchmark::State& state) {
  detect::ByteConvDetector det("bench", detect::malconv_config(), 11);
  util::ByteBuf buf = sample_malware();
  if (buf.size() < 16384) buf.resize(16384, 0x90);
  std::size_t at = 0;
  std::uint8_t v = 1;
  for (auto _ : state) {
    for (std::size_t j = 0; j < 64; ++j) buf[at + j] = v;
    benchmark::DoNotOptimize(det.net().forward(buf));
    at = (at + 512) % (buf.size() - 64);
    ++v;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MalConvQueryFull);

// One MPass optimization step (paper §III-D) over three MalConv-shaped
// known nets on a modified sample: forward + input gradients, the
// 256-candidate scan, the line search. Each iteration starts from the same
// sample with the nets' caches synced to it, as after a previous step.
void BM_OptimizerStep(benchmark::State& state) {
  std::vector<std::unique_ptr<detect::ByteConvDetector>> dets;
  std::vector<ml::ByteConvNet*> nets;
  for (std::uint64_t seed : {21, 22, 23}) {
    dets.push_back(std::make_unique<detect::ByteConvDetector>(
        "bench", detect::malconv_config(), seed));
    nets.push_back(&dets.back()->net());
  }
  util::Rng rng(7);
  const core::ModifiedSample base = core::apply_modification(
      sample_malware(), corpus::make_benign(0xD0).bytes(),
      core::ModificationConfig{}, rng);
  const core::EnsembleOptimizer opt(nets);
  core::ModifiedSample sample;
  for (auto _ : state) {
    state.PauseTiming();
    sample = base;
    opt.ensemble_loss(sample.bytes);
    state.ResumeTiming();
    benchmark::DoNotOptimize(opt.step(sample));
  }
}
BENCHMARK(BM_OptimizerStep)->Unit(benchmark::kMillisecond);

// MalRNN's inner loop: one 2048-byte chunk (its first append) from the
// default-size GRU conditioned on a 64-byte overlay tail. The cost per byte
// does not depend on the weights, so the LM is left untrained.
void BM_GruGenerate(benchmark::State& state) {
  const ml::GruLm lm(ml::GruLmConfig{}, 3);
  util::Rng rng(9);
  const util::ByteBuf context = rng.bytes(64);
  constexpr std::size_t kBytes = 2048;
  for (auto _ : state)
    benchmark::DoNotOptimize(lm.generate(kBytes, rng, context, 0.8f));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * kBytes));
}
BENCHMARK(BM_GruGenerate)->Unit(benchmark::kMillisecond);

void BM_VmExecute(benchmark::State& state) {
  const auto& bytes = sample_malware();
  std::uint64_t steps = 0;
  for (auto _ : state) {
    vm::Machine machine(bytes);
    const vm::RunResult r = machine.run();
    steps += r.steps;
    benchmark::DoNotOptimize(r.halted);
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecute);

void BM_LzssRoundtrip(benchmark::State& state) {
  const auto& bytes = sample_malware();
  for (auto _ : state) {
    auto packed = util::lzss_compress(bytes);
    benchmark::DoNotOptimize(util::lzss_decompress(packed));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_LzssRoundtrip);

void BM_PackUpx(benchmark::State& state) {
  const auto& bytes = sample_malware();
  for (auto _ : state)
    benchmark::DoNotOptimize(pack::pack(pack::PackerKind::UpxLike, bytes));
}
BENCHMARK(BM_PackUpx);

void BM_ShapleyExact(benchmark::State& state) {
  const pe::PeFile file = pe::PeFile::parse(sample_malware());
  // Cheap surrogate scorer: file-size parity of nonzero content -- isolates
  // the Shapley enumeration cost from model inference cost.
  auto scorer = [](std::span<const std::uint8_t> b) {
    std::size_t nz = 0;
    for (std::uint8_t x : b) nz += (x != 0);
    return static_cast<double>(nz % 997) / 997.0;
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(explain::shapley_values(file, scorer));
}
BENCHMARK(BM_ShapleyExact);

// Fan-out/join overhead of the harness thread pool: 64 small CPU-bound
// tasks per iteration, the shape of one run_cell at MPASS_N=64. Arg is the
// worker count.
void BM_ThreadPoolFanout(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::future<std::uint64_t>> futs;
    futs.reserve(64);
    for (std::uint64_t i = 0; i < 64; ++i)
      futs.push_back(pool.submit([i] {
        std::uint64_t h = i;
        for (int k = 0; k < 2000; ++k)
          h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        return h;
      }));
    std::uint64_t acc = 0;
    for (auto& f : futs) acc += pool.wait(std::move(f));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolFanout)->Arg(1)->Arg(4);

}  // namespace

// Expanded BENCHMARK_MAIN() so the process also emits BENCH_micro.json
// (and flushes any MPASS_PROFILE trace) after the benchmarks run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  {
    mpass::bench::BenchReport report("micro");
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
