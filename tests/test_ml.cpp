// Tests for the from-scratch ML stack: numerical gradient checks on the
// byte-conv net, GBDT fitting behavior, GRU language-model learning, Adam.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "detectors/models.hpp"
#include "ml/byteconv.hpp"
#include "ml/gbdt.hpp"
#include "ml/gru.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace mpass::ml {
namespace {

using util::ByteBuf;

ByteConvConfig tiny_config() {
  ByteConvConfig cfg;
  cfg.max_len = 256;
  cfg.embed_dim = 4;
  cfg.filters = 6;
  cfg.width = 8;
  cfg.stride = 4;
  cfg.hidden = 5;
  return cfg;
}

// Central-difference gradient check of every parameter tensor.
void gradient_check(const ByteConvConfig& cfg, float target) {
  ByteConvNet net(cfg, 7);
  util::Rng rng(3);
  const ByteBuf input = rng.bytes(200);

  net.forward(input);
  net.params().zero_grad();
  net.backward(target);

  const float eps = 1e-3f;
  int checked = 0;
  for (Param* p : net.params().all()) {
    if (p->size() == 0) continue;
    // Probe a handful of coordinates per tensor.
    for (std::size_t j = 0; j < p->size(); j += std::max<std::size_t>(1, p->size() / 5)) {
      const float orig = p->w[j];
      p->w[j] = orig + eps;
      const float up = bce_loss(net.forward(input), target);
      p->w[j] = orig - eps;
      const float down = bce_loss(net.forward(input), target);
      p->w[j] = orig;
      const float numeric = (up - down) / (2 * eps);
      const float analytic = p->g[j];
      // Max-pool argmax switches make gradients piecewise; allow tolerance.
      EXPECT_NEAR(analytic, numeric, 5e-2f + 0.05f * std::abs(numeric))
          << p->name << "[" << j << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(ByteConv, GradientCheckPlain) {
  ByteConvConfig cfg = tiny_config();
  cfg.gated = false;
  gradient_check(cfg, 1.0f);
}

TEST(ByteConv, GradientCheckGated) { gradient_check(tiny_config(), 0.0f); }

TEST(ByteConv, GradientCheckChannelGated) {
  ByteConvConfig cfg = tiny_config();
  cfg.channel_gating = true;
  gradient_check(cfg, 1.0f);
}

TEST(ByteConv, InputGradientMatchesNumeric) {
  const ByteConvConfig cfg = tiny_config();
  ByteConvNet net(cfg, 9);
  util::Rng rng(5);
  const ByteBuf input = rng.bytes(120);
  net.forward(input);
  std::vector<float> grad;
  net.backward(0.0f, &grad, /*accumulate_params=*/false);

  // Perturb one embedding coordinate via the embedding table of the byte at
  // position t (only occurrence matters, so pick a byte appearing once).
  const std::size_t t = 17;
  const int tok = input[t];
  // Give the position a unique token to isolate its embedding row.
  ByteBuf unique = input;
  unique[t] = 0xEE;
  bool is_unique = true;
  for (std::size_t i = 0; i < unique.size(); ++i)
    if (i != t && unique[i] == 0xEE) is_unique = false;
  if (!is_unique) GTEST_SKIP() << "collision; skip";
  (void)tok;

  net.forward(unique);
  net.backward(0.0f, &grad, false);
  Param* emb = net.params().all()[0];
  const float eps = 1e-3f;
  const std::size_t base = 0xEE * static_cast<std::size_t>(cfg.embed_dim);
  for (int k = 0; k < cfg.embed_dim; ++k) {
    const float orig = emb->w[base + k];
    emb->w[base + k] = orig + eps;
    const float up = bce_loss(net.forward(unique), 0.0f);
    emb->w[base + k] = orig - eps;
    const float down = bce_loss(net.forward(unique), 0.0f);
    emb->w[base + k] = orig;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grad[t * cfg.embed_dim + k], numeric,
                5e-2f + 0.05f * std::abs(numeric));
  }
}

TEST(ByteConv, SoftPoolGradientIsDense) {
  const ByteConvConfig cfg = tiny_config();
  ByteConvNet net(cfg, 13);
  util::Rng rng(7);
  const ByteBuf input = rng.bytes(256);
  net.forward(input);
  std::vector<float> hard, soft;
  net.backward(0.0f, &hard, false, 0.0f);
  net.forward(input);
  net.backward(0.0f, &soft, false, 0.5f);
  auto nonzeros = [](const std::vector<float>& g) {
    std::size_t n = 0;
    for (float v : g)
      if (v != 0.0f) ++n;
    return n;
  };
  EXPECT_GT(nonzeros(soft), nonzeros(hard));
}

TEST(ByteConv, NonNegClampsDenseWeights) {
  ByteConvConfig cfg = tiny_config();
  cfg.nonneg = true;
  ByteConvNet net(cfg, 21);
  net.clamp_nonneg();
  bool has_w1 = false;
  for (Param* p : net.params().all()) {
    if (p->name == "w1" || p->name == "w2") {
      has_w1 = true;
      for (float w : p->w) EXPECT_GE(w, 0.0f);
    }
  }
  EXPECT_TRUE(has_w1);
}

TEST(ByteConv, TrainsToSeparateSimpleClasses) {
  // Class 1 = files containing many 0xCC bytes; class 0 = none.
  const ByteConvConfig cfg = tiny_config();
  ByteConvNet net(cfg, 31);
  Adam opt(net.params(), 5e-3f);
  util::Rng rng(11);
  for (int step = 0; step < 300; ++step) {
    const int label = step % 2;
    ByteBuf x = rng.bytes(128);
    for (auto& b : x)
      if (label && rng.chance(0.3)) b = 0xCC;
      else if (b == 0xCC) b = 0;
    net.forward(x);
    net.backward(static_cast<float>(label));
    opt.step();
  }
  int correct = 0;
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    ByteBuf x = rng.bytes(128);
    for (auto& b : x)
      if (label && rng.chance(0.3)) b = 0xCC;
      else if (b == 0xCC) b = 0;
    correct += (net.forward(x) > 0.5f) == (label == 1);
  }
  EXPECT_GE(correct, 34);
}

TEST(ByteConv, SaveLoadRoundTrip) {
  const ByteConvConfig cfg = tiny_config();
  ByteConvNet net(cfg, 41);
  util::Rng rng(13);
  const ByteBuf x = rng.bytes(100);
  const float before = net.forward(x);
  util::Archive ar;
  net.save(ar);
  const ByteBuf blob = ar.take();
  ByteConvNet other(cfg, 999);
  util::Unarchive un(blob);
  other.load(un);
  EXPECT_FLOAT_EQ(other.forward(x), before);
}

// The detectors' byte nets read a file's first max_len = 16384 bytes; the
// original MalConv reads 2 MB (DESIGN.md). A byte past that window cannot
// move the score, which is why appends beyond it (MalRNN) are invisible.
TEST(ByteConv, ReadsOnlyTheFirstMaxLenBytes) {
  const ByteConvConfig cfg = detect::malconv_config();
  ASSERT_EQ(cfg.max_len, 16384u);
  ByteConvNet net(cfg, 5);
  // A uniform file ties every pooling window, so a flip inside the window
  // raises some filter's maximum.
  const ByteBuf x(cfg.max_len + 4096, 0);
  const float base = net.forward(x);
  for (const std::size_t off :
       {cfg.max_len, cfg.max_len + 100, x.size() - 1}) {
    ByteBuf past = x;
    past[off] ^= 0xFF;
    EXPECT_EQ(net.forward(past), base) << "offset " << off;
  }
  ByteBuf inside = x;
  inside[cfg.max_len / 2] ^= 0xFF;
  EXPECT_NE(net.forward(inside), base);
}

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::uint64_t floats_digest(std::span<const float> v) {
  return util::fnv1a64({reinterpret_cast<const std::uint8_t*>(v.data()),
                        v.size_bytes()});
}

// Bits recorded with the 4-lane kernels: forward's probability, the FNV
// of backward's input gradient (attack mode, hard max pool and soft pool
// tau = 0.5) and the FNV of every parameter gradient after one training
// backward. Every kernel width must reproduce them. The configs are the
// three target architectures (gated, channel-gated, non-negative) and the
// zoo's surrogate shapes (d = 6 / F = 24, channel-gated F = 12, ungated
// F = 20), with nonzero biases so the bias's place in each sum shows.
TEST(ByteConv, ForwardBackwardMatchParentBits) {
  ByteConvConfig sa = detect::malconv_config();
  sa.embed_dim = 6; sa.filters = 24; sa.width = 24; sa.stride = 12;
  ByteConvConfig sb = detect::malgcg_config();
  sb.filters = 12; sb.width = 64; sb.stride = 32;
  ByteConvConfig sc = detect::malconv_config();
  sc.gated = false; sc.filters = 20; sc.width = 16; sc.stride = 8;
  const struct {
    ByteConvConfig cfg;
    std::uint32_t prob;
    std::uint64_t hard, soft, params;
  } cases[] = {
      {detect::malconv_config(), 0x3f3c2546u, 0x4cd33b3b570919efULL,
       0xb2ed368e35b5d93fULL, 0x95e1331f3b5512c3ULL},
      {detect::malgcg_config(), 0x3f0fab7du, 0xbb1beb5d1485564aULL,
       0x20e03fb339d01ee3ULL, 0xbb714bc52adfaf5eULL},
      {detect::nonneg_config(), 0x3f49fc54u, 0xb49e893348e5612fULL,
       0xbca3b875353d23feULL, 0x65c2eb9f2b03d3e6ULL},
      {sa, 0x3e8a7023u, 0xe39491395a065bafULL,
       0xe3ea5d7273058575ULL, 0xf874bf82df55c65bULL},
      {sb, 0x3f0825f9u, 0x07bcffb7971df663ULL,
       0x64e6f65df4b654e8ULL, 0x4249ba4b51bdbb27ULL},
      {sc, 0x3f18edceu, 0x6b330fdbbc8be9b6ULL,
       0x4160b49b35378f9dULL, 0x2ab590ee17db3d02ULL},
  };
  std::uint64_t seed = 60;
  for (const auto& c : cases) {
    SCOPED_TRACE("F=" + std::to_string(c.cfg.filters) +
                 " W=" + std::to_string(c.cfg.width));
    ByteConvNet net(c.cfg, ++seed);
    util::Rng rng(seed);
    for (Param* p : net.params().all())
      if (p->name[0] == 'b')
        for (float& w : p->w) w = static_cast<float>(rng.gaussian(0.0, 0.5));
    net.params().bump_version();
    const ByteBuf input = rng.bytes(5000);
    std::vector<float> grad;
    EXPECT_EQ(float_bits(net.forward(input)), c.prob);
    net.backward(0.0f, &grad, /*accumulate_params=*/false, 0.0f);
    EXPECT_EQ(floats_digest(grad), c.hard);
    net.backward(0.0f, &grad, /*accumulate_params=*/false, 0.5f);
    EXPECT_EQ(floats_digest(grad), c.soft);
    net.params().zero_grad();
    net.backward(1.0f);
    std::uint64_t params = 0;
    for (const Param* p : net.params().all())
      params = util::hash_combine(params, floats_digest(p->g));
    EXPECT_EQ(params, c.params);
  }
}

// ---- GBDT --------------------------------------------------------------------

TEST(Gbdt, FitsAxisAlignedRule) {
  // y = 1 iff x[3] > 0.5
  util::Rng rng(17);
  std::vector<std::vector<float>> xs;
  std::vector<int> ys;
  for (int i = 0; i < 400; ++i) {
    std::vector<float> x(8);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    ys.push_back(x[3] > 0.5f ? 1 : 0);
    xs.push_back(std::move(x));
  }
  GbdtConfig cfg;
  cfg.trees = 20;
  Gbdt model(cfg);
  model.fit(xs, ys, 1);
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<float> x(8);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const int y = x[3] > 0.5f ? 1 : 0;
    correct += (model.predict(x) > 0.5f) == (y == 1);
  }
  EXPECT_GE(correct, 190);
}

TEST(Gbdt, FitsXorInteraction) {
  // y = x0>0.5 XOR x1>0.5 -- needs depth >= 2.
  util::Rng rng(19);
  std::vector<std::vector<float>> xs;
  std::vector<int> ys;
  for (int i = 0; i < 600; ++i) {
    std::vector<float> x(4);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    ys.push_back(((x[0] > 0.5f) != (x[1] > 0.5f)) ? 1 : 0);
    xs.push_back(std::move(x));
  }
  Gbdt model{GbdtConfig{}};
  model.fit(xs, ys, 2);
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<float> x(4);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const int y = ((x[0] > 0.5f) != (x[1] > 0.5f)) ? 1 : 0;
    correct += (model.predict(x) > 0.5f) == (y == 1);
  }
  EXPECT_GE(correct, 180);
}

TEST(Gbdt, PredictsPriorWithNoSignal) {
  std::vector<std::vector<float>> xs(100, std::vector<float>(3, 1.0f));
  std::vector<int> ys(100);
  for (int i = 0; i < 30; ++i) ys[i] = 1;  // 30% positive
  Gbdt model{GbdtConfig{}};
  model.fit(xs, ys, 3);
  EXPECT_NEAR(model.predict(xs[0]), 0.3f, 0.05f);
}

TEST(Gbdt, SaveLoadRoundTrip) {
  util::Rng rng(23);
  std::vector<std::vector<float>> xs;
  std::vector<int> ys;
  for (int i = 0; i < 100; ++i) {
    std::vector<float> x(5);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    ys.push_back(x[0] > 0.5f);
    xs.push_back(std::move(x));
  }
  Gbdt model{GbdtConfig{}};
  model.fit(xs, ys, 4);
  util::Archive ar;
  model.save(ar);
  const ByteBuf blob = ar.take();
  Gbdt other{GbdtConfig{}};
  util::Unarchive un(blob);
  other.load(un);
  for (int i = 0; i < 10; ++i)
    EXPECT_FLOAT_EQ(other.predict(xs[i]), model.predict(xs[i]));
}

TEST(Gbdt, FeatureImportanceConcentratesOnUsedFeature) {
  util::Rng rng(29);
  std::vector<std::vector<float>> xs;
  std::vector<int> ys;
  for (int i = 0; i < 300; ++i) {
    std::vector<float> x(6);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    ys.push_back(x[2] > 0.5f ? 1 : 0);
    xs.push_back(std::move(x));
  }
  Gbdt model{GbdtConfig{}};
  model.fit(xs, ys, 7);
  const auto importance = model.feature_importance(6);
  double sum = 0;
  for (double v : importance) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The label-defining feature dominates the splits.
  for (std::size_t f = 0; f < 6; ++f)
    if (f != 2) EXPECT_GT(importance[2], importance[f]);
}

TEST(Gbdt, RejectsEmptyData) {
  Gbdt model{GbdtConfig{}};
  EXPECT_THROW(model.fit({}, {}, 1), std::invalid_argument);
}

// ---- GRU LM ----------------------------------------------------------------

TEST(GruLm, LearnsRepetitivePattern) {
  GruLmConfig cfg;
  cfg.hidden = 24;
  cfg.embed = 8;
  cfg.bptt = 32;
  GruLm lm(cfg, 3);
  // Corpus: strict "ABAB..." alternation -- near-zero entropy per byte.
  const ByteBuf stream = [] {
    ByteBuf s;
    for (int i = 0; i < 512; ++i) s.push_back(i % 2 ? 'A' : 'B');
    return s;
  }();
  util::Rng rng(29);
  float loss = 0;
  for (int e = 0; e < 6; ++e)
    loss = lm.train_epoch({stream}, 60, 5e-3f, rng);
  EXPECT_LT(loss, 0.3f);  // << log(256) ~ 5.5 nats

  // Generation continues the alternation most of the time.
  const ByteBuf ctx = {'A', 'B', 'A', 'B', 'A', 'B'};
  const ByteBuf gen = lm.generate(50, rng, ctx, 0.2f);
  int ok = 0;
  for (std::size_t i = 0; i < gen.size(); ++i)
    if (gen[i] == 'A' || gen[i] == 'B') ++ok;
  EXPECT_GE(ok, 45);
  // And scores the pattern as much more likely than noise.
  EXPECT_LT(lm.evaluate(stream), lm.evaluate(rng.bytes(256)));
}

TEST(GruLm, SaveLoadRoundTrip) {
  GruLmConfig cfg;
  cfg.hidden = 16;
  GruLm lm(cfg, 5);
  util::Rng rng(31);
  const ByteBuf probe = rng.bytes(64);
  const float before = lm.evaluate(probe);
  util::Archive ar;
  lm.save(ar);
  const ByteBuf blob = ar.take();
  GruLm other(cfg, 99);
  util::Unarchive un(blob);
  other.load(un);
  EXPECT_FLOAT_EQ(other.evaluate(probe), before);
}

// A briefly trained LM, so generation samples from a peaked distribution
// rather than the near-uniform one of fresh weights.
void train_briefly(GruLm& lm) {
  util::Rng rng(41);
  ByteBuf stream;
  for (int i = 0; i < 600; ++i)
    stream.push_back(i % 7 ? static_cast<std::uint8_t>(i % 5) : rng.byte());
  lm.train_epoch({stream, rng.bytes(300)}, 12, 5e-3f, rng);
}

// Digests of generate() output and of the Rng's next draw, recorded with
// the scalar GRU step: the packed inference step must reproduce it bit for
// bit. H=10/E=3 pads H to 12; context 100 exercises the 64-byte tail cut.
TEST(GruLm, GenerateMatchesParentDigests) {
  struct Case {
    int hidden, embed;
    std::size_t context, n;
    float temperature;
    std::uint64_t digest, rng_next;
  };
  const Case cases[] = {
      {48, 16, 0, 3000, 0.8f, 0x3253b2022090f1ddULL, 0x50c0278b02575d62ULL},
      {48, 16, 5, 3000, 0.2f, 0xe09ef94317e95779ULL, 0xd5eb2c82ef4f1ddeULL},
      {48, 16, 100, 3000, 1.0f, 0x22aba68e6d78a21fULL, 0x4b513206b21a4827ULL},
      {48, 16, 100, 1, 0.8f, 0xaf63fc4c860222ecULL, 0xba3acf64a4ef1817ULL},
      {48, 16, 0, 1, 0.2f, 0xaf642d4c8602762fULL, 0xfadf296c0d30a0c6ULL},
      {10, 3, 0, 3000, 0.8f, 0x802052f6ef63a5f8ULL, 0x70f2a176b3a73b81ULL},
      {10, 3, 5, 3000, 1.0f, 0x967d8940f5e578edULL, 0xea0882bb7f19dddcULL},
      {10, 3, 100, 3000, 0.2f, 0xbc9e6edfaf7b2c4cULL, 0x2aa0f3e99f4de062ULL},
      {10, 3, 5, 1, 0.8f, 0xaf64354c860283c7ULL, 0x2889932b629dcb9aULL},
  };
  std::uint64_t seed = 1000;
  for (const Case& c : cases) {
    GruLmConfig cfg;
    cfg.hidden = c.hidden;
    cfg.embed = c.embed;
    GruLm lm(cfg, 7);
    train_briefly(lm);
    util::Rng ctx_rng(c.context);
    const ByteBuf context = ctx_rng.bytes(c.context);
    util::Rng rng(++seed);
    const ByteBuf out = lm.generate(c.n, rng, context, c.temperature);
    ASSERT_EQ(out.size(), c.n);
    EXPECT_EQ(util::fnv1a64(out), c.digest)
        << "H=" << c.hidden << " context=" << c.context << " n=" << c.n
        << " T=" << c.temperature;
    EXPECT_EQ(rng(), c.rng_next) << "H=" << c.hidden << " n=" << c.n;
  }
}

// Sampling hides ULP-level drift: a byte flips only when the uniform draw
// lands inside it. So this pins the float bits of evaluate() on every
// prefix of a probe; each is the mean of per-byte float logs, so a one-ULP
// change in any step's probabilities shows in some prefix.
TEST(GruLm, EvaluatePrefixesMatchParentBits) {
  const struct {
    int hidden, embed;
    std::uint64_t digest;
  } cases[] = {{48, 16, 0xdce8594d84a72c7dULL},
               {10, 3, 0x6657b9fed7d1bd82ULL}};
  for (const auto& c : cases) {
    GruLmConfig cfg;
    cfg.hidden = c.hidden;
    cfg.embed = c.embed;
    GruLm lm(cfg, 7);
    train_briefly(lm);
    util::Rng rng(5);
    ByteBuf probe;
    for (int i = 0; i < 160; ++i)
      probe.push_back(static_cast<std::uint8_t>(i % 3 ? i % 5 : rng.byte()));
    std::uint64_t digest = 0;
    for (std::size_t k = 1; k <= probe.size(); ++k)
      digest = util::hash_combine(
          digest, float_bits(lm.evaluate(std::span(probe).first(k))));
    EXPECT_EQ(digest, c.digest) << "H=" << c.hidden;
  }
}

// The packed inference tables follow the weights: after training, and
// after load() into a model built from another seed, generate() and
// evaluate() see the current parameters, not the ones packed at
// construction.
TEST(GruLm, PackedWeightsFollowLoadAndTraining) {
  GruLmConfig cfg;
  cfg.hidden = 10;
  cfg.embed = 3;
  GruLm lm(cfg, 5);
  train_briefly(lm);
  util::Archive ar;
  lm.save(ar);
  const ByteBuf blob = ar.take();
  GruLm other(cfg, 99);
  util::Unarchive un(blob);
  other.load(un);

  util::Rng probe_rng(3);
  const ByteBuf probe = probe_rng.bytes(200);
  EXPECT_EQ(float_bits(other.evaluate(probe)), float_bits(lm.evaluate(probe)));
  util::Rng a(17), b(17);
  EXPECT_EQ(other.generate(500, a, probe, 0.8f),
            lm.generate(500, b, probe, 0.8f));

  // A model that was never trained generates something else from the same
  // stream, so the equality above is not vacuous.
  GruLm fresh(cfg, 5);
  util::Rng c(17), d(17);
  EXPECT_NE(fresh.generate(500, c, probe, 0.8f),
            lm.generate(500, d, probe, 0.8f));
}

// MalRnn clones share one LM across pool threads: concurrent generate()
// calls with their own Rng streams must produce exactly the sequential
// output (and run race-free under ThreadSanitizer).
TEST(GruLm, ConcurrentGenerateMatchesSequential) {
  GruLm lm(GruLmConfig{}, 11);
  train_briefly(lm);
  util::Rng ctx_rng(2);
  const ByteBuf context = ctx_rng.bytes(80);
  constexpr int kThreads = 4;
  std::vector<ByteBuf> expected(kThreads), got(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    util::Rng rng(100 + t);
    expected[t] = lm.generate(400, rng, context, 0.8f);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      util::Rng rng(100 + t);
      got[t] = lm.generate(400, rng, context, 0.8f);
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected[t]) << t;
}

// ---- Adam --------------------------------------------------------------------

TEST(Adam, MinimizesQuadratic) {
  ParamSet params;
  Param& p = params.create("x", 3);
  p.w = {5.0f, -3.0f, 10.0f};
  Adam opt(params, 0.1f);
  for (int i = 0; i < 500; ++i) {
    for (std::size_t j = 0; j < 3; ++j) p.g[j] = 2.0f * p.w[j];  // d(x^2)
    opt.step();
  }
  for (float w : p.w) EXPECT_NEAR(w, 0.0f, 1e-2f);
}

}  // namespace
}  // namespace mpass::ml
