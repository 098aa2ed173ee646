// Bit-identity tests for ByteConvNet's vectorized kernels against scalar
// references that live only here: the per-filter convolution dot product
// (bias first, window in order) that conv_row's filter-major kernel
// replaced, and the per-candidate embedding dot product of the optimizer's
// 256-candidate scan that byte_dots replaced. Every comparison is EXPECT_EQ
// on floats: the kernels must perform the same float operations in the
// same order, only with vector lanes over independent outputs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "detectors/models.hpp"
#include "ml/byteconv.hpp"
#include "util/rng.hpp"

namespace mpass::ml {

/// Read access to the conv pre-activation caches (befriended by the net).
struct ByteConvProbe {
  static const std::vector<float>& a(const ByteConvNet& net) { return net.a_; }
  static const std::vector<float>& b(const ByteConvNet& net) { return net.b_; }
};

namespace {

using util::ByteBuf;

const std::vector<float>& weights(ByteConvNet& net, const std::string& name) {
  for (const Param* p : net.params().all())
    if (p->name == name) return p->w;
  throw std::invalid_argument("no param " + name);
}

float sigmoid_ref(float x) { return 1.0f / (1.0f + std::exp(-x)); }

struct ScalarForward {
  std::vector<float> a, b;
  float prob = 0.0f;
};

/// The scalar forward pass: one dot product per filter and timestep,
/// seeded with the bias and summed in window order, then gating, channel
/// gating, max pool and the dense head.
ScalarForward scalar_forward(ByteConvNet& net,
                             std::span<const std::uint8_t> bytes) {
  const ByteConvConfig& c = net.config();
  const int d = c.embed_dim, F = c.filters, W = c.width, H = c.hidden;
  const auto& emb = weights(net, "emb");
  const auto& wa = weights(net, "wa");
  const auto& ba = weights(net, "ba");
  const auto& wb = weights(net, "wb");
  const auto& bb = weights(net, "bb");

  const std::size_t n = std::min(bytes.size(), c.max_len);
  const std::size_t n_tok = std::max<std::size_t>(n, W);
  std::vector<float> x(n_tok * d);
  for (std::size_t t = 0; t < n_tok; ++t) {
    const int tok = t < n ? bytes[t] : 256;
    for (int k = 0; k < d; ++k) x[t * d + k] = emb[tok * d + k];
  }
  const std::size_t T = n_tok < static_cast<std::size_t>(W)
                            ? 0
                            : (n_tok - W) / c.stride + 1;
  const int window = W * d;
  ScalarForward out;
  out.a.assign(T * F, 0.0f);
  out.b.assign(T * F, 0.0f);
  std::vector<float> h(T * F);
  for (std::size_t p = 0; p < T; ++p) {
    const float* win = x.data() + p * c.stride * d;
    for (int f = 0; f < F; ++f) {
      float sa = ba[f];
      float sb = bb[f];
      for (int i = 0; i < window; ++i) {
        sa += wa[f * window + i] * win[i];
        sb += wb[f * window + i] * win[i];
      }
      out.a[p * F + f] = sa;
      out.b[p * F + f] = sb;
      h[p * F + f] = c.gated ? sa * sigmoid_ref(sb) : std::max(0.0f, sa);
    }
  }

  std::vector<float> gate(F, 1.0f), ctx(F, 0.0f);
  if (c.channel_gating && T > 0) {
    const auto& wg = weights(net, "wg");
    const auto& bg = weights(net, "bg");
    for (std::size_t p = 0; p < T; ++p)
      for (int f = 0; f < F; ++f) ctx[f] += h[p * F + f];
    for (int f = 0; f < F; ++f) ctx[f] /= static_cast<float>(T);
    for (int f = 0; f < F; ++f) {
      float s = bg[f];
      for (int j = 0; j < F; ++j) s += wg[f * F + j] * ctx[j];
      gate[f] = sigmoid_ref(s);
    }
  }
  std::vector<float> pooled(F, 0.0f);
  for (int f = 0; f < F; ++f) {
    float best = -1e30f;
    for (std::size_t p = 0; p < T; ++p)
      best = std::max(best, h[p * F + f] * gate[f]);
    pooled[f] = T > 0 ? best : 0.0f;
  }
  const auto& w1 = weights(net, "w1");
  const auto& b1 = weights(net, "b1");
  const auto& w2 = weights(net, "w2");
  float z = weights(net, "b2")[0];
  for (int i = 0; i < H; ++i) {
    float s = b1[i];
    for (int f = 0; f < F; ++f) s += w1[i * F + f] * pooled[f];
    z += w2[i] * std::max(0.0f, s);
  }
  out.prob = sigmoid_ref(z);
  return out;
}

/// The detector configs whose filter counts matter: the tiny test net
/// (F=6), the zoo's surrogates (F=24, 12 with channel gating, 20 relu),
/// MalConv (F=16) and MalGCG (width 48), at a short max_len.
std::vector<ByteConvConfig> kernel_configs() {
  std::vector<ByteConvConfig> out;
  ByteConvConfig tiny;
  tiny.embed_dim = 4;
  tiny.filters = 6;
  tiny.width = 16;
  tiny.stride = 8;
  tiny.hidden = 6;
  out.push_back(tiny);
  ByteConvConfig a = detect::malconv_config();
  a.embed_dim = 6;
  a.filters = 24;
  a.width = 24;
  a.stride = 12;
  out.push_back(a);
  ByteConvConfig b = detect::malgcg_config();
  b.filters = 12;
  b.width = 64;
  b.stride = 32;
  out.push_back(b);
  ByteConvConfig c = detect::malconv_config();
  c.gated = false;
  c.filters = 20;
  c.width = 16;
  c.stride = 8;
  out.push_back(c);
  out.push_back(detect::malconv_config());
  out.push_back(detect::malgcg_config());
  for (ByteConvConfig& cfg : out) cfg.max_len = 3000;
  return out;
}

/// A net whose biases are nonzero too (the constructor leaves them 0), so
/// the position of the bias in each sum shows in the result.
ByteConvNet make_net(const ByteConvConfig& cfg, std::uint64_t seed) {
  ByteConvNet net(cfg, seed);
  util::Rng rng(seed);
  for (Param* p : net.params().all())
    if (p->name[0] == 'b')
      for (float& w : p->w) w = static_cast<float>(rng.gaussian(0.0, 0.5));
  net.params().bump_version();
  return net;
}

std::string describe(const ByteConvConfig& c) {
  return "F=" + std::to_string(c.filters) + " W=" + std::to_string(c.width) +
         " d=" + std::to_string(c.embed_dim) +
         (c.channel_gating ? " gcg" : "") + (c.gated ? "" : " relu");
}

void expect_matches_scalar(ByteConvNet& net, const ByteBuf& input) {
  const float prob = net.forward(input);
  const ScalarForward ref = scalar_forward(net, input);
  const auto& a = ByteConvProbe::a(net);
  const auto& b = ByteConvProbe::b(net);
  ASSERT_EQ(a.size(), ref.a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], ref.a[i]) << "a[" << i << "]";
    ASSERT_EQ(b[i], ref.b[i]) << "b[" << i << "]";
  }
  EXPECT_EQ(prob, ref.prob);
}

TEST(ByteConvKernels, ConvRowMatchesScalarDotProducts) {
  util::Rng rng(91);
  for (const ByteConvConfig& cfg : kernel_configs()) {
    SCOPED_TRACE(describe(cfg));
    ByteConvNet net = make_net(cfg, 17);
    // Shorter than a window (all padding past it), mid-length, and past
    // max_len (truncated).
    for (std::size_t len : {std::size_t{10}, std::size_t{1237},
                            std::size_t{4000}})
      expect_matches_scalar(net, rng.bytes(len));
  }
}

TEST(ByteConvKernels, ForwardUsesLiveWeightsWithoutVersionBump) {
  // Numeric gradient checks poke weights without bumping the ParamSet
  // version and call forward(): the filter-major copies must follow.
  for (const ByteConvConfig& cfg : kernel_configs()) {
    SCOPED_TRACE(describe(cfg));
    ByteConvNet net = make_net(cfg, 23);
    const ByteBuf input = util::Rng(5).bytes(900);
    net.forward(input);
    for (Param* p : net.params().all())
      if (p->name == "wa" || p->name == "wb" || p->name == "emb")
        for (std::size_t j = 0; j < p->size(); j += 7) p->w[j] += 0.25f;
    expect_matches_scalar(net, input);
  }
}

TEST(ByteConvKernels, ByteDotsMatchPerCandidateScan) {
  util::Rng rng(44);
  for (const ByteConvConfig& cfg : kernel_configs()) {
    SCOPED_TRACE(describe(cfg));
    ByteConvNet net(cfg, 31);
    net.forward(rng.bytes(700));
    const int d = cfg.embed_dim;
    std::vector<float> g(d);
    std::array<float, 256> dots;
    for (int trial = 0; trial < 8; ++trial) {
      for (float& gk : g) gk = static_cast<float>(rng.gaussian(0.0, 0.01));
      net.byte_dots(g, dots);
      // The scan's per-candidate dot, s = sum_k g[k] * E[v][k] from 0.0f.
      std::array<float, 256> ref;
      for (int v = 0; v < 256; ++v) {
        const auto e = net.embedding_row(v);
        float s = 0.0f;
        for (int k = 0; k < d; ++k) s += g[k] * e[k];
        ref[v] = s;
        ASSERT_EQ(dots[v], s) << "v=" << v;
      }
      // Key coupling: byte v at p forces key cur_key + (v - cur), which
      // is the dot of byte (v + rot) & 255 with rot = cur_key - cur.
      const std::uint8_t cur = rng.byte();
      const std::uint8_t cur_key = rng.byte();
      const std::uint8_t rot = static_cast<std::uint8_t>(cur_key - cur);
      for (int v = 0; v < 256; ++v) {
        const std::uint8_t kv = static_cast<std::uint8_t>(
            cur_key + static_cast<std::uint8_t>(v - cur));
        ASSERT_EQ(dots[(v + rot) & 255], ref[kv]) << "v=" << v;
      }
    }
  }
}

TEST(ByteConvKernels, ByteDotsFollowWeightUpdates) {
  // After a training step, the next forward rebuilds the embedding copy.
  ByteConvNet net(kernel_configs()[0], 37);
  const ByteBuf input = util::Rng(8).bytes(600);
  net.forward(input);
  net.params().zero_grad();
  net.backward(1.0f);
  Adam(net.params(), 0.05f).step();
  net.forward_auto(input);
  const std::vector<float> g = {0.5f, -0.25f, 1.0f, 0.125f};
  std::array<float, 256> dots;
  net.byte_dots(g, dots);
  for (int v = 0; v < 256; ++v) {
    const auto e = net.embedding_row(v);
    float s = 0.0f;
    for (int k = 0; k < 4; ++k) s += g[k] * e[k];
    ASSERT_EQ(dots[v], s) << "v=" << v;
  }
}

}  // namespace
}  // namespace mpass::ml
