// Bit-identity tests for ByteConvNet's vectorized kernels against scalar
// references that live only here: the per-filter convolution dot product
// (bias first, window in order), the per-filter input-gradient loop of the
// backward pass, and the per-candidate embedding dot product and first-
// minimum argmin of the optimizer's 256-candidate scan. Every comparison is
// EXPECT_EQ on floats: the kernels must perform the same float operations
// in the same order, only with vector lanes over independent outputs.
//
// The net-level tests run whichever kernel set the process chose; the
// ByteNetKernelWidths suite calls the 4-lane and the 8-lane (AVX2) set
// directly, so the set a host does not choose is still covered wherever
// the CPU can run it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "detectors/models.hpp"
#include "ml/byteconv.hpp"
#include "ml/kernels.hpp"
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

/// The score of candidate `cur` under one net's scan term: every value
/// of cur gives the term's rotated dot product <g, E[(cur + rot) & 255]>.
float term_score(const ByteConvNet& net, const float* g, std::uint8_t rot,
                 int cur) {
  const ScanTerm t = net.scan_term(g, rot);
  return kernels().scan_candidates({&t, 1}, cur).cur_score;
}

TEST(ByteConvKernels, ScanTermMatchesPerCandidateDots) {
  util::Rng rng(44);
  for (const ByteConvConfig& cfg : kernel_configs()) {
    SCOPED_TRACE(describe(cfg));
    ByteConvNet net(cfg, 31);
    net.forward(rng.bytes(700));
    const int d = cfg.embed_dim;
    std::vector<float> g(d);
    for (int trial = 0; trial < 3; ++trial) {
      for (float& gk : g) gk = static_cast<float>(rng.gaussian(0.0, 0.01));
      // Key coupling: byte v at p forces key cur_key + (v - cur), which
      // is the dot of byte (v + rot) & 255 with rot = cur_key - cur.
      const std::uint8_t rot = trial == 0 ? 0 : rng.byte();
      for (int v = 0; v < 256; ++v) {
        const auto e = net.embedding_row((v + rot) & 255);
        float s = 0.0f;
        for (int k = 0; k < d; ++k) s += g[k] * e[k];
        ASSERT_EQ(term_score(net, g.data(), rot, v), s) << "v=" << v;
      }
    }
  }
}

TEST(ByteConvKernels, ScanTermFollowsWeightUpdates) {
  // After a training step, the next forward rebuilds the embedding copy.
  ByteConvNet net(kernel_configs()[0], 37);
  const ByteBuf input = util::Rng(8).bytes(600);
  net.forward(input);
  net.params().zero_grad();
  net.backward(1.0f);
  Adam(net.params(), 0.05f).step();
  net.forward_auto(input);
  const std::vector<float> g = {0.5f, -0.25f, 1.0f, 0.125f};
  for (int v = 0; v < 256; ++v) {
    const auto e = net.embedding_row(v);
    float s = 0.0f;
    for (int k = 0; k < 4; ++k) s += g[k] * e[k];
    ASSERT_EQ(term_score(net, g.data(), 0, v), s) << "v=" << v;
  }
}

// ---- backward against a scalar reference -----------------------------------

struct ScalarBackward {
  std::vector<float> dx;                 // input gradient
  std::vector<std::vector<float>> grads; // parameter gradients, in order
};

/// The scalar backward pass for the net's last forward: the dense head,
/// the max pool (or its softmax surrogate), channel gating, and then per
/// timestep and active filter (dh != 0, in f order) the input gradient
/// dwin[i] += da * wa[f][i], dwin[i] += db * wb[f][i] and, in training, the
/// parameter gradients, all in the pre-kernel loop order. `grads` holds
/// the parameter gradients accumulated onto the values found in the net.
ScalarBackward scalar_backward(ByteConvNet& net,
                               std::span<const std::uint8_t> bytes,
                               float target, bool accumulate, float tau) {
  const ByteConvConfig& c = net.config();
  const int d = c.embed_dim, F = c.filters, W = c.width, H = c.hidden;
  const int S = c.stride;
  const auto& emb = weights(net, "emb");
  const ScalarForward fw = scalar_forward(net, bytes);
  const std::size_t n = std::min(bytes.size(), c.max_len);
  const std::size_t n_tok = std::max<std::size_t>(n, W);
  std::vector<int> tok(n_tok);
  for (std::size_t t = 0; t < n_tok; ++t) tok[t] = t < n ? bytes[t] : 256;
  const std::size_t T = fw.a.size() / F;
  const int window = W * d;

  // Recompute the forward intermediates the backward reads.
  std::vector<float> h(T * F), gate(F, 1.0f), ctx(F, 0.0f), pooled(F, 0.0f);
  for (std::size_t i = 0; i < T * F; ++i)
    h[i] = c.gated ? fw.a[i] * sigmoid_ref(fw.b[i]) : std::max(0.0f, fw.a[i]);
  const auto& wg = weights(net, "wg");
  if (c.channel_gating && T > 0) {
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
  std::vector<int> argmax(F, -1);
  for (int f = 0; f < F; ++f) {
    float best = -1e30f;
    for (std::size_t p = 0; p < T; ++p)
      if (h[p * F + f] * gate[f] > best) {
        best = h[p * F + f] * gate[f];
        argmax[f] = static_cast<int>(p);
      }
    pooled[f] = T > 0 ? best : 0.0f;
  }
  const auto& w1 = weights(net, "w1");
  const auto& b1 = weights(net, "b1");
  const auto& w2 = weights(net, "w2");
  std::vector<float> u(H);
  for (int i = 0; i < H; ++i) {
    float s = b1[i];
    for (int f = 0; f < F; ++f) s += w1[i * F + f] * pooled[f];
    u[i] = std::max(0.0f, s);
  }

  ScalarBackward out;
  for (const Param* p : net.params().all()) out.grads.push_back(p->g);
  auto& g_emb = out.grads[0];
  auto& g_wa = out.grads[1];
  auto& g_ba = out.grads[2];
  auto& g_wb = out.grads[3];
  auto& g_bb = out.grads[4];
  auto& g_wg = out.grads[5];
  auto& g_bg = out.grads[6];
  auto& g_w1 = out.grads[7];
  auto& g_b1 = out.grads[8];
  auto& g_w2 = out.grads[9];
  auto& g_b2 = out.grads[10];

  const float dz = fw.prob - target;
  std::vector<float> du(H), dpool(F, 0.0f);
  for (int i = 0; i < H; ++i) du[i] = u[i] > 0.0f ? dz * w2[i] : 0.0f;
  for (int i = 0; i < H; ++i)
    for (int f = 0; f < F; ++f) dpool[f] += du[i] * w1[i * F + f];
  if (accumulate) {
    g_b2[0] += dz;
    for (int i = 0; i < H; ++i) g_w2[i] += dz * u[i];
    for (int i = 0; i < H; ++i) {
      g_b1[i] += du[i];
      for (int f = 0; f < F; ++f) g_w1[i * F + f] += du[i] * pooled[f];
    }
  }
  std::vector<float> dh(T * F, 0.0f), dgate(F, 0.0f);
  if (tau > 0.0f && T > 0) {
    const float inv_tau = 1.0f / tau;
    for (int f = 0; f < F; ++f) {
      float z = 0.0f;
      for (std::size_t p = 0; p < T; ++p)
        z += std::exp((h[p * F + f] * gate[f] - pooled[f]) * inv_tau);
      if (z <= 0.0f) continue;
      for (std::size_t p = 0; p < T; ++p) {
        const float w =
            std::exp((h[p * F + f] * gate[f] - pooled[f]) * inv_tau) / z;
        dh[p * F + f] += dpool[f] * gate[f] * w;
        dgate[f] += dpool[f] * h[p * F + f] * w;
      }
    }
  } else {
    for (int f = 0; f < F; ++f) {
      if (argmax[f] < 0) continue;
      const std::size_t p = static_cast<std::size_t>(argmax[f]);
      dh[p * F + f] += dpool[f] * gate[f];
      dgate[f] += dpool[f] * h[p * F + f];
    }
  }
  if (c.channel_gating && T > 0) {
    std::vector<float> dpre(F), dctx(F, 0.0f);
    for (int f = 0; f < F; ++f) dpre[f] = dgate[f] * gate[f] * (1.0f - gate[f]);
    for (int f = 0; f < F; ++f)
      for (int j = 0; j < F; ++j) dctx[j] += dpre[f] * wg[f * F + j];
    if (accumulate)
      for (int f = 0; f < F; ++f) {
        g_bg[f] += dpre[f];
        for (int j = 0; j < F; ++j) g_wg[f * F + j] += dpre[f] * ctx[j];
      }
    const float inv_t = 1.0f / static_cast<float>(T);
    for (std::size_t p = 0; p < T; ++p)
      for (int f = 0; f < F; ++f) dh[p * F + f] += dctx[f] * inv_t;
  }

  const auto& wa = weights(net, "wa");
  const auto& wb = weights(net, "wb");
  out.dx.assign(n_tok * d, 0.0f);
  std::vector<float> win(window);
  for (std::size_t p = 0; p < T; ++p) {
    for (int j = 0; j < W; ++j)
      for (int k = 0; k < d; ++k)
        win[j * d + k] = emb[tok[p * S + j] * d + k];
    float* dwin = out.dx.data() + p * S * d;
    for (int f = 0; f < F; ++f) {
      const float g = dh[p * F + f];
      if (g == 0.0f) continue;
      float da = c.gated ? 0.0f : (fw.a[p * F + f] > 0.0f ? g : 0.0f);
      float db = 0.0f;
      if (c.gated) {
        const float sb = sigmoid_ref(fw.b[p * F + f]);
        da = g * sb;
        db = g * fw.a[p * F + f] * sb * (1.0f - sb);
      }
      for (int i = 0; i < window; ++i) {
        dwin[i] += da * wa[f * window + i];
        if (c.gated) dwin[i] += db * wb[f * window + i];
        if (accumulate) {
          g_wa[f * window + i] += da * win[i];
          if (c.gated) g_wb[f * window + i] += db * win[i];
        }
      }
      if (accumulate) {
        g_ba[f] += da;
        if (c.gated) g_bb[f] += db;
      }
    }
  }
  if (accumulate)
    for (std::size_t t = 0; t < n_tok; ++t)
      for (int k = 0; k < d; ++k) g_emb[tok[t] * d + k] += out.dx[t * d + k];
  return out;
}

TEST(ByteConvKernels, BackwardMatchesScalarReference) {
  util::Rng rng(52);
  for (const ByteConvConfig& cfg : kernel_configs()) {
    for (const float tau : {0.0f, 0.5f}) {
      for (const bool accumulate : {false, true}) {
        SCOPED_TRACE(describe(cfg) + " tau=" + std::to_string(tau) +
                     (accumulate ? " training" : " attack"));
        ByteConvNet net = make_net(cfg, 19);
        const ByteBuf input = rng.bytes(2500);
        net.forward(input);
        // Nonzero starting gradients: accumulation must add in order.
        for (Param* p : net.params().all())
          for (float& g : p->g) g = static_cast<float>(rng.gaussian(0.0, 0.1));
        const ScalarBackward ref =
            scalar_backward(net, input, 0.0f, accumulate, tau);
        std::vector<float> dx;
        net.backward(0.0f, &dx, accumulate, tau);
        ASSERT_EQ(dx.size(), ref.dx.size());
        for (std::size_t i = 0; i < dx.size(); ++i)
          ASSERT_EQ(dx[i], ref.dx[i]) << "dx[" << i << "]";
        const auto& params = net.params().all();
        for (std::size_t j = 0; j < params.size(); ++j)
          for (std::size_t i = 0; i < params[j]->size(); ++i)
            ASSERT_EQ(params[j]->g[i], ref.grads[j][i])
                << params[j]->name << "[" << i << "]";
      }
    }
  }
}

// ---- both kernel widths ------------------------------------------------------

class ByteNetKernelWidths : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() == 4) {
      k_ = &kernels_x4();
    } else {
      k_ = kernels_x8();
      if (!k_) GTEST_SKIP() << "no AVX2 on this CPU or target";
    }
  }
  const ByteNetKernels* k_ = nullptr;
};

std::vector<float> gaussians(util::Rng& rng, std::size_t n, double sd) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.gaussian(0.0, sd));
  return v;
}

TEST_P(ByteNetKernelWidths, ConvRowsMatchScalarDots) {
  util::Rng rng(61);
  struct Shape {
    int W, S;
  };
  // MalConv's and MalGCG's window and stride, and a short window.
  const Shape shapes[] = {{32, 16}, {48, 24}, {5, 3}};
  for (const int F : {4, 7, 12, 16, 20, 24, 37})
    for (const int d : {6, 8})
      for (const Shape sh : shapes) {
        SCOPED_TRACE("F=" + std::to_string(F) + " d=" + std::to_string(d) +
                     " W=" + std::to_string(sh.W));
        const std::size_t T = 9;
        const int window = sh.W * d;
        const std::vector<float> emb = gaussians(rng, 257 * d, 0.3);
        std::vector<int> tok((T - 1) * sh.S + sh.W);
        for (int& t : tok) t = static_cast<int>(rng.below(257));
        const std::vector<float> wa_t = gaussians(rng, window * F, 0.2);
        const std::vector<float> wb_t = gaussians(rng, window * F, 0.2);
        const std::vector<float> ba = gaussians(rng, F, 0.5);
        const std::vector<float> bb = gaussians(rng, F, 0.5);
        // Rows outside [2, 7) must keep their sentinel.
        std::vector<float> a(T * F, -7.0f), b(T * F, -7.0f);
        const ConvRowsArgs args{.emb = emb.data(),
                                .tokens = tok.data(),
                                .wa_t = wa_t.data(),
                                .wb_t = wb_t.data(),
                                .ba = ba.data(),
                                .bb = bb.data(),
                                .d = d,
                                .F = F,
                                .W = sh.W,
                                .S = sh.S,
                                .a = a.data(),
                                .b = b.data()};
        k_->conv_rows(args, 2, 7);
        for (std::size_t p = 0; p < T; ++p)
          for (int f = 0; f < F; ++f) {
            float sa = -7.0f, sb = -7.0f;
            if (p >= 2 && p < 7) {
              sa = ba[f];
              sb = bb[f];
              for (int i = 0; i < window; ++i) {
                const float x = emb[tok[p * sh.S + i / d] * d + i % d];
                sa += wa_t[i * F + f] * x;
                sb += wb_t[i * F + f] * x;
              }
            }
            ASSERT_EQ(a[p * F + f], sa) << "a p=" << p << " f=" << f;
            ASSERT_EQ(b[p * F + f], sb) << "b p=" << p << " f=" << f;
          }
      }
}

TEST_P(ByteNetKernelWidths, InputGradRowMatchesScalarLoop) {
  util::Rng rng(62);
  // Windows: MalConv 32x8, the d = 6 surrogate 24x6, MalGCG 48x8, and
  // short ones that end in 4-lane and scalar tails.
  for (const int window : {256, 144, 384, 36, 23, 3})
    for (const int F : {12, 16, 20})
      for (const bool gated : {true, false}) {
        SCOPED_TRACE("window=" + std::to_string(window) +
                     " F=" + std::to_string(F) + (gated ? "" : " relu"));
        const std::vector<float> wa = gaussians(rng, window * F, 0.2);
        const std::vector<float> wb = gaussians(rng, window * F, 0.2);
        // Active filters in f order, about a third of them skipped.
        std::vector<FilterGrad> active;
        for (int f = 0; f < F; ++f)
          if (!rng.chance(0.33))
            active.push_back({f, static_cast<float>(rng.gaussian(0.0, 1.0)),
                              static_cast<float>(rng.gaussian(0.0, 1.0))});
        const std::vector<float> start = gaussians(rng, window, 0.1);
        std::vector<float> dwin = start;
        k_->input_grad_row(wa.data(), gated ? wb.data() : nullptr, window,
                           active, dwin.data());
        std::vector<float> ref = start;
        for (const FilterGrad& fg : active)
          for (int i = 0; i < window; ++i) {
            ref[i] += fg.da * wa[fg.f * window + i];
            if (gated) ref[i] += fg.db * wb[fg.f * window + i];
          }
        for (int i = 0; i < window; ++i)
          ASSERT_EQ(dwin[i], ref[i]) << "i=" << i;
      }
}

/// A net's scan columns: d x 512, byte v's embedding at columns v, v + 256.
std::vector<float> scan_columns(const std::vector<float>& emb, int d) {
  std::vector<float> cols(d * 512);
  for (int v = 0; v < 512; ++v)
    for (int k = 0; k < d; ++k) cols[k * 512 + v] = emb[(v & 255) * d + k];
  return cols;
}

/// The scalar scan: each candidate from 0.0f, adding each term's dot (from
/// 0.0f, k order), then the first minimum seeded with cur.
ScanResult scalar_scan(std::span<const ScanTerm> terms,
                       const std::vector<std::vector<float>>& embs, int cur) {
  float cand[256];
  for (int v = 0; v < 256; ++v) {
    cand[v] = 0.0f;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      const float* e = embs[t].data() + ((v + terms[t].rot) & 255) * terms[t].d;
      float s = 0.0f;
      for (int k = 0; k < terms[t].d; ++k) s += terms[t].g[k] * e[k];
      cand[v] += s;
    }
  }
  int best = cur;
  float best_score = cand[cur];
  for (int v = 0; v < 256; ++v)
    if (cand[v] < best_score) {
      best_score = cand[v];
      best = v;
    }
  return {best, best_score, cand[cur]};
}

void expect_same(const ScanResult& got, const ScanResult& want) {
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.best_score),
            std::bit_cast<std::uint32_t>(want.best_score));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.cur_score),
            std::bit_cast<std::uint32_t>(want.cur_score));
}

TEST_P(ByteNetKernelWidths, CandidateScanMatchesScalarForEveryRotation) {
  util::Rng rng(63);
  // Three nets of embedding widths 8, 6, 8, as in a mixed ensemble.
  const int dims[] = {8, 6, 8};
  std::vector<std::vector<float>> embs, cols, grads;
  for (const int d : dims) {
    embs.push_back(gaussians(rng, 256 * d, 0.3));
    cols.push_back(scan_columns(embs.back(), d));
    grads.push_back(gaussians(rng, 2 * d, 0.05));  // rows at p and key
  }
  for (int rot = 0; rot < 256; ++rot) {
    SCOPED_TRACE("rot=" + std::to_string(rot));
    // Net by net: the term at p, then the rotated key term; net 1 sees
    // only the key, as when p lies past its max_len.
    std::vector<ScanTerm> terms;
    std::vector<std::vector<float>> term_embs;
    for (int i = 0; i < 3; ++i) {
      const int d = dims[i];
      if (i != 1) {
        terms.push_back({cols[i].data(), grads[i].data(), d, 0});
        term_embs.push_back(embs[i]);
      }
      terms.push_back({cols[i].data(), grads[i].data() + d, d, rot});
      term_embs.push_back(embs[i]);
    }
    const int cur = static_cast<int>(rng.below(256));
    expect_same(k_->scan_candidates(terms, cur),
                scalar_scan(terms, term_embs, cur));
    // One term alone.
    expect_same(k_->scan_candidates({terms.data(), 1}, cur),
                scalar_scan({terms.data(), 1}, term_embs, cur));
  }
}

TEST_P(ByteNetKernelWidths, CandidateScanTieRules) {
  const int d = 6;
  util::Rng rng(64);
  std::vector<float> emb = gaussians(rng, 256 * d, 0.3);
  const std::vector<float> g = {1.0f, 0.5f, -0.25f, 2.0f, 0.0f, 1.5f};
  // Bytes 10, 77 and 200 share the lowest score: a row far below the rest.
  for (const int v : {10, 77, 200})
    for (int k = 0; k < d; ++k) emb[v * d + k] = -8.0f * g[k];
  const std::vector<float> cols = scan_columns(emb, d);
  const ScanTerm term{cols.data(), g.data(), d, 0};
  // cur outside the tie: the lowest tied index wins.
  ScanResult r = k_->scan_candidates({&term, 1}, 5);
  EXPECT_EQ(r.best, 10);
  expect_same(r, scalar_scan({&term, 1}, {emb}, 5));
  // cur tied with lower indices: cur keeps its place.
  r = k_->scan_candidates({&term, 1}, 200);
  EXPECT_EQ(r.best, 200);
  expect_same(r, scalar_scan({&term, 1}, {emb}, 200));
  // All candidates tie (a zero gradient): cur wins.
  const std::vector<float> zero(d, 0.0f);
  const ScanTerm flat{cols.data(), zero.data(), d, 0};
  r = k_->scan_candidates({&flat, 1}, 131);
  EXPECT_EQ(r.best, 131);
  expect_same(r, scalar_scan({&flat, 1}, {emb}, 131));
}

INSTANTIATE_TEST_SUITE_P(Lanes, ByteNetKernelWidths, ::testing::Values(4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 4 ? "x4" : "x8";
                         });

}  // namespace
}  // namespace mpass::ml
