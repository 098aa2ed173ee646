#include "ml/byteconv.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include "obs/span.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mpass::ml {

namespace {
constexpr int kVocab = 257;  // 256 byte values + padding token
constexpr int kPad = 256;

inline float sigmoidf(float x) {
  return 1.0f / (1.0f + std::exp(-x));
}
}  // namespace

float bce_loss(float prob, float target) {
  const float p = std::clamp(prob, 1e-7f, 1.0f - 1e-7f);
  return -(target * std::log(p) + (1.0f - target) * std::log(1.0f - p));
}

ByteConvNet::ByteConvNet(const ByteConvConfig& cfg, std::uint64_t seed)
    : cfg_(cfg) {
  const int d = cfg_.embed_dim;
  const int F = cfg_.filters;
  const int W = cfg_.width;
  const int H = cfg_.hidden;
  emb_ = &params_.create("emb", static_cast<std::size_t>(kVocab) * d);
  wa_ = &params_.create("wa", static_cast<std::size_t>(F) * W * d);
  ba_ = &params_.create("ba", F);
  wb_ = &params_.create("wb", static_cast<std::size_t>(F) * W * d);
  bb_ = &params_.create("bb", F);
  const int gsize = cfg_.channel_gating ? F : 0;
  wg_ = &params_.create("wg", static_cast<std::size_t>(gsize) * gsize);
  bg_ = &params_.create("bg", gsize);
  w1_ = &params_.create("w1", static_cast<std::size_t>(H) * F);
  b1_ = &params_.create("b1", H);
  w2_ = &params_.create("w2", H);
  b2_ = &params_.create("b2", 1);

  util::Rng rng(seed);
  auto init = [&](Param& p, float scale) {
    for (float& w : p.w) w = static_cast<float>(rng.gaussian(0.0, scale));
  };
  init(*emb_, 0.3f);
  init(*wa_, 1.0f / std::sqrt(static_cast<float>(W * d)));
  init(*wb_, 1.0f / std::sqrt(static_cast<float>(W * d)));
  if (cfg_.channel_gating)
    init(*wg_, 1.0f / std::sqrt(static_cast<float>(F)));
  init(*w1_, 1.0f / std::sqrt(static_cast<float>(F)));
  init(*w2_, 1.0f / std::sqrt(static_cast<float>(H)));
  if (cfg_.nonneg) clamp_nonneg();
}

ByteConvNet::ByteConvNet(const ByteConvNet& other)
    : cfg_(other.cfg_), params_(other.params_) {
  // The activation caches are deliberately not copied: the clone starts
  // cache-invalid and its first incremental call runs a full forward.
  // Re-bind the layer pointers into the copied ParamSet (same order as the
  // constructor created them).
  auto& all = params_.all();
  std::size_t i = 0;
  emb_ = all[i++];
  wa_ = all[i++];
  ba_ = all[i++];
  wb_ = all[i++];
  bb_ = all[i++];
  wg_ = all[i++];
  bg_ = all[i++];
  w1_ = all[i++];
  b1_ = all[i++];
  w2_ = all[i++];
  b2_ = all[i++];
}

std::size_t ByteConvNet::time_steps(std::size_t n_tokens) const {
  if (n_tokens < static_cast<std::size_t>(cfg_.width)) return 0;
  return (n_tokens - cfg_.width) / cfg_.stride + 1;
}

const float* ByteConvNet::embed_window(std::size_t p) {
  const int d = cfg_.embed_dim;
  win_.resize(static_cast<std::size_t>(cfg_.width) * d);
  const int* tok = tokens_.data() + p * cfg_.stride;
  for (int j = 0; j < cfg_.width; ++j)
    std::copy_n(emb_->w.data() + tok[j] * d, d, win_.data() + j * d);
  return win_.data();
}

void ByteConvNet::conv_rows(std::size_t p_lo, std::size_t p_hi) {
  const int F = cfg_.filters;
  const ConvRowsArgs args{.emb = emb_->w.data(),
                          .tokens = tokens_.data(),
                          .wa_t = wa_t_.data(),
                          .wb_t = wb_t_.data(),
                          .ba = ba_->w.data(),
                          .bb = bb_->w.data(),
                          .d = cfg_.embed_dim,
                          .F = F,
                          .W = cfg_.width,
                          .S = cfg_.stride,
                          .a = a_.data(),
                          .b = b_.data()};
  kernels().conv_rows(args, p_lo, p_hi);
  for (std::size_t i = p_lo * F; i < p_hi * F; ++i)
    h_[i] = cfg_.gated ? a_[i] * sigmoidf(b_[i]) : std::max(0.0f, a_[i]);
}

void ByteConvNet::pool_and_head() {
  const int F = cfg_.filters;
  const std::size_t T = time_steps(tokens_.size());

  // Global channel gating (MalGCG).
  gate_.assign(F, 1.0f);
  ctx_.assign(F, 0.0f);
  if (cfg_.channel_gating && T > 0) {
    for (std::size_t p = 0; p < T; ++p)
      for (int f = 0; f < F; ++f) ctx_[f] += h_[p * F + f];
    for (int f = 0; f < F; ++f) ctx_[f] /= static_cast<float>(T);
    for (int f = 0; f < F; ++f) {
      float s = bg_->w[f];
      for (int j = 0; j < F; ++j) s += wg_->w[f * F + j] * ctx_[j];
      gate_[f] = sigmoidf(s);
    }
  }

  // Global max pooling (over gated features).
  pooled_.assign(F, 0.0f);
  argmax_.assign(F, -1);
  for (int f = 0; f < F; ++f) {
    float best = -1e30f;
    int bi = -1;
    for (std::size_t p = 0; p < T; ++p) {
      const float v = h_[p * F + f] * gate_[f];
      if (v > best) {
        best = v;
        bi = static_cast<int>(p);
      }
    }
    pooled_[f] = T > 0 ? best : 0.0f;
    argmax_[f] = bi;
  }

  dense_head();
}

void ByteConvNet::dense_head() {
  const int F = cfg_.filters;
  const int H = cfg_.hidden;
  u_.assign(H, 0.0f);
  for (int i = 0; i < H; ++i) {
    float s = b1_->w[i];
    for (int f = 0; f < F; ++f) s += w1_->w[i * F + f] * pooled_[f];
    u_[i] = std::max(0.0f, s);
  }
  z_ = b2_->w[0];
  for (int i = 0; i < H; ++i) z_ += w2_->w[i] * u_[i];
  prob_ = sigmoidf(z_);
}

float ByteConvNet::forward(std::span<const std::uint8_t> bytes) {
  OBS_SCOPE("ml.byteconv.forward");
  const int d = cfg_.embed_dim;
  const int F = cfg_.filters;
  const int W = cfg_.width;

  // Tokenize: truncate to L, pad (with the pad token) up to one window.
  const std::size_t n = std::min(bytes.size(), cfg_.max_len);
  const std::size_t n_tok =
      std::max<std::size_t>(n, static_cast<std::size_t>(W));
  tokens_.resize(n_tok);
  for (std::size_t t = 0; t < n_tok; ++t)
    tokens_[t] = t < n ? static_cast<int>(bytes[t]) : kPad;

  // Filter-major weight copies for conv_rows, rebuilt from the live weights
  // on every full forward (~2 * W * d * F floats next to T * W * d * F
  // multiply-adds). The delta path only runs while the ParamSet version
  // is unchanged since this forward, so it always sees current copies.
  const std::size_t window = static_cast<std::size_t>(W) * d;
  wa_t_.resize(window * F);
  wb_t_.resize(window * F);
  for (int f = 0; f < F; ++f)
    for (std::size_t i = 0; i < window; ++i) {
      wa_t_[i * F + f] = wa_->w[f * window + i];
      wb_t_[i * F + f] = wb_->w[f * window + i];
    }
  emb_t_.resize(static_cast<std::size_t>(d) * 512);
  for (int v = 0; v < 512; ++v)
    for (int k = 0; k < d; ++k)
      emb_t_[static_cast<std::size_t>(k) * 512 + v] =
          emb_->w[(v & 255) * d + k];

  // Convolutions + gating.
  const std::size_t T = time_steps(n_tok);
  a_.assign(T * F, 0.0f);
  b_.assign(T * F, 0.0f);
  h_.assign(T * F, 0.0f);
  conv_rows(0, T);

  pool_and_head();

  cache_valid_ = true;
  cache_n_ = n;
  cache_version_ = params_.version();
  return prob_;
}

float ByteConvNet::apply_delta(std::span<const std::uint8_t> bytes,
                               std::span<const ByteRange> ranges) {
  OBS_SCOPE("ml.forward_delta");
  const int F = cfg_.filters;
  const int W = cfg_.width;
  const int S = cfg_.stride;
  const std::size_t T = time_steps(tokens_.size());

  // Re-tokenize the dirty positions; conv_rows embeds from the tokens.
  for (const ByteRange& r : ranges)
    for (std::size_t t = r.lo; t < r.hi; ++t)
      tokens_[t] = static_cast<int>(bytes[t]);

  // Dirty byte range -> overlapping timesteps: window p covers positions
  // [p*S, p*S + W), so it overlaps [lo, hi) iff p*S < hi and p*S + W > lo.
  std::vector<ByteRange> tranges;
  tranges.reserve(ranges.size());
  for (const ByteRange& r : ranges) {
    const std::size_t p_lo =
        r.lo >= static_cast<std::size_t>(W)
            ? (r.lo - static_cast<std::size_t>(W)) / S + 1
            : 0;
    const std::size_t p_hi = std::min(T, (r.hi - 1) / S + 1);
    if (p_lo < p_hi) tranges.push_back({p_lo, p_hi});
  }
  // forward_auto's byte ranges are more than W apart (coalesced with gap
  // <= W), so no window overlaps two: the timestep ranges are disjoint.
  for (std::size_t i = 1; i < tranges.size(); ++i)
    assert(tranges[i - 1].hi <= tranges[i].lo &&
           "timestep ranges must be sorted and disjoint");

  for (const ByteRange& tr : tranges) conv_rows(tr.lo, tr.hi);

  if (cfg_.channel_gating) {
    // Any h row perturbs the mean-pooled context and hence every gate, so
    // every pooled value moves: recompute gating + pool + head outright.
    // The conv above is ~W*d times the cost of this scan, so the delta
    // still pays off; the full-order recompute keeps bitwise equality.
    pool_and_head();
    return prob_;
  }

  // Incremental max-pool repair. For each filter, the cached argmax is
  // still the max over every non-dirty timestep; only if its own value
  // decreased can the max hide among non-dirty timesteps, forcing a full
  // rescan (same comparison order as pool_and_head, hence bitwise equal).
  // The `==`+earlier-index tie rule reproduces the full scan's first-max
  // semantics: a non-dirty timestep tied with the cached max can only sit
  // *after* the cached argmax (it lost the original scan), so dirty
  // candidates decide every tie that can change the winner.
  const auto in_dirty = [&tranges](int p) {
    for (const ByteRange& tr : tranges)
      if (static_cast<std::size_t>(p) >= tr.lo &&
          static_cast<std::size_t>(p) < tr.hi)
        return true;
    return false;
  };
  for (int f = 0; f < F; ++f) {
    float best = pooled_[f];
    int bi = argmax_[f];
    bool rescan = bi < 0;
    if (!rescan && in_dirty(bi)) {
      const float v = h_[static_cast<std::size_t>(bi) * F + f] * gate_[f];
      if (v < pooled_[f]) {
        rescan = true;  // previous argmax decreased: max may be anywhere
      } else {
        best = v;
      }
    }
    if (rescan) {
      best = -1e30f;
      bi = -1;
      for (std::size_t p = 0; p < T; ++p) {
        const float v = h_[p * F + f] * gate_[f];
        if (v > best) {
          best = v;
          bi = static_cast<int>(p);
        }
      }
      pooled_[f] = T > 0 ? best : 0.0f;
      argmax_[f] = bi;
      continue;
    }
    for (const ByteRange& tr : tranges) {
      for (std::size_t p = tr.lo; p < tr.hi; ++p) {
        const float v = h_[p * F + f] * gate_[f];
        if (v > best || (v == best && static_cast<int>(p) < bi)) {
          best = v;
          bi = static_cast<int>(p);
        }
      }
    }
    pooled_[f] = best;
    argmax_[f] = bi;
  }

  dense_head();
  return prob_;
}

float ByteConvNet::forward_auto(std::span<const std::uint8_t> bytes) {
  // Calls with neither an ml.byteconv.forward nor an ml.forward_delta
  // child span are cache hits; the span's self time is the token diff.
  OBS_SCOPE("ml.forward_auto");
  const std::size_t n = std::min(bytes.size(), cfg_.max_len);
  if (!cache_valid_ || n != cache_n_ || cache_version_ != params_.version())
    return forward(bytes);

  // Diff the new buffer against the cached token stream. Positions past n
  // are padding and cannot differ (n matches the cache).
  std::vector<ByteRange> ranges;
  const std::size_t gap = cfg_.width;  // coalesce nearby edits
  for (std::size_t t = 0; t < n; ++t) {
    if (tokens_[t] == static_cast<int>(bytes[t])) continue;
    if (!ranges.empty() && t <= ranges.back().hi + gap) {
      ranges.back().hi = t + 1;
    } else {
      ranges.push_back({t, t + 1});
    }
  }
  if (ranges.empty()) return prob_;  // byte-identical to the cached input
  return apply_delta(bytes, ranges);
}

float ByteConvNet::backward(float target, std::vector<float>* input_grad,
                            bool accumulate_params, float soft_pool_tau) {
  OBS_SCOPE("ml.byteconv.backward");
  const int d = cfg_.embed_dim;
  const int F = cfg_.filters;
  const int W = cfg_.width;
  const int S = cfg_.stride;
  const int H = cfg_.hidden;
  const std::size_t T = time_steps(tokens_.size());

  const float loss = bce_loss(prob_, target);
  const float dz = prob_ - target;  // dBCE/dlogit

  // Dense head.
  std::vector<float> du(H);
  for (int i = 0; i < H; ++i) du[i] = u_[i] > 0.0f ? dz * w2_->w[i] : 0.0f;
  std::vector<float> dpool(F, 0.0f);
  for (int i = 0; i < H; ++i)
    for (int f = 0; f < F; ++f) dpool[f] += du[i] * w1_->w[i * F + f];
  if (accumulate_params) {
    b2_->g[0] += dz;
    for (int i = 0; i < H; ++i) w2_->g[i] += dz * u_[i];
    for (int i = 0; i < H; ++i) {
      b1_->g[i] += du[i];
      for (int f = 0; f < F; ++f) w1_->g[i * F + f] += du[i] * pooled_[f];
    }
  }

  // Through max pool (+ channel gating).
  std::vector<float> dh(T * F, 0.0f);
  std::vector<float> dgate(F, 0.0f);
  if (soft_pool_tau > 0.0f && T > 0) {
    // Softmax-pool surrogate: weight each window by exp(value/tau).
    const float inv_tau = 1.0f / soft_pool_tau;
    std::vector<float> e(T);
    for (int f = 0; f < F; ++f) {
      const float peak = pooled_[f];
      float z = 0.0f;
      for (std::size_t p = 0; p < T; ++p) {
        e[p] = std::exp((h_[p * F + f] * gate_[f] - peak) * inv_tau);
        z += e[p];
      }
      if (z <= 0.0f) continue;
      for (std::size_t p = 0; p < T; ++p) {
        const float w = e[p] / z;
        dh[p * F + f] += dpool[f] * gate_[f] * w;
        dgate[f] += dpool[f] * h_[p * F + f] * w;
      }
    }
  } else {
    for (int f = 0; f < F; ++f) {
      if (argmax_[f] < 0) continue;
      const std::size_t p = static_cast<std::size_t>(argmax_[f]);
      dh[p * F + f] += dpool[f] * gate_[f];
      dgate[f] += dpool[f] * h_[p * F + f];
    }
  }
  if (cfg_.channel_gating && T > 0) {
    std::vector<float> dpre(F);
    for (int f = 0; f < F; ++f)
      dpre[f] = dgate[f] * gate_[f] * (1.0f - gate_[f]);
    std::vector<float> dctx(F, 0.0f);
    for (int f = 0; f < F; ++f)
      for (int j = 0; j < F; ++j) dctx[j] += dpre[f] * wg_->w[f * F + j];
    if (accumulate_params) {
      for (int f = 0; f < F; ++f) {
        bg_->g[f] += dpre[f];
        for (int j = 0; j < F; ++j) wg_->g[f * F + j] += dpre[f] * ctx_[j];
      }
    }
    const float inv_t = 1.0f / static_cast<float>(T);
    for (std::size_t p = 0; p < T; ++p)
      for (int f = 0; f < F; ++f) dh[p * F + f] += dctx[f] * inv_t;
  }

  // Through gating + convolutions into the embedded input. The kernel
  // adds each active filter's terms to the window's input gradient; the
  // parameter gradients follow in their own loop, in the same order per
  // element (timestep by timestep, filter by filter).
  std::vector<float> dx(tokens_.size() * d, 0.0f);
  const int window = W * d;
  const ByteNetKernels& kern = kernels();
  const float* wa = wa_->w.data();
  const float* wb = cfg_.gated ? wb_->w.data() : nullptr;
  std::vector<FilterGrad> active;
  active.reserve(F);
  for (std::size_t p = 0; p < T; ++p) {
    const float* hp_a = a_.data() + p * F;
    const float* hp_b = b_.data() + p * F;
    active.clear();
    for (int f = 0; f < F; ++f) {
      const float g = dh[p * F + f];
      if (g == 0.0f) continue;
      if (cfg_.gated) {
        const float sb = sigmoidf(hp_b[f]);
        active.push_back({f, g * sb, g * hp_a[f] * sb * (1.0f - sb)});
      } else {
        active.push_back({f, hp_a[f] > 0.0f ? g : 0.0f, 0.0f});
      }
    }
    if (active.empty()) continue;
    kern.input_grad_row(wa, wb, window, active, dx.data() + p * S * d);
    if (!accumulate_params) continue;
    const float* win = embed_window(p);
    for (const FilterGrad& fg : active) {
      const std::size_t row = static_cast<std::size_t>(fg.f) * window;
      float* gra = wa_->g.data() + row;
      for (int i = 0; i < window; ++i) gra[i] += fg.da * win[i];
      ba_->g[fg.f] += fg.da;
      if (cfg_.gated) {
        float* grb = wb_->g.data() + row;
        for (int i = 0; i < window; ++i) grb[i] += fg.db * win[i];
        bb_->g[fg.f] += fg.db;
      }
    }
  }

  // Embedding gradients.
  if (accumulate_params) {
    for (std::size_t t = 0; t < tokens_.size(); ++t) {
      float* row = emb_->g.data() + tokens_[t] * d;
      for (int k = 0; k < d; ++k) row[k] += dx[t * d + k];
    }
  }
  if (input_grad) *input_grad = std::move(dx);
  return loss;
}

ScanTerm ByteConvNet::scan_term(const float* g, std::uint8_t rot) const {
  assert(emb_t_.size() == static_cast<std::size_t>(cfg_.embed_dim) * 512 &&
         "scan_term before a forward");
  return {emb_t_.data(), g, cfg_.embed_dim, rot};
}

std::span<const float> ByteConvNet::embedding_row(int token) const {
  return {emb_->w.data() + static_cast<std::size_t>(token) * cfg_.embed_dim,
          static_cast<std::size_t>(cfg_.embed_dim)};
}

void ByteConvNet::clamp_nonneg() {
  if (!cfg_.nonneg) return;
  for (Param* p : {w1_, w2_})
    for (float& w : p->w) w = std::max(0.0f, w);
  params_.bump_version();
}

void ByteConvNet::save(util::Archive& ar) const {
  ar.tag("byteconv");
  ar.u32(static_cast<std::uint32_t>(cfg_.max_len));
  ar.u32(static_cast<std::uint32_t>(cfg_.embed_dim));
  ar.u32(static_cast<std::uint32_t>(cfg_.filters));
  ar.u32(static_cast<std::uint32_t>(cfg_.width));
  ar.u32(static_cast<std::uint32_t>(cfg_.stride));
  ar.u32(static_cast<std::uint32_t>(cfg_.hidden));
  ar.u32((cfg_.gated ? 1u : 0u) | (cfg_.channel_gating ? 2u : 0u) |
         (cfg_.nonneg ? 4u : 0u));
  params_.save(ar);
}

void ByteConvNet::load(util::Unarchive& ar) {
  ar.tag("byteconv");
  ByteConvConfig cfg;
  cfg.max_len = ar.u32();
  cfg.embed_dim = static_cast<int>(ar.u32());
  cfg.filters = static_cast<int>(ar.u32());
  cfg.width = static_cast<int>(ar.u32());
  cfg.stride = static_cast<int>(ar.u32());
  cfg.hidden = static_cast<int>(ar.u32());
  const std::uint32_t flags = ar.u32();
  cfg.gated = flags & 1;
  cfg.channel_gating = (flags & 2) != 0;
  cfg.nonneg = (flags & 4) != 0;
  // Architectures must match the constructed net (params are pre-created).
  if (cfg.max_len != cfg_.max_len || cfg.embed_dim != cfg_.embed_dim ||
      cfg.filters != cfg_.filters || cfg.width != cfg_.width ||
      cfg.stride != cfg_.stride || cfg.hidden != cfg_.hidden ||
      cfg.gated != cfg_.gated || cfg.channel_gating != cfg_.channel_gating ||
      cfg.nonneg != cfg_.nonneg)
    throw util::ParseError("byteconv: config mismatch");
  params_.load(ar);
}

}  // namespace mpass::ml
