#include "ml/gru.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "ml/lanes.hpp"
#include "obs/span.hpp"

namespace mpass::ml {

namespace {
inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// y += A (rows x cols, row-major) * x
void matvec_acc(std::span<const float> a, std::span<const float> x,
                std::span<float> y, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float s = 0.0f;
    const float* row = a.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) s += row[j] * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] += s;
  }
}

/// y += A^T * x  (A is rows x cols; x has rows elems; y has cols elems)
void matvec_t_acc(std::span<const float> a, std::span<const float> x,
                  std::span<float> y, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float xi = x[static_cast<std::size_t>(i)];
    if (xi == 0.0f) continue;
    const float* row = a.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) y[static_cast<std::size_t>(j)] += xi * row[j];
  }
}

/// G += x_outer: G(rows x cols) += d (rows) * v (cols)^T
void outer_acc(std::span<float> g, std::span<const float> d,
               std::span<const float> v, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float di = d[static_cast<std::size_t>(i)];
    if (di == 0.0f) continue;
    float* row = g.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) row[j] += di * v[static_cast<std::size_t>(j)];
  }
}

/// In-place softmax: subtract the max, exponentiate, divide by the
/// sequential sum.
void softmax(std::span<float> logits) {
  const float mx = *std::max_element(logits.begin(), logits.end());
  float sum = 0.0f;
  for (float& l : logits) {
    l = std::exp(l - mx);
    sum += l;
  }
  for (float& l : logits) l /= sum;
}

int round_up_lanes(int n) { return (n + kLanes - 1) / kLanes * kLanes; }
}  // namespace

struct GruLm::StepCache {
  int token = 0;
  std::vector<float> x, h_prev, z, r, n, un_h;
};

GruLm::GruLm(const GruLmConfig& cfg, std::uint64_t seed) : cfg_(cfg) {
  const int E = cfg_.embed, H = cfg_.hidden, V = cfg_.vocab;
  emb_ = &params_.create("emb", static_cast<std::size_t>(V) * E);
  wz_ = &params_.create("wz", static_cast<std::size_t>(H) * E);
  uz_ = &params_.create("uz", static_cast<std::size_t>(H) * H);
  bz_ = &params_.create("bz", H);
  wr_ = &params_.create("wr", static_cast<std::size_t>(H) * E);
  ur_ = &params_.create("ur", static_cast<std::size_t>(H) * H);
  br_ = &params_.create("br", H);
  wn_ = &params_.create("wn", static_cast<std::size_t>(H) * E);
  un_ = &params_.create("un", static_cast<std::size_t>(H) * H);
  bn_ = &params_.create("bn", H);
  wo_ = &params_.create("wo", static_cast<std::size_t>(V) * H);
  bo_ = &params_.create("bo", V);

  util::Rng rng(seed);
  auto init = [&](Param& p, float scale) {
    for (float& w : p.w) w = static_cast<float>(rng.gaussian(0.0, scale));
  };
  init(*emb_, 0.2f);
  const float se = 1.0f / std::sqrt(static_cast<float>(E));
  const float sh = 1.0f / std::sqrt(static_cast<float>(H));
  for (Param* p : {wz_, wr_, wn_}) init(*p, se);
  for (Param* p : {uz_, ur_, un_}) init(*p, sh);
  init(*wo_, sh);
  opt_ = std::make_unique<Adam>(params_, 2e-3f);
  pack();
}

void GruLm::pack() {
  const int E = cfg_.embed, H = cfg_.hidden, V = cfg_.vocab;
  hp_ = round_up_lanes(H);
  vp_ = round_up_lanes(V);
  const std::size_t hp = static_cast<std::size_t>(hp_);
  const Param* w[3] = {wz_, wr_, wn_};
  const Param* u[3] = {uz_, ur_, un_};
  const Param* b[3] = {bz_, br_, bn_};

  // The bias, then matvec_acc's sum added to it, as step() computes them.
  in_proj_.assign(static_cast<std::size_t>(V) * 3 * hp, 0.0f);
  for (int t = 0; t < V; ++t) {
    const std::span<const float> x(
        emb_->w.data() + static_cast<std::size_t>(t) * E,
        static_cast<std::size_t>(E));
    for (int g = 0; g < 3; ++g) {
      float* row = in_proj_.data() + (static_cast<std::size_t>(t) * 3 + g) * hp;
      std::copy(b[g]->w.begin(), b[g]->w.end(), row);
      matvec_acc(w[g]->w, x, {row, static_cast<std::size_t>(H)}, H, E);
    }
  }
  u_t_.assign(static_cast<std::size_t>(H) * 3 * hp, 0.0f);
  for (int j = 0; j < H; ++j)
    for (int g = 0; g < 3; ++g)
      for (int i = 0; i < H; ++i)
        u_t_[(static_cast<std::size_t>(j) * 3 + g) * hp + i] =
            u[g]->w[static_cast<std::size_t>(i) * H + j];
  wo_t_.assign(static_cast<std::size_t>(H) * vp_, 0.0f);
  for (int j = 0; j < H; ++j)
    for (int i = 0; i < V; ++i)
      wo_t_[static_cast<std::size_t>(j) * vp_ + i] =
          wo_->w[static_cast<std::size_t>(i) * H + j];
}

void GruLm::step(int token, std::vector<float>& h, StepCache& c) const {
  const int E = cfg_.embed, H = cfg_.hidden;
  c.token = token;
  c.x.assign(emb_->w.begin() + static_cast<std::size_t>(token) * E,
             emb_->w.begin() + static_cast<std::size_t>(token + 1) * E);
  c.h_prev = h;
  c.z = bz_->w;
  c.r = br_->w;
  c.n = bn_->w;
  c.un_h.assign(static_cast<std::size_t>(H), 0.0f);
  std::vector<float>& z = c.z;
  std::vector<float>& r = c.r;
  std::vector<float>& n = c.n;

  matvec_acc(wz_->w, c.x, z, H, E);
  matvec_acc(uz_->w, h, z, H, H);
  matvec_acc(wr_->w, c.x, r, H, E);
  matvec_acc(ur_->w, h, r, H, H);
  matvec_acc(un_->w, h, c.un_h, H, H);
  for (int i = 0; i < H; ++i) {
    z[static_cast<std::size_t>(i)] = sigmoidf(z[static_cast<std::size_t>(i)]);
    r[static_cast<std::size_t>(i)] = sigmoidf(r[static_cast<std::size_t>(i)]);
  }
  matvec_acc(wn_->w, c.x, n, H, E);
  for (int i = 0; i < H; ++i)
    n[static_cast<std::size_t>(i)] += r[static_cast<std::size_t>(i)] *
                                      c.un_h[static_cast<std::size_t>(i)];
  for (int i = 0; i < H; ++i)
    n[static_cast<std::size_t>(i)] = std::tanh(n[static_cast<std::size_t>(i)]);

  for (int i = 0; i < H; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    h[k] = (1.0f - z[k]) * n[k] + z[k] * h[k];
  }
}

std::vector<float> GruLm::output_probs(const std::vector<float>& h) const {
  const int H = cfg_.hidden, V = cfg_.vocab;
  std::vector<float> logits(bo_->w.begin(), bo_->w.end());
  matvec_acc(wo_->w, h, logits, V, H);
  softmax(logits);
  return logits;
}

void GruLm::infer_step(int token, float* h, float* uh) const {
  const int H = cfg_.hidden;
  const float* t = in_proj_.data() + static_cast<std::size_t>(token) * 3 * hp_;
  matvec_lanes(u_t_.data(), 3 * hp_, h, H, uh);
  // Gate g of output i is at [g * hp_ + i] in both t and uh.
  for (int i = 0; i < H; ++i) {
    const float z = sigmoidf(t[i] + uh[i]);
    const float r = sigmoidf(t[hp_ + i] + uh[hp_ + i]);
    const float n = std::tanh(t[2 * hp_ + i] + r * uh[2 * hp_ + i]);
    h[i] = (1.0f - z) * n + z * h[i];
  }
}

void GruLm::infer_probs(const float* h, float* probs) const {
  const int V = cfg_.vocab;
  matvec_lanes(wo_t_.data(), vp_, h, cfg_.hidden, probs);
  for (int i = 0; i < V; ++i)
    probs[i] = bo_->w[static_cast<std::size_t>(i)] + probs[i];
  softmax({probs, static_cast<std::size_t>(V)});
}

float GruLm::train_epoch(const std::vector<util::ByteBuf>& corpus,
                         std::size_t windows, float lr, util::Rng& rng) {
  opt_->set_lr(lr);
  const int E = cfg_.embed, H = cfg_.hidden, V = cfg_.vocab;
  const int kStart = cfg_.vocab - 1;
  double total_loss = 0.0;
  std::size_t total_steps = 0;

  for (std::size_t w = 0; w < windows; ++w) {
    const util::ByteBuf& stream = rng.pick(corpus);
    if (stream.empty()) continue;
    const std::size_t len =
        std::min<std::size_t>(static_cast<std::size_t>(cfg_.bptt),
                              stream.size());
    const std::size_t start =
        stream.size() > len ? rng.below(stream.size() - len + 1) : 0;

    // Forward with caches.
    std::vector<StepCache> caches(len);
    std::vector<std::vector<float>> probs(len);
    std::vector<std::vector<float>> hs(len + 1);
    hs[0].assign(static_cast<std::size_t>(H), 0.0f);
    int prev_token = kStart;
    for (std::size_t t = 0; t < len; ++t) {
      hs[t + 1] = hs[t];
      step(prev_token, hs[t + 1], caches[t]);
      probs[t] = output_probs(hs[t + 1]);
      const int target = stream[start + t];
      total_loss -= std::log(std::max(probs[t][static_cast<std::size_t>(target)],
                                      1e-9f));
      prev_token = target;
      ++total_steps;
    }

    // Backward through time.
    std::vector<float> dh(static_cast<std::size_t>(H), 0.0f);
    for (std::size_t t = len; t-- > 0;) {
      // Output head: dlogits = probs - onehot(target).
      std::vector<float> dlogits = probs[t];
      dlogits[stream[start + t]] -= 1.0f;
      outer_acc(wo_->g, dlogits, hs[t + 1], V, H);
      for (int i = 0; i < V; ++i)
        bo_->g[static_cast<std::size_t>(i)] += dlogits[static_cast<std::size_t>(i)];
      matvec_t_acc(wo_->w, dlogits, dh, V, H);

      // GRU cell backward.
      const StepCache& c = caches[t];
      std::vector<float> dz(static_cast<std::size_t>(H));
      std::vector<float> dn(static_cast<std::size_t>(H));
      std::vector<float> dh_prev(static_cast<std::size_t>(H), 0.0f);
      for (int i = 0; i < H; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        dz[k] = dh[k] * (c.h_prev[k] - c.n[k]);
        dn[k] = dh[k] * (1.0f - c.z[k]);
        dh_prev[k] = dh[k] * c.z[k];
      }
      std::vector<float> da_n(static_cast<std::size_t>(H));
      std::vector<float> dr(static_cast<std::size_t>(H));
      std::vector<float> du_n(static_cast<std::size_t>(H));
      for (int i = 0; i < H; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        da_n[k] = dn[k] * (1.0f - c.n[k] * c.n[k]);
        dr[k] = da_n[k] * c.un_h[k];
        du_n[k] = da_n[k] * c.r[k];
      }
      std::vector<float> da_z(static_cast<std::size_t>(H));
      std::vector<float> da_r(static_cast<std::size_t>(H));
      for (int i = 0; i < H; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        da_z[k] = dz[k] * c.z[k] * (1.0f - c.z[k]);
        da_r[k] = dr[k] * c.r[k] * (1.0f - c.r[k]);
      }

      std::vector<float> dx(static_cast<std::size_t>(E), 0.0f);
      outer_acc(wz_->g, da_z, c.x, H, E);
      outer_acc(uz_->g, da_z, c.h_prev, H, H);
      outer_acc(wr_->g, da_r, c.x, H, E);
      outer_acc(ur_->g, da_r, c.h_prev, H, H);
      outer_acc(wn_->g, da_n, c.x, H, E);
      outer_acc(un_->g, du_n, c.h_prev, H, H);
      for (int i = 0; i < H; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        bz_->g[k] += da_z[k];
        br_->g[k] += da_r[k];
        bn_->g[k] += da_n[k];
      }
      matvec_t_acc(wz_->w, da_z, dx, H, E);
      matvec_t_acc(wr_->w, da_r, dx, H, E);
      matvec_t_acc(wn_->w, da_n, dx, H, E);
      matvec_t_acc(uz_->w, da_z, dh_prev, H, H);
      matvec_t_acc(ur_->w, da_r, dh_prev, H, H);
      matvec_t_acc(un_->w, du_n, dh_prev, H, H);

      float* erow = emb_->g.data() + static_cast<std::size_t>(c.token) * E;
      for (int i = 0; i < E; ++i) erow[i] += dx[static_cast<std::size_t>(i)];

      dh = std::move(dh_prev);
    }
    opt_->step();
  }
  pack();
  return total_steps ? static_cast<float>(total_loss / total_steps) : 0.0f;
}

util::ByteBuf GruLm::generate(std::size_t n, util::Rng& rng,
                              std::span<const std::uint8_t> context,
                              float temperature) const {
  OBS_SCOPE("ml.gru.generate");
  const int kStart = cfg_.vocab - 1;
  std::vector<float> h(static_cast<std::size_t>(cfg_.hidden), 0.0f);
  std::vector<float> uh(static_cast<std::size_t>(3 * hp_));
  std::vector<float> p(static_cast<std::size_t>(vp_));
  std::vector<double> weights(256);
  infer_step(kStart, h.data(), uh.data());
  for (std::uint8_t b : context.subspan(
           context.size() > 64 ? context.size() - 64 : 0))
    infer_step(b, h.data(), uh.data());
  util::ByteBuf out;
  out.reserve(n);
  const float inv_temp = 1.0f / std::max(temperature, 0.05f);
  for (std::size_t i = 0; i < n; ++i) {
    infer_probs(h.data(), p.data());
    // Temperature re-shaping over the 256 byte values (exclude start token).
    for (int b = 0; b < 256; ++b)
      weights[static_cast<std::size_t>(b)] =
          std::pow(static_cast<double>(p[static_cast<std::size_t>(b)]),
                   static_cast<double>(inv_temp));
    const int next = static_cast<int>(rng.weighted(weights));
    out.push_back(static_cast<std::uint8_t>(next));
    infer_step(next, h.data(), uh.data());
  }
  return out;
}

float GruLm::evaluate(std::span<const std::uint8_t> bytes) const {
  if (bytes.empty()) return 0.0f;
  std::vector<float> h(static_cast<std::size_t>(cfg_.hidden), 0.0f);
  std::vector<float> uh(static_cast<std::size_t>(3 * hp_));
  std::vector<float> p(static_cast<std::size_t>(vp_));
  int prev = cfg_.vocab - 1;
  double loss = 0.0;
  for (std::uint8_t b : bytes) {
    infer_step(prev, h.data(), uh.data());
    infer_probs(h.data(), p.data());
    loss -= std::log(std::max(p[b], 1e-9f));
    prev = b;
  }
  return static_cast<float>(loss / static_cast<double>(bytes.size()));
}

void GruLm::save(util::Archive& ar) const {
  ar.tag("grulm");
  ar.u32(static_cast<std::uint32_t>(cfg_.embed));
  ar.u32(static_cast<std::uint32_t>(cfg_.hidden));
  ar.u32(static_cast<std::uint32_t>(cfg_.vocab));
  ar.u32(static_cast<std::uint32_t>(cfg_.bptt));
  params_.save(ar);
}

void GruLm::load(util::Unarchive& ar) {
  ar.tag("grulm");
  GruLmConfig cfg;
  cfg.embed = static_cast<int>(ar.u32());
  cfg.hidden = static_cast<int>(ar.u32());
  cfg.vocab = static_cast<int>(ar.u32());
  cfg.bptt = static_cast<int>(ar.u32());
  if (cfg.embed != cfg_.embed || cfg.hidden != cfg_.hidden ||
      cfg.vocab != cfg_.vocab)
    throw util::ParseError("grulm: config mismatch");
  params_.load(ar);
  pack();
}

}  // namespace mpass::ml
