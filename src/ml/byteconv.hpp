// Gated convolutional byte classifier: the shared architecture behind the
// MalConv, NonNeg and MalGCG detectors (Raff et al. 2018; Fleshman et al.
// 2018; Raff et al. 2021 -- see DESIGN.md).
//
//   bytes -> embedding (257 x d, token 256 = padding)
//         -> two parallel 1-D convolutions A, B (F filters, width W, stride S)
//         -> gating  h = A * sigmoid(B)
//         -> [MalGCG only] global channel gating g = sigmoid(Wg * mean_t h)
//         -> global max pool over time
//         -> dense H relu -> dense 1 -> sigmoid
//
// The net exposes embedding-space input gradients, which is what the MPass
// optimization step consumes (paper §III-D: "perturbations are first lifted
// to feature vectors using the embedding layer").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/param.hpp"

namespace mpass::ml {

struct ByteConvConfig {
  std::size_t max_len = 16384;  // input truncation length L
  int embed_dim = 8;            // d
  int filters = 16;             // F
  int width = 32;               // W
  int stride = 16;              // S
  int hidden = 16;              // H
  bool gated = true;            // A * sigmoid(B) (vs relu(A))
  bool channel_gating = false;  // MalGCG global channel gating
  bool nonneg = false;          // clamp dense weights >= 0 after updates
};

class ByteConvNet {
 public:
  ByteConvNet(const ByteConvConfig& cfg, std::uint64_t seed);

  /// Deep copy (independent parameters + caches). Concurrent attacks clone
  /// the known models so forward-pass caches never race across threads.
  ByteConvNet(const ByteConvNet& other);
  ByteConvNet& operator=(const ByteConvNet&) = delete;

  /// Probability the sample is malicious. Caches activations for backward.
  /// Always runs the full convolution: the reference that forward_auto is
  /// bit-for-bit equivalent to.
  float forward(std::span<const std::uint8_t> bytes);

  /// Incremental forward, the one entry point every scorer uses. Detector
  /// queries and the optimizer's line search re-score a buffer that differs
  /// from the previously scored one in a handful of byte windows; the full
  /// conv forward is O(T * F * W * d). forward_auto diffs `bytes` against
  /// the cached tokens (an O(L) integer scan), re-convolves only the
  /// timesteps whose stride-S windows overlap a changed byte, and repairs
  /// the global max pool incrementally, so the cost follows the edit size.
  /// An unchanged buffer is served from the cache.
  ///
  /// The result is *exactly* forward(bytes): the same float operations in
  /// the same order on every recomputed value, so scores (and the
  /// activation cache, hence backward) are bit-for-bit identical --
  /// enforced by tests/test_byteconv_incremental.cpp and the fuzz oracle.
  /// It runs a full forward when the cache is missing or stale (any
  /// ParamSet version bump: Adam, load, clamp_nonneg), the consumed length
  /// changed, or the changed bytes cover most of the buffer.
  float forward_auto(std::span<const std::uint8_t> bytes);

  /// Backprop of BCE(prob, target) for the last forward() input.
  /// If input_grad is non-null it receives dLoss/dEmbedding, laid out
  /// [position * embed_dim + k] over the positions actually consumed
  /// (tokens() entries). If accumulate_params is false, parameter gradients
  /// are left untouched (attack mode).
  ///
  /// soft_pool_tau > 0 replaces the max-pool gradient with a softmax-pool
  /// surrogate of that temperature: gradient flows into *every* window
  /// weighted by its activation instead of only the argmax window. The
  /// forward pass (and hence the loss) is unchanged; this is the standard
  /// trick for optimizing adversarial bytes against max-pooled conv nets,
  /// which are otherwise first-order-blind beyond the current argmax.
  /// Returns the BCE loss value.
  float backward(float target, std::vector<float>* input_grad = nullptr,
                 bool accumulate_params = true, float soft_pool_tau = 0.0f);

  /// Number of byte positions consumed by the last forward (<= max_len).
  std::size_t consumed() const { return tokens_.size(); }

  /// Embedding row of a token (0..256).
  std::span<const float> embedding_row(int token) const;

  /// out[v] = <g, embedding_row(v)> for the 256 byte tokens, each dot
  /// summed in k order from 0.0f (g has embed_dim entries). Reads the
  /// transposed embedding copy made by the last full forward, so call it
  /// after a forward on the current weights (the optimizer's scan does).
  void byte_dots(std::span<const float> g, std::span<float, 256> out) const;

  /// Applies the non-negativity constraint (no-op unless cfg.nonneg).
  void clamp_nonneg();

  const ByteConvConfig& config() const { return cfg_; }
  ParamSet& params() { return params_; }

  void save(util::Archive& ar) const;
  void load(util::Unarchive& ar);

 private:
  friend struct ByteConvProbe;  // tests read the activation caches

  std::size_t time_steps(std::size_t n_tokens) const;
  /// Gathers the embedding rows of timestep p's window into win_. The
  /// embedded input is never materialized (it would be L x d floats).
  const float* embed_window(std::size_t p);
  /// Conv + gating for one timestep (writes a_/b_/h_ rows). Shared by the
  /// full and delta paths so recomputed rows are bitwise identical. Reads
  /// the filter-major weight copies made by the last full forward.
  void conv_row(std::size_t p);
  /// Channel gating + global max pool + dense head, full recompute from
  /// h_ (identical code for both paths).
  void pool_and_head();
  /// Dense head only (pooled_ -> prob_).
  void dense_head();
  /// Half-open range of token positions (or timesteps).
  struct ByteRange {
    std::size_t lo = 0;
    std::size_t hi = 0;  // exclusive
  };
  /// Applies the changed ranges found by forward_auto: re-embeds +
  /// re-convolves the overlapping timesteps and repairs the pool. `ranges`
  /// are sorted token-position ranges within the consumed length,
  /// coalesced with gap <= width, with `bytes` the new buffer.
  float apply_delta(std::span<const std::uint8_t> bytes,
                    std::span<const ByteRange> ranges);
  bool cache_usable(std::size_t n, std::size_t n_tok) const;

  ByteConvConfig cfg_;
  ParamSet params_;
  Param* emb_;   // 257 x d
  Param* wa_;    // F x (W*d)
  Param* ba_;    // F
  Param* wb_;    // F x (W*d)
  Param* bb_;    // F
  Param* wg_;    // F x F (channel gating; empty unless enabled)
  Param* bg_;    // F
  Param* w1_;    // H x F
  Param* b1_;    // H
  Param* w2_;    // 1 x H
  Param* b2_;    // 1

  // Layout copies of the live weights, rebuilt by every full forward:
  // wa_t_/wb_t_ are W*d x F (filter-major, so conv_row's vector lanes run
  // over filters) and emb_t_ is d x 256 (byte_dots' lanes run over bytes).
  std::vector<float> wa_t_, wb_t_, emb_t_;

  // Forward caches.
  std::vector<int> tokens_;
  std::vector<float> win_;    // one window's embedded input, W x d
  std::vector<float> a_, b_;  // conv pre-activations, T x F
  std::vector<float> h_;      // gated features, T x F
  std::vector<float> ctx_;    // mean-pooled context, F
  std::vector<float> gate_;   // channel gates, F
  std::vector<float> pooled_; // F
  std::vector<int> argmax_;   // F
  std::vector<float> u_;      // hidden, H
  float z_ = 0.0f;            // logit
  float prob_ = 0.5f;

  // Incremental-forward state: whether the caches above describe a real
  // forward, the consumed byte count it was computed on, and the ParamSet
  // version its activations correspond to.
  bool cache_valid_ = false;
  std::size_t cache_n_ = 0;
  std::uint64_t cache_version_ = 0;
};

/// Numerically safe binary cross-entropy on a probability.
float bce_loss(float prob, float target);

}  // namespace mpass::ml
