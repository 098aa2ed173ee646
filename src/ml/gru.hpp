// GRU byte-level language model: the generative substrate of the MalRNN
// baseline (Ebrahimi et al. 2020), trained on benign program bytes and
// sampled to produce benign-looking append payloads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/param.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mpass::ml {

struct GruLmConfig {
  int embed = 16;
  int hidden = 48;
  int vocab = 257;  // 256 bytes + start-of-stream token
  int bptt = 96;    // training window length
};

class GruLm {
 public:
  GruLm(const GruLmConfig& cfg, std::uint64_t seed);

  /// One training pass over `windows` randomly sampled byte windows drawn
  /// from the corpus streams. Returns mean cross-entropy (nats/byte).
  float train_epoch(const std::vector<util::ByteBuf>& corpus,
                    std::size_t windows, float lr, util::Rng& rng);

  /// Samples n bytes autoregressively, optionally conditioned on a context
  /// prefix; temperature < 1 sharpens toward the learned benign statistics.
  /// Reads only the weights and the packed tables, so concurrent calls
  /// with their own Rng are race-free.
  util::ByteBuf generate(std::size_t n, util::Rng& rng,
                         std::span<const std::uint8_t> context = {},
                         float temperature = 0.8f) const;

  /// Mean cross-entropy of a byte sequence under the model (nats/byte).
  float evaluate(std::span<const std::uint8_t> bytes) const;

  const GruLmConfig& config() const { return cfg_; }

  void save(util::Archive& ar) const;
  void load(util::Unarchive& ar);

 private:
  struct StepCache;

  /// One training GRU step on the raw weights: advances h, fills cache.
  void step(int token, std::vector<float>& h, StepCache& cache) const;

  /// Softmax over logits of hidden state h, on the raw weights.
  std::vector<float> output_probs(const std::vector<float>& h) const;

  /// Rebuilds the packed inference tables from the current weights. Runs
  /// whenever the weights change (construction, load, end of train_epoch),
  /// never lazily: clones of MalRnn share one GruLm across threads.
  void pack();

  /// One inference step on the packed tables: advances h (H floats) by
  /// token; uh is 3 * hp_ floats of scratch. Bit-identical to step().
  void infer_step(int token, float* h, float* uh) const;

  /// Output-head softmax on the packed tables: probs (vp_ floats) gets the
  /// first V entries; bit-identical to output_probs().
  void infer_probs(const float* h, float* probs) const;

  GruLmConfig cfg_;
  ParamSet params_;
  Param* emb_;                 // vocab x embed
  Param* wz_; Param* uz_; Param* bz_;
  Param* wr_; Param* ur_; Param* br_;
  Param* wn_; Param* un_; Param* bn_;
  Param* wo_; Param* bo_;      // vocab x hidden output head
  std::unique_ptr<Adam> opt_;

  // Packed inference tables (pack()). hp_ and vp_ are H and V rounded up
  // to whole vector lanes; padding entries are zero. Gates are ordered
  // z, r, n.
  int hp_ = 0, vp_ = 0;
  std::vector<float> in_proj_;  // vocab x 3 x hp_: b_g + W_g . emb[t]
  std::vector<float> u_t_;      // H x 3 hp_: U_z, U_r, U_n transposed
  std::vector<float> wo_t_;     // H x vp_: W_o transposed
};

}  // namespace mpass::ml
