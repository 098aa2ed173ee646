#include "core/optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/span.hpp"

namespace mpass::core {

EnsembleOptimizer::EnsembleOptimizer(std::vector<ml::ByteConvNet*> known)
    : known_(std::move(known)) {
  if (known_.empty())
    throw std::invalid_argument("optimizer: empty known-model ensemble");
}

float EnsembleOptimizer::ensemble_score(
    std::span<const std::uint8_t> bytes) const {
  float s = 0.0f;
  // forward_auto: between optimizer steps and oracle queries the sample is
  // unchanged or changed in a few windows, so the nets' cached activations
  // make these consensus checks (near-)free. Bitwise equal to forward().
  for (ml::ByteConvNet* net : known_) s += net->forward_auto(bytes);
  return s / static_cast<float>(known_.size());
}

float EnsembleOptimizer::ensemble_loss(
    std::span<const std::uint8_t> bytes) const {
  float s = 0.0f;
  for (ml::ByteConvNet* net : known_)
    s += ml::bce_loss(net->forward_auto(bytes), 0.0f);
  return s / static_cast<float>(known_.size());
}

float EnsembleOptimizer::step(ModifiedSample& sample) const {
  OBS_SCOPE("core.opt_step");
  const std::size_t m = known_.size();

  // Forward + input gradients toward the benign label per known model.
  std::vector<std::vector<float>> grads(m);
  std::vector<std::size_t> consumed(m);
  float total_loss = 0.0f;
  for (std::size_t i = 0; i < m; ++i) {
    // forward_auto: the previous step's re-score left the cache on the
    // kept prefix, so this is a cache hit (a delta if the caller scored
    // other bytes since); the activation caches it leaves behind are
    // bitwise identical to a full forward's, which backward consumes.
    known_[i]->forward_auto(sample.bytes);
    total_loss += known_[i]->backward(/*target=*/0.0f, &grads[i],
                                      /*accumulate_params=*/false,
                                      /*soft_pool_tau=*/0.5f);
    consumed[i] = known_[i]->consumed();
  }

  // Candidate scoring dominates the step cost, so positions are first
  // ranked by ensemble gradient magnitude and only the top half get the
  // full 256-candidate scan this step (skipped positions get their turn on
  // later steps as the gradient landscape shifts).
  std::vector<std::pair<float, std::uint32_t>> by_magnitude;
  by_magnitude.reserve(sample.perturbable.size());
  for (std::uint32_t p : sample.perturbable) {
    float mag = 0.0f;
    for (std::size_t i = 0; i < m; ++i) {
      const int d = known_[i]->config().embed_dim;
      if (p < consumed[i]) {
        const float* g = grads[i].data() + static_cast<std::size_t>(p) * d;
        for (int k = 0; k < d; ++k) mag += g[k] * g[k];
      }
      const std::uint32_t key = sample.key_of[p];
      if (key != ModifiedSample::kNoKey && key < consumed[i]) {
        const float* g = grads[i].data() + static_cast<std::size_t>(key) * d;
        for (int k = 0; k < d; ++k) mag += g[k] * g[k];
      }
    }
    if (mag > 0.0f) by_magnitude.emplace_back(mag, p);
  }
  const std::size_t scan_count =
      std::max<std::size_t>(256, by_magnitude.size() / 2);
  if (by_magnitude.size() > scan_count) {
    std::nth_element(
        by_magnitude.begin(),
        by_magnitude.begin() + static_cast<std::ptrdiff_t>(scan_count),
        by_magnitude.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    by_magnitude.resize(scan_count);
  }

  // Greedy byte re-selection under the first-order ensemble loss.
  // score(v) = sum_i <g_i[p], E_i[v]> (+ key-byte term through J).
  struct Update {
    std::uint32_t pos;
    std::uint8_t value;
    std::uint8_t old_value;
    float gain;  // predicted first-order loss decrease
  };
  std::vector<Update> updates;
  {
    // One span per step, so the profile separates the scan from the
    // gradient and line-search time of core.opt_step.
    OBS_SCOPE("core.opt_scan");
    const auto scan = ml::kernels().scan_candidates;
    std::vector<ml::ScanTerm> terms;
    terms.reserve(2 * m);
    for (const auto& [mag, p] : by_magnitude) {
      const std::uint32_t kpos = sample.key_of[p];
      const bool has_key = kpos != ModifiedSample::kNoKey;
      const std::uint8_t cur = sample.bytes[p];
      const std::uint8_t cur_key = has_key ? sample.bytes[kpos] : 0;
      // Choosing byte v at p forces key value cur_key + (v - cur), so the
      // key term of candidate v is the key dot of byte (v + rot) & 255.
      const std::uint8_t rot = static_cast<std::uint8_t>(cur_key - cur);

      // Net by net: the term at p, then the key's term.
      terms.clear();
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t d =
            static_cast<std::size_t>(known_[i]->config().embed_dim);
        if (p < consumed[i])
          terms.push_back(known_[i]->scan_term(grads[i].data() + p * d, 0));
        if (has_key && kpos < consumed[i])
          terms.push_back(
              known_[i]->scan_term(grads[i].data() + kpos * d, rot));
      }
      if (terms.empty()) continue;  // invisible to every net

      const ml::ScanResult r = scan(terms, cur);
      if (r.best != cur)
        updates.push_back({p, static_cast<std::uint8_t>(r.best), cur,
                           r.cur_score - r.best_score});
    }
  }
  if (updates.empty()) return total_loss / static_cast<float>(m);

  // Line search over update fractions: the linearization overshoots when
  // too many coupled bytes move at once, so apply the highest-gain updates
  // first and keep the best-scoring prefix under the true ensemble loss.
  std::sort(updates.begin(), updates.end(),
            [](const Update& a, const Update& b) { return a.gain > b.gain; });
  const float base_loss = total_loss / static_cast<float>(m);

#ifndef NDEBUG
  // set_byte also rewrites the coupled key byte, so a rollback is only
  // exact if restoring old_value restores the key too. Snapshot both the
  // update position and its key before anything is applied; after the
  // rollback every update beyond the kept prefix must match.
  struct PreByte {
    std::uint32_t pos;
    std::uint8_t val;
    bool has_key;
    std::uint32_t key_pos;
    std::uint8_t key_val;
  };
  std::vector<PreByte> pre_step;
  pre_step.reserve(updates.size());
  for (const Update& u : updates) {
    PreByte pb{u.pos, sample.bytes[u.pos], false, 0, 0};
    const std::uint32_t key = sample.key_of[u.pos];
    if (key != ModifiedSample::kNoKey) {
      pb.has_key = true;
      pb.key_pos = key;
      pb.key_val = sample.bytes[key];
    }
    pre_step.push_back(pb);
  }
#endif

  float best_loss = base_loss;
  std::size_t best_prefix = 0;
  std::size_t applied = 0;
  for (double frac : {0.125, 0.25, 0.5, 1.0}) {
    const std::size_t want = std::max<std::size_t>(
        1, static_cast<std::size_t>(frac * static_cast<double>(updates.size())));
    while (applied < want && applied < updates.size()) {
      sample.set_byte(updates[applied].pos, updates[applied].value);
      ++applied;
    }
    const float loss = ensemble_loss(sample.bytes);
    if (loss < best_loss) {
      best_loss = loss;
      best_prefix = applied;
    }
  }
  // No prefix improved the true loss: keep a small exploratory prefix
  // anyway (the recomputed gradient escapes the tie next step) instead of
  // deadlocking on an identical rejected proposal.
  const bool exploratory = best_prefix == 0;
  if (exploratory) best_prefix = std::min<std::size_t>(updates.size(), 32);

  // Roll back to the best prefix (set_byte restores key coupling exactly).
  while (applied > best_prefix) {
    --applied;
    sample.set_byte(updates[applied].pos, updates[applied].old_value);
  }

#ifndef NDEBUG
  for (std::size_t i = best_prefix; i < updates.size(); ++i) {
    assert(sample.bytes[pre_step[i].pos] == pre_step[i].val &&
           "rollback must restore the update byte exactly");
    assert((!pre_step[i].has_key ||
            sample.bytes[pre_step[i].key_pos] == pre_step[i].key_val) &&
           "rollback must restore the coupled key byte exactly");
  }
#endif

  // Re-sync the nets' caches with the kept prefix (a cache hit, or a delta
  // over the rolled-back windows). For a normal step this re-derives
  // exactly the loss the line search measured -- a cheap end-to-end check
  // of the rollback and the incremental forward -- and for an exploratory
  // step it is the honest loss of the state actually kept (which may
  // exceed base_loss).
  const float kept_loss = ensemble_loss(sample.bytes);
  assert((exploratory || kept_loss == best_loss) &&
         "re-score must match the line-search loss");
  return kept_loss;
}

}  // namespace mpass::core
