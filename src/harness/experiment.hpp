// Experiment harness: runs attack x detector grids under the paper's
// protocol and metrics. Each sample's outcome is cached on disk, so the
// per-table bench binaries share one set of runs (Tables I-III all come
// from the same grid) and interrupted grids resume.
//
// Protocol (paper §IV "Datasets and baselines"): attack samples must be
// (1) initially detected by the target models and (2) confirmed malicious in
// the sandbox. Metrics: ASR, AVQ (mean queries per successful AE), APR
// (mean file-size increase of successful AEs), plus the sandbox
// functionality-verification rate of §IV-A.
#pragma once

#include <functional>
#include <memory>

#include "attack/attack.hpp"
#include "detectors/zoo.hpp"
#include "util/threadpool.hpp"
#include "vm/sandbox.hpp"

namespace mpass::harness {

struct ExperimentConfig {
  std::size_t n_samples = 60;     // malware per grid cell (MPASS_N)
  std::size_t max_queries = 100;  // per-sample query budget (paper: 100)
  std::uint64_t seed = 2023;
  bool use_cache = true;

  static ExperimentConfig from_env();
  std::uint64_t digest() const;
};

/// Aggregate results of one attack against one target.
struct CellStats {
  std::string attack;
  std::string target;
  std::size_t n = 0;             // samples attacked
  std::size_t successes = 0;     // bypassing AEs
  double asr = 0.0;              // successes / n (percent)
  // Mean over successful AEs of the oracle's first-evasion index: queries
  // up to and including the first benign verdict. Queries an attack spends
  // after that (MAB's minimization, GAMMA's remaining population) count in
  // total_queries but not here. MPass stops at its first evasion.
  double avq = 0.0;
  double apr = 0.0;              // mean APR (percent) over successful AEs
  double functional = 0.0;       // % of successful AEs passing the sandbox
  // Digest of the functional successful AEs (each one's length and bytes,
  // in sample order). The bytes themselves go only to callers that ask
  // run_cell for them, so grid results stay small.
  std::uint64_t ae_digest = 0;
  // Throughput counters (informative only; excluded from result_digest()).
  std::size_t total_queries = 0;  // oracle queries across all samples
  // Summed per-sample attack compute time. Cells interleave on the shared
  // pool, so a cell's wall-clock span says nothing about its cost; the sum
  // of its sample-task durations does (and cache hits count 0).
  double wall_ms = 0.0;
  double qps = 0.0;  // total_queries / (wall_ms seconds); 0 when unmeasured

  /// Digest of the deterministic result fields (everything except the
  /// timing counters). run_cell guarantees this is identical regardless of
  /// MPASS_THREADS and scheduling order.
  std::uint64_t result_digest() const;
};

/// Builds the attack sample set: validated malware detected by all `gate`
/// detectors (the paper's requirement (1)+(2)).
std::vector<util::ByteBuf> make_attack_set(
    std::span<const detect::Detector* const> gate, std::size_t n,
    std::uint64_t seed);

/// Runs one attack against one target over the sample set.
///
/// Every sample is an independent task on the thread pool (`pool`,
/// defaulting to ThreadPool::instance() sized by MPASS_THREADS): the task
/// owns a clone of the attack and of the target and a deterministic RNG
/// stream seeded from (cfg.seed, sample digest), so the aggregated
/// CellStats (and its result_digest()) are identical for any thread count.
/// With cfg.use_cache, each sample's outcome (AE bytes included) is saved
/// in a shard keyed by (config digest, attack, target, sample digest) --
/// the harness's only result cache -- so interrupted or re-run grids
/// resume instead of recomputing.
/// If `aes` is non-null it receives the functional successful AEs in
/// sample order (the bytes CellStats::ae_digest covers).
CellStats run_cell(attack::Attack& atk, const detect::Detector& target,
                   std::span<const util::ByteBuf> samples,
                   std::span<const util::ByteBuf> originals_for_sandbox,
                   const ExperimentConfig& cfg,
                   util::ThreadPool* pool = nullptr,
                   std::vector<util::ByteBuf>* aes = nullptr);

/// Per-cell AE bytes, parallel to a grid's cells.
using CellAes = std::vector<std::vector<util::ByteBuf>>;

/// Attack factory. Names: MPass, RLA, MAB, GAMMA, MalRNN, UPX, PESpin,
/// ASPack, Other-sec, Random-data, MPass-noshuffle.
/// `target_name` controls MPass's known-model exclusion (offline targets
/// only; commercial AVs never leak their models).
std::unique_ptr<attack::Attack> make_attack(std::string_view name,
                                            detect::ModelZoo& zoo,
                                            std::string_view target_name);

// ---- experiment entry points (one per paper artifact) --------------------

/// Tables I-III: {MPass,RLA,MAB,GAMMA,MalRNN} x 4 offline models.
std::vector<CellStats> offline_grid(const ExperimentConfig& cfg);

/// Fig. 3: same five attacks x 5 commercial AVs. Fig. 4 passes `aes` to
/// get each cell's AEs as well.
std::vector<CellStats> av_grid(const ExperimentConfig& cfg,
                               CellAes* aes = nullptr);

/// Table IV: {UPX,PESpin,ASPack,MPass} x 5 AVs.
std::vector<CellStats> obfuscation_grid(const ExperimentConfig& cfg);

/// Table V: {Other-sec, MPass} x 5 AVs.
std::vector<CellStats> other_sec_grid(const ExperimentConfig& cfg);

/// Table VI: {Random-data, MPass} x 5 AVs.
std::vector<CellStats> random_data_grid(const ExperimentConfig& cfg);

/// Fig. 4: bypass-rate timeline under weekly AV signature learning.
/// Returns bypass_rate[attack][round] (round 0 = 100 by construction),
/// attacks ordered as in av_grid.
struct LearningTimeline {
  std::vector<std::string> attacks;
  std::vector<std::string> avs;
  // bypass[attack][av][round], percent.
  std::vector<std::vector<std::vector<double>>> bypass;
  std::size_t rounds = 5;
};
LearningTimeline av_learning_timeline(const ExperimentConfig& cfg);

/// Writes a grid as CSV (attack,target,n,successes,asr,avq,apr,functional)
/// for external plotting; AE payloads are not exported.
void export_csv(const std::filesystem::path& path,
                const std::vector<CellStats>& cells);

}  // namespace mpass::harness
