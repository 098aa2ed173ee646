#include "harness/experiment.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "attack/gamma.hpp"
#include "attack/mab.hpp"
#include "attack/malrnn.hpp"
#include "attack/mpass_attack.hpp"
#include "attack/obfuscate.hpp"
#include "attack/rla.hpp"
#include "corpus/generator.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/hashing.hpp"
#include "util/serialize.hpp"

namespace mpass::harness {

using util::ByteBuf;

ExperimentConfig ExperimentConfig::from_env() {
  ExperimentConfig cfg;
  if (const char* v = std::getenv("MPASS_N"); v && *v)
    cfg.n_samples = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
  if (const char* v = std::getenv("MPASS_MAX_QUERIES"); v && *v)
    cfg.max_queries = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
  if (const char* v = std::getenv("MPASS_EXP_SEED"); v && *v)
    cfg.seed = std::strtoull(v, nullptr, 10);
  if (std::getenv("MPASS_NO_CACHE")) cfg.use_cache = false;
  return cfg;
}

std::uint64_t ExperimentConfig::digest() const {
  std::uint64_t h = 13;  // bump to invalidate cached results
  h = util::hash_combine(h, n_samples);
  h = util::hash_combine(h, max_queries);
  h = util::hash_combine(h, seed);
  // Config-only zoo digest: must not force model training.
  h = util::hash_combine(h, detect::ZooConfig::from_env().digest());
  return h;
}

std::vector<ByteBuf> make_attack_set(
    std::span<const detect::Detector* const> gate, std::size_t n,
    std::uint64_t seed) {
  std::vector<ByteBuf> out;
  std::size_t i = 0;
  while (out.size() < n && i < n * 40) {
    corpus::CompiledSample s =
        corpus::make_malware(util::hash_combine(seed, 0xA11ACC + i));
    ++i;
    ByteBuf bytes = s.bytes();
    bool detected_by_all = true;
    for (const detect::Detector* d : gate)
      if (!d->is_malicious(bytes)) detected_by_all = false;
    if (detected_by_all) out.push_back(std::move(bytes));
  }
  return out;
}

namespace {

/// Result of attacking one sample -- the unit of parallelism and of the
/// per-sample result cache.
struct SampleOutcome {
  bool success = false;
  ByteBuf adversarial;            // kept only for successful AEs
  std::uint64_t first_evasion = 0;  // oracle: first benign query (AVQ input)
  std::uint64_t total_queries = 0;  // oracle counter incl. failed runs
  double apr = 0.0;                 // from the returned bytes
  bool functional = false;
  double ms = 0.0;  // attack compute time; not cached -- hits cost 0
  // True when loaded from the per-sample cache (never serialized). Cache
  // hits skip the attack entirely, so they produce no trace file; run_cell
  // reports the fresh-run count as "traced" in cells.jsonl so the trace
  // checker knows which cells can reconcile query totals.
  bool from_cache = false;
};

/// Shard directory for one (config digest, attack, target) cell; one file
/// per sample digest inside it.
std::filesystem::path sample_shard_dir(const ExperimentConfig& cfg,
                                       std::string_view attack,
                                       std::string_view target) {
  char shard[160];
  std::snprintf(shard, sizeof(shard), "%s-%s-%016llx",
                std::string(attack).c_str(), std::string(target).c_str(),
                static_cast<unsigned long long>(cfg.digest()));
  return util::cache_dir() / "results" / "samples" / shard;
}

std::filesystem::path sample_path(const std::filesystem::path& shard,
                                  std::uint64_t sample_digest) {
  char name[40];
  std::snprintf(name, sizeof(name), "%016llx.bin",
                static_cast<unsigned long long>(sample_digest));
  return shard / name;
}

void save_sample(const std::filesystem::path& path, const SampleOutcome& s) {
  util::Archive ar;
  ar.tag("sample");
  ar.u32(s.success ? 1 : 0);
  ar.bytes(s.adversarial);
  ar.u64(s.first_evasion);
  ar.u64(s.total_queries);
  ar.f64(s.apr);
  ar.u32(s.functional ? 1 : 0);
  util::save_file(path, ar.take());
}

std::optional<SampleOutcome> load_sample(const std::filesystem::path& path) {
  const auto blob = util::load_file(path);
  if (!blob) return std::nullopt;
  try {
    util::Unarchive ar(*blob);
    SampleOutcome s;
    ar.tag("sample");
    s.success = ar.u32() != 0;
    s.adversarial = ar.bytes();
    s.first_evasion = ar.u64();
    s.total_queries = ar.u64();
    s.apr = ar.f64();
    s.functional = ar.u32() != 0;
    return s;
  } catch (const util::ParseError&) {
    return std::nullopt;
  }
}

/// Attacks one sample; the RNG stream is derived from (seed, sample digest)
/// so the outcome is a pure function of (config, attack, target, sample).
/// Every metric input comes from the oracle or the returned bytes; the
/// attack only reports success and its AE.
SampleOutcome attack_one(attack::Attack& atk, const detect::Detector& target,
                         const vm::Sandbox& sandbox,
                         std::span<const std::uint8_t> sample,
                         const ByteBuf& orig, const ExperimentConfig& cfg,
                         std::uint64_t sample_digest) {
  const auto t0 = std::chrono::steady_clock::now();
  // One trace file per executed (attack, target, sample) run; the oracle
  // and the attack emit query/opt/action events into it while the scope is
  // open. Cache hits never reach this function, so never re-trace.
  obs::TraceScope trace(atk.name(), target.name(), sample_digest, cfg.seed,
                        cfg.max_queries);
  detect::HardLabelOracle oracle(target, cfg.max_queries);
  const attack::AttackResult r =
      atk.run(sample, oracle, util::hash_combine(cfg.seed, sample_digest));
  SampleOutcome out;
  out.total_queries = oracle.queries();
  if (r.success) {
    out.success = true;
    out.first_evasion = oracle.first_evasion();
    out.apr = attack::apr_of(sample.size(), r.adversarial.size());
    // Paper §IV-A: verify AEs still show the original runtime behavior.
    if (sandbox.functionality_preserved(orig, r.adversarial)) {
      out.functional = true;
      out.adversarial = r.adversarial;
    }
  }
  out.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  if (obs::tracing())
    obs::Event("end")
        .boolean("success", out.success)
        .uint("queries", out.total_queries)
        .num("apr", out.apr)
        .num("ms", out.ms)
        .boolean("functional", out.functional);
  return out;
}

}  // namespace

std::uint64_t CellStats::result_digest() const {
  std::uint64_t h = util::fnv1a64(attack);
  h = util::fnv1a64(target, h);
  h = util::hash_combine(h, n);
  h = util::hash_combine(h, successes);
  for (double v : {asr, avq, apr, functional})
    h = util::hash_combine(h, std::bit_cast<std::uint64_t>(v));
  return util::hash_combine(h, ae_digest);
}

CellStats run_cell(attack::Attack& atk, const detect::Detector& target,
                   std::span<const ByteBuf> samples,
                   std::span<const ByteBuf> originals_for_sandbox,
                   const ExperimentConfig& cfg, util::ThreadPool* pool,
                   std::vector<ByteBuf>* aes) {
  OBS_SCOPE("harness.run_cell");
  CellStats stats;
  stats.attack = std::string(atk.name());
  stats.target = std::string(target.name());
  stats.n = samples.size();

  std::vector<std::uint64_t> digests(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i)
    digests[i] = util::fnv1a64(samples[i]);
  const auto original_of = [&](std::size_t i) -> const ByteBuf& {
    return originals_for_sandbox.empty() ? samples[i]
                                         : originals_for_sandbox[i];
  };

  // One task per sample. Each task owns a cloned attack + cloned target (no
  // shared forward caches) and consults its per-sample shard first, so
  // interrupted runs resume where they stopped.
  const auto shard = sample_shard_dir(cfg, stats.attack, stats.target);
  util::ThreadPool& tp = pool ? *pool : util::ThreadPool::instance();
  std::vector<std::future<SampleOutcome>> futs;
  futs.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    futs.push_back(tp.submit([&, i]() -> SampleOutcome {
      const auto path = sample_path(shard, digests[i]);
      if (cfg.use_cache)
        if (auto hit = load_sample(path)) {
          hit->from_cache = true;
          return *hit;
        }
      const std::unique_ptr<attack::Attack> a = atk.clone();
      const std::unique_ptr<detect::Detector> t = target.clone();
      const vm::Sandbox sandbox;
      SampleOutcome out = attack_one(*a, *t, sandbox, samples[i],
                                     original_of(i), cfg, digests[i]);
      if (cfg.use_cache) save_sample(path, out);
      return out;
    }));
  }
  // Collect in sample order (tasks complete in any order; the aggregate
  // below is order-deterministic regardless). Waiting runs queued tasks --
  // this cell's samples, newest first, or another cell's -- on this
  // thread.
  std::vector<SampleOutcome> outcomes(samples.size());
  for (std::size_t i = 0; i < futs.size(); ++i)
    outcomes[i] = tp.wait(std::move(futs[i]));

  if (aes) aes->clear();
  std::uint64_t evasion_queries = 0;
  double sum_apr = 0.0;
  std::size_t functional = 0, fresh = 0;
  for (SampleOutcome& out : outcomes) {
    stats.total_queries += out.total_queries;
    stats.wall_ms += out.ms;
    if (!out.from_cache) ++fresh;
    if (!out.success) continue;
    ++stats.successes;
    evasion_queries += out.first_evasion;
    sum_apr += out.apr;
    if (out.functional) {
      ++functional;
      const ByteBuf& ae = out.adversarial;
      stats.ae_digest = util::fnv1a64(
          ae, util::hash_combine(stats.ae_digest, ae.size()));
      if (aes) aes->push_back(std::move(out.adversarial));
    }
  }
  if (stats.n > 0)
    stats.asr = 100.0 * static_cast<double>(stats.successes) /
                static_cast<double>(stats.n);
  if (stats.successes > 0) {
    stats.avq = static_cast<double>(evasion_queries) /
                static_cast<double>(stats.successes);
    stats.apr = 100.0 * sum_apr / static_cast<double>(stats.successes);
    stats.functional = 100.0 * static_cast<double>(functional) /
                       static_cast<double>(stats.successes);
  }
  // Guard both the zero and the non-finite case: all-cache-hit cells have
  // wall_ms == 0 (or denormal sums), and qps must stay a finite number --
  // it is serialized and later printed with %.0f.
  stats.qps = std::isfinite(stats.wall_ms) && stats.wall_ms > 1e-9
                  ? static_cast<double>(stats.total_queries) /
                        (stats.wall_ms / 1000.0)
                  : 0.0;
  if (!std::isfinite(stats.qps)) stats.qps = 0.0;
  if (obs::trace_dir()) {
    // Reconciliation anchor for tools/mpass_trace --check: when traced == n
    // every sample left a fresh trace file, the sum of their end.queries
    // must equal total_queries and the sum of their first benign query
    // indices over successes must equal evasion_queries; cells with cache
    // hits cannot reconcile.
    obs::JsonLine line;
    line.str("ev", "cell")
        .str("attack", stats.attack)
        .str("target", stats.target)
        .uint("n", stats.n)
        .uint("traced", fresh)
        .uint("total_queries", stats.total_queries)
        .uint("successes", stats.successes)
        .uint("evasion_queries", evasion_queries)
        .num("wall_ms", stats.wall_ms);
    obs::append_run_line("cells.jsonl", line.take());
  }
  return stats;
}

std::unique_ptr<attack::Attack> make_attack(std::string_view name,
                                            detect::ModelZoo& zoo,
                                            std::string_view target_name) {
  // MPass variants clone the known models so concurrent grid cells never
  // share forward-pass caches.
  const attack::MpassAttack::CloneTag clone;
  if (name == "MPass") {
    const auto known = zoo.known_nets_excluding(target_name);
    return std::make_unique<attack::MpassAttack>(
        "MPass", attack::MpassAttack::default_config(), zoo.benign_pool(),
        known, clone);
  }
  if (name == "Other-sec") {
    const auto known = zoo.known_nets_excluding(target_name);
    return std::make_unique<attack::MpassAttack>(
        "Other-sec", attack::MpassAttack::other_sec_config(),
        zoo.benign_pool(), known, clone);
  }
  if (name == "Random-data")
    return std::make_unique<attack::MpassAttack>(
        "Random-data", attack::MpassAttack::random_data_config(),
        zoo.benign_pool(), std::vector<ml::ByteConvNet*>{});
  if (name == "MPass-noshuffle") {
    const auto known = zoo.known_nets_excluding(target_name);
    return std::make_unique<attack::MpassAttack>(
        "MPass-noshuffle", attack::MpassAttack::no_shuffle_config(),
        zoo.benign_pool(), known, clone);
  }
  if (name == "RLA")
    return std::make_unique<attack::Rla>(attack::RlaConfig{},
                                         zoo.benign_pool());
  if (name == "MAB")
    return std::make_unique<attack::Mab>(attack::MabConfig{},
                                         zoo.benign_pool());
  if (name == "GAMMA")
    return std::make_unique<attack::Gamma>(attack::GammaConfig{},
                                           zoo.benign_pool());
  if (name == "MalRNN")
    return std::make_unique<attack::MalRnn>(attack::MalRnnConfig{},
                                            zoo.benign_lm());
  if (name == "UPX")
    return std::make_unique<attack::ObfuscateAttack>(pack::PackerKind::UpxLike);
  if (name == "PESpin")
    return std::make_unique<attack::ObfuscateAttack>(
        pack::PackerKind::PespinLike);
  if (name == "ASPack")
    return std::make_unique<attack::ObfuscateAttack>(
        pack::PackerKind::AspackLike);
  throw std::invalid_argument("unknown attack: " + std::string(name));
}

void export_csv(const std::filesystem::path& path,
                const std::vector<CellStats>& cells) {
  std::string csv = "attack,target,n,successes,asr,avq,apr,functional\n";
  char line[256];
  for (const CellStats& c : cells) {
    std::snprintf(line, sizeof(line), "%s,%s,%zu,%zu,%.2f,%.2f,%.2f,%.2f\n",
                  c.attack.c_str(), c.target.c_str(), c.n, c.successes, c.asr,
                  c.avq, c.apr, c.functional);
    csv += line;
  }
  util::save_file(path, util::to_bytes(csv));
}

// ---- canonical experiments -----------------------------------------------------

namespace {

std::vector<CellStats> run_grid(std::string_view key,
                                std::span<const std::string_view> attacks,
                                std::span<detect::Detector* const> targets,
                                bool gate_on_all_offline,
                                const ExperimentConfig& cfg,
                                CellAes* aes = nullptr) {
  detect::ModelZoo& zoo = detect::ModelZoo::instance();

  // Sample gate: paper requires initial detection by the target models.
  std::vector<const detect::Detector*> gate;
  if (gate_on_all_offline)
    for (detect::Detector* d : zoo.offline()) gate.push_back(d);
  else
    for (detect::Detector* d : targets) gate.push_back(d);
  const std::vector<ByteBuf> samples =
      make_attack_set(gate, cfg.n_samples, cfg.seed);

  // Attack prototypes are constructed up front on this thread -- cloning
  // reads the source nets' state, which must not race with tasks running
  // them. Each (target, attack) cell then becomes a pool task, and each
  // cell fans out one sub-task per sample onto the same queue (see
  // run_cell); a waiting cell runs queued tasks itself, so nesting cannot
  // deadlock. The unit of parallelism is (target, attack, sample).
  std::vector<std::vector<std::unique_ptr<attack::Attack>>> attack_sets(
      targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t)
    for (std::string_view atk_name : attacks)
      attack_sets[t].push_back(make_attack(atk_name, zoo, targets[t]->name()));

  util::ThreadPool& tp = util::ThreadPool::instance();
  std::vector<std::future<CellStats>> futs;
  futs.reserve(targets.size() * attacks.size());
  if (aes) aes->assign(targets.size() * attacks.size(), {});
  for (std::size_t t = 0; t < targets.size(); ++t)
    for (std::size_t a = 0; a < attacks.size(); ++a)
      futs.push_back(tp.submit([&, t, a] {
        return run_cell(*attack_sets[t][a], *targets[t], samples, samples,
                        cfg, &tp,
                        aes ? &(*aes)[t * attacks.size() + a] : nullptr);
      }));

  std::vector<CellStats> cells;
  cells.reserve(futs.size());
  for (std::future<CellStats>& fut : futs) {
    cells.push_back(tp.wait(std::move(fut)));
    const CellStats& c = cells.back();
    obs::logf(obs::LogLevel::Info,
              "[%s] %s vs %s: ASR %.1f%% AVQ %.1f APR %.0f%% "
              "(%.0f ms, %.0f q/s)",
              std::string(key).c_str(), c.attack.c_str(), c.target.c_str(),
              c.asr, c.avq, c.apr, c.wall_ms, c.qps);
  }
  obs::write_span_snapshot();
  return cells;
}

constexpr std::string_view kMainAttacks[] = {"MPass", "RLA", "MAB", "GAMMA",
                                             "MalRNN"};

std::vector<detect::Detector*> av_targets() {
  std::vector<detect::Detector*> targets;
  for (const auto& av : detect::ModelZoo::instance().avs())
    targets.push_back(av.get());
  return targets;
}

}  // namespace

std::vector<CellStats> offline_grid(const ExperimentConfig& cfg) {
  auto targets = detect::ModelZoo::instance().offline();
  return run_grid("offline", kMainAttacks, targets, true, cfg);
}

std::vector<CellStats> av_grid(const ExperimentConfig& cfg, CellAes* aes) {
  auto targets = av_targets();
  return run_grid("avs", kMainAttacks, targets, false, cfg, aes);
}

std::vector<CellStats> obfuscation_grid(const ExperimentConfig& cfg) {
  static constexpr std::string_view kAttacks[] = {"UPX", "PESpin", "ASPack",
                                                  "MPass"};
  auto targets = av_targets();
  return run_grid("obfuscation", kAttacks, targets, false, cfg);
}

std::vector<CellStats> other_sec_grid(const ExperimentConfig& cfg) {
  static constexpr std::string_view kAttacks[] = {"Other-sec", "MPass"};
  auto targets = av_targets();
  return run_grid("othersec", kAttacks, targets, false, cfg);
}

std::vector<CellStats> random_data_grid(const ExperimentConfig& cfg) {
  static constexpr std::string_view kAttacks[] = {"Random-data", "MPass"};
  auto targets = av_targets();
  return run_grid("randomdata", kAttacks, targets, false, cfg);
}

LearningTimeline av_learning_timeline(const ExperimentConfig& cfg) {
  detect::ModelZoo& zoo = detect::ModelZoo::instance();
  // Fig. 4 extends the Fig. 3 run, adding the no-shuffle MPass ablation so
  // the shuffle strategy's role in surviving AV learning is visible. It runs
  // through run_grid like the MPass row, so both attack the same samples
  // (gated on all five AVs) by construction.
  static constexpr std::string_view kNoShuffle[] = {"MPass-noshuffle"};
  CellAes aes, extra_aes;
  std::vector<CellStats> cells = av_grid(cfg, &aes);
  const std::vector<CellStats> extra =
      run_grid("avs-noshuffle", kNoShuffle, av_targets(), false, cfg,
               &extra_aes);
  cells.insert(cells.end(), extra.begin(), extra.end());
  aes.insert(aes.end(), std::make_move_iterator(extra_aes.begin()),
             std::make_move_iterator(extra_aes.end()));

  LearningTimeline tl;
  for (const auto& av : zoo.avs()) tl.avs.emplace_back(av->name());
  for (const CellStats& c : cells)
    if (std::find(tl.attacks.begin(), tl.attacks.end(), c.attack) ==
        tl.attacks.end())
      tl.attacks.push_back(c.attack);

  // Fresh AV copies so the learning simulation does not pollute the zoo.
  std::vector<std::unique_ptr<detect::Detector>> avs;
  for (const auto& av : zoo.avs()) avs.push_back(av->clone());

  tl.bypass.assign(
      tl.attacks.size(),
      std::vector<std::vector<double>>(
          tl.avs.size(), std::vector<double>(tl.rounds, 0.0)));

  // Weekly rounds: round 0 is the initial 100% (successful AEs only).
  // Each following week the vendors mine signatures from that week's
  // submission batch (all attacks mixed, as uploaded to the scan service).
  for (std::size_t round = 0; round < tl.rounds; ++round) {
    if (round > 0) {
      for (std::size_t a = 0; a < tl.avs.size(); ++a) {
        std::vector<ByteBuf> batch;
        for (std::size_t ci = 0; ci < cells.size(); ++ci) {
          if (cells[ci].target != tl.avs[a]) continue;
          // Split each cell's AEs into (rounds-1) weekly slices.
          const std::size_t slices = tl.rounds - 1;
          for (std::size_t i = round - 1; i < aes[ci].size(); i += slices)
            batch.push_back(aes[ci][i]);
        }
        static_cast<detect::CommercialAv&>(*avs[a]).update(batch);
      }
    }
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      const CellStats& c = cells[ci];
      const std::vector<ByteBuf>& c_aes = aes[ci];
      const auto ai = static_cast<std::size_t>(
          std::find(tl.attacks.begin(), tl.attacks.end(), c.attack) -
          tl.attacks.begin());
      const auto vi = static_cast<std::size_t>(
          std::find(tl.avs.begin(), tl.avs.end(), c.target) - tl.avs.begin());
      if (vi >= tl.avs.size()) continue;
      if (c_aes.empty()) continue;
      std::size_t bypass = 0;
      for (const ByteBuf& ae : c_aes)
        if (!avs[vi]->is_malicious(ae)) ++bypass;
      tl.bypass[ai][vi][round] = 100.0 * static_cast<double>(bypass) /
                                 static_cast<double>(c_aes.size());
    }
  }
  return tl;
}

}  // namespace mpass::harness
