#include "detectors/zoo.hpp"

#include <cstdlib>
#include <exception>

#include "obs/log.hpp"
#include "obs/span.hpp"
#include "pack/packer.hpp"
#include "util/env.hpp"
#include "util/hashing.hpp"
#include "util/threadpool.hpp"

namespace mpass::detect {

using util::ByteBuf;

namespace {
constexpr std::uint64_t kZooCacheVersion = 10;

/// Waits for every job, even after one has thrown (the jobs read their
/// submitter's locals), then rethrows the first failure.
void wait_all(util::ThreadPool& tp, std::vector<std::future<void>>& jobs) {
  std::exception_ptr failure;
  for (std::future<void>& job : jobs) {
    try {
      tp.wait(std::move(job));
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}
}  // namespace

ZooConfig ZooConfig::from_env() {
  using util::env_size;
  ZooConfig cfg;
  cfg.seed = env_size("MPASS_SEED", cfg.seed);
  cfg.train_malware = env_size("MPASS_TRAIN_MAL", cfg.train_malware);
  cfg.train_benign = env_size("MPASS_TRAIN_BEN", cfg.train_benign);
  cfg.test_malware = env_size("MPASS_TEST_MAL", cfg.test_malware);
  cfg.test_benign = env_size("MPASS_TEST_BEN", cfg.test_benign);
  cfg.net_epochs = static_cast<int>(
      env_size("MPASS_NET_EPOCHS", static_cast<std::size_t>(cfg.net_epochs)));
  if (std::getenv("MPASS_NO_CACHE")) cfg.use_cache = false;
  return cfg;
}

std::uint64_t ZooConfig::digest() const {
  std::uint64_t h = kZooCacheVersion;
  for (std::uint64_t v :
       {seed, static_cast<std::uint64_t>(train_malware),
        static_cast<std::uint64_t>(train_benign),
        static_cast<std::uint64_t>(test_malware),
        static_cast<std::uint64_t>(test_benign),
        static_cast<std::uint64_t>(packed_malware),
        static_cast<std::uint64_t>(packed_benign),
        static_cast<std::uint64_t>(benign_pool),
        static_cast<std::uint64_t>(net_epochs),
        static_cast<std::uint64_t>(lm_windows),
        static_cast<std::uint64_t>(lm_epochs),
        static_cast<std::uint64_t>(target_fpr * 1e6)})
    h = util::hash_combine(h, v);
  return h;
}

namespace {
// Structural-noise augmentation: label-neutral cosmetic variants (extra
// sections of benign-slice content, renamed sections, overlay appends,
// timestamp changes) for BOTH classes. Real-world training corpora contain
// endless such variants, which is why production detectors key on content
// rather than structural oddity; a small synthetic corpus needs the same
// invariances made explicit or "anything unusual" becomes a malware
// feature and transfer attacks stop reflecting the paper's regime.
void augment_structural_noise(corpus::Dataset& data, std::uint64_t seed) {
  util::Rng arng(seed);
  std::vector<ByteBuf> slices;
  for (const corpus::Sample& s : data.samples)
    if (s.label == 0 && slices.size() < 24) slices.push_back(s.bytes);
  auto slice_of = [&](std::size_t n) {
    ByteBuf out(n);
    if (slices.empty()) return out;
    const ByteBuf& src = slices[arng.below(slices.size())];
    const std::size_t start = arng.below(std::max<std::size_t>(src.size(), 1));
    for (std::size_t i = 0; i < n; ++i) out[i] = src[(start + i) % src.size()];
    return out;
  };
  auto random_name = [&] {
    std::string name;
    const std::size_t len = 3 + arng.below(5);
    for (std::size_t c = 0; c < len; ++c)
      name.push_back("abcdefghijklmnopqrstuvwxyz."[arng.below(27)]);
    return name;
  };
  const std::size_t base_count = data.samples.size();
  std::vector<corpus::Sample> augmented;
  for (std::size_t i = 0; i < base_count; ++i) {
    if (!arng.chance(0.45)) continue;
    pe::PeFile f;
    try {
      f = pe::PeFile::parse(data.samples[i].bytes);
    } catch (const util::ParseError&) {
      continue;
    }
    const int n_transforms = static_cast<int>(arng.range(1, 3));
    for (int t = 0; t < n_transforms; ++t) {
      switch (arng.range(0, 3)) {
        case 0:  // extra section, random name, benign-slice content
          f.add_section(random_name(),
                        slice_of(static_cast<std::size_t>(
                            arng.range(1024, 12288))),
                        pe::kScnInitializedData | pe::kScnMemRead);
          break;
        case 1: {  // overlay append
          const ByteBuf extra =
              slice_of(static_cast<std::size_t>(arng.range(512, 8192)));
          f.overlay.insert(f.overlay.end(), extra.begin(), extra.end());
          break;
        }
        case 2:  // rename a section
          if (!f.sections.empty())
            f.sections[arng.below(f.sections.size())].name = random_name();
          break;
        default:  // timestamp
          f.timestamp = static_cast<std::uint32_t>(
              arng.range(0x40000000, 0x65000000));
          break;
      }
    }
    corpus::Sample aug;
    aug.bytes = f.build();
    aug.label = data.samples[i].label;
    aug.meta = data.samples[i].meta;
    augmented.push_back(std::move(aug));
  }
  for (corpus::Sample& s : augmented)
    data.samples.push_back(std::move(s));
}
}  // namespace

ModelZoo& ModelZoo::instance() {
  static ModelZoo zoo(ZooConfig::from_env());
  return zoo;
}

std::filesystem::path ModelZoo::artifact_path(std::string_view stem) const {
  char dir[64];
  std::snprintf(dir, sizeof(dir), "zoo-%016llx",
                static_cast<unsigned long long>(cfg_.digest()));
  return util::cache_dir() / dir / (std::string(stem) + ".bin");
}

ModelZoo::ModelZoo(const ZooConfig& cfg) : cfg_(cfg) { build_or_load(); }

void ModelZoo::build_or_load() {
  // ---- corpus (always regenerated; deterministic and fast) ----------------
  corpus::Dataset train_raw = corpus::generate_dataset(
      cfg_.seed, cfg_.train_malware, cfg_.train_benign);
  test_ = corpus::generate_dataset(cfg_.seed ^ 0x7E57, cfg_.test_malware,
                                   cfg_.test_benign);

  // Packed-sample augmentation: deployed AVs have seen packed goodware and
  // (mostly) packed malware; this is what makes packers a weak evasion
  // (Table IV).
  util::Rng prng(cfg_.seed ^ 0x9ACC);
  auto add_packed = [&](int label, std::size_t count) {
    std::size_t added = 0;
    for (const corpus::Sample& s : train_raw.samples) {
      if (added >= count) break;
      if (s.label != label) continue;
      static constexpr pack::PackerKind kKinds[] = {
          pack::PackerKind::UpxLike, pack::PackerKind::PespinLike,
          pack::PackerKind::AspackLike};
      const auto kind = kKinds[prng.below(3)];
      if (auto packed = pack::pack(kind, s.bytes)) {
        corpus::Sample ps;
        ps.bytes = std::move(*packed);
        ps.label = label;
        ps.meta = s.meta;
        train_.samples.push_back(std::move(ps));
        ++added;
      }
    }
  };
  train_ = std::move(train_raw);
  add_packed(1, cfg_.packed_malware);
  add_packed(0, cfg_.packed_benign);

  augment_structural_noise(train_, cfg_.seed ^ 0xA06);

  util::Rng shuffler(cfg_.seed ^ 0x5117);
  shuffler.shuffle(train_.samples);

  // ---- attacker-side benign pool -------------------------------------------
  pool_.clear();
  for (std::size_t i = 0; i < cfg_.benign_pool; ++i)
    pool_.push_back(
        corpus::make_benign(util::hash_combine(cfg_.seed ^ 0xA77C, i)).bytes());

  // ---- models ---------------------------------------------------------------
  malconv_ = std::make_unique<ByteConvDetector>("MalConv", malconv_config(),
                                                cfg_.seed + 1);
  nonneg_ = std::make_unique<ByteConvDetector>("NonNeg", nonneg_config(),
                                               cfg_.seed + 2);
  malgcg_ = std::make_unique<ByteConvDetector>("MalGCG", malgcg_config(),
                                               cfg_.seed + 3);
  lightgbm_ =
      std::make_unique<GbdtDetector>("LightGBM", lightgbm_config());
  lm_ = std::make_unique<ml::GruLm>(ml::GruLmConfig{}, cfg_.seed + 4);

  // Attacker-trained surrogates: diverse architectures (shapes chosen to
  // overlap none of the targets exactly) trained on the attacker's own
  // generated corpus.
  {
    ml::ByteConvConfig a = malconv_config();
    a.embed_dim = 6; a.filters = 24; a.width = 24; a.stride = 12;
    ml::ByteConvConfig b = malgcg_config();
    b.filters = 12; b.width = 64; b.stride = 32;
    ml::ByteConvConfig c = malconv_config();
    c.gated = false; c.filters = 20; c.width = 16; c.stride = 8;
    surrogates_.clear();
    surrogates_.push_back(std::make_unique<ByteConvDetector>(
        "Surrogate-A", a, cfg_.seed + 101));
    surrogates_.push_back(std::make_unique<ByteConvDetector>(
        "Surrogate-B", b, cfg_.seed + 202));
    surrogates_.push_back(std::make_unique<ByteConvDetector>(
        "Surrogate-C", c, cfg_.seed + 303));
  }

  // Cache probe.
  const auto path = artifact_path("offline");
  if (cfg_.use_cache) {
    if (auto blob = util::load_file(path)) {
      try {
        util::Unarchive ar(*blob);
        malconv_->load(ar);
        nonneg_->load(ar);
        malgcg_->load(ar);
        lightgbm_->load(ar);
        lm_->load(ar);
        for (auto& s : surrogates_) s->load(ar);
        obs::logf(obs::LogLevel::Debug, "zoo: loaded offline models from %s",
                  path.string().c_str());
        return;
      } catch (const util::ParseError&) {
        obs::logf(obs::LogLevel::Warn,
                  "zoo: stale model cache %s, retraining",
                  path.string().c_str());
      }
    }
  }
  obs::logf(obs::LogLevel::Info,
            "zoo: training offline models (train=%zu test=%zu epochs=%d)",
            train_.samples.size(), test_.samples.size(), cfg_.net_epochs);
  OBS_SCOPE("zoo.train");

  // One pool task per net, plus one for GBDT + LM. The pool is first asked
  // for here, after the cache probe, so a cache hit never starts its
  // workers.
  NetTrainConfig tc;
  tc.epochs = cfg_.net_epochs;
  tc.seed = cfg_.seed + 10;
  // The attacker's corpus is *disjoint* from the defenders' training data
  // (different generator stream): surrogate transfer is not an artifact of
  // shared training sets.
  corpus::Dataset attacker_train = corpus::generate_dataset(
      cfg_.seed ^ 0xA77AC4, cfg_.train_malware / 2 + 150,
      cfg_.train_benign / 2 + 150);
  augment_structural_noise(attacker_train, cfg_.seed ^ 0xA07);
  util::ThreadPool& tp = util::ThreadPool::instance();
  std::vector<std::future<void>> jobs;
  for (ByteConvDetector* d : {malconv_.get(), nonneg_.get(), malgcg_.get()})
    jobs.push_back(tp.submit([&, d] { train_net(*d, train_, tc); }));
  for (auto& s : surrogates_)
    jobs.push_back(tp.submit([&, sp = s.get()] {
      NetTrainConfig stc = tc;
      stc.seed ^= util::fnv1a64(std::string_view(sp->name()));
      train_net(*sp, attacker_train, stc);
    }));
  // Submitted last, so run first (the pool is LIFO): the longest job.
  jobs.push_back(tp.submit([&] {
    train_gbdt(*lightgbm_, train_, cfg_.seed + 11);
    util::Rng lm_rng(cfg_.seed + 12);
    for (int e = 0; e < cfg_.lm_epochs; ++e)
      lm_->train_epoch(pool_, cfg_.lm_windows, 2e-3f, lm_rng);
  }));
  wait_all(tp, jobs);

  for (Detector* d : offline()) {
    calibrate_threshold(*d, train_, cfg_.target_fpr);
    obs::logf(obs::LogLevel::Debug, "zoo: %s calibrated, threshold %.4f",
              std::string(d->name()).c_str(), d->threshold());
  }
  for (auto& s : surrogates_)
    calibrate_threshold(*s, attacker_train, cfg_.target_fpr);

  if (cfg_.use_cache) {
    util::Archive ar;
    malconv_->save(ar);
    nonneg_->save(ar);
    malgcg_->save(ar);
    lightgbm_->save(ar);
    lm_->save(ar);
    for (auto& s : surrogates_) s->save(ar);
    util::save_file(path, ar.take());
  }
}

std::vector<ByteConvDetector*> ModelZoo::surrogates() const {
  std::vector<ByteConvDetector*> out;
  for (const auto& s : surrogates_) out.push_back(s.get());
  return out;
}

std::vector<Detector*> ModelZoo::offline() const {
  return {malconv_.get(), nonneg_.get(), lightgbm_.get(), malgcg_.get()};
}

Detector& ModelZoo::offline_by_name(std::string_view name) const {
  for (Detector* d : offline())
    if (d->name() == name) return *d;
  throw std::out_of_range("zoo: unknown detector " + std::string(name));
}

std::vector<ml::ByteConvNet*> ModelZoo::known_nets_excluding(
    std::string_view target) const {
  std::vector<ml::ByteConvNet*> nets;
  for (ByteConvDetector* d : {malconv_.get(), nonneg_.get(), malgcg_.get()})
    if (d->name() != target) nets.push_back(&d->net());
  for (const auto& s : surrogates_) nets.push_back(&s->net());
  return nets;
}

void ModelZoo::build_avs() {
  const auto path = artifact_path("avs");
  const auto profiles = default_av_profiles();
  if (cfg_.use_cache) {
    if (auto blob = util::load_file(path)) {
      try {
        util::Unarchive ar(*blob);
        std::vector<std::unique_ptr<CommercialAv>> loaded;
        for (const AvProfile& p : profiles) {
          auto av = std::make_unique<CommercialAv>(p, CommercialAv::Untrained{});
          av->load(ar);
          loaded.push_back(std::move(av));
        }
        avs_ = std::move(loaded);
        avs_built_ = true;
        obs::logf(obs::LogLevel::Debug, "zoo: loaded %zu AVs from cache",
                  avs_.size());
        return;
      } catch (const util::ParseError&) {
        obs::logf(obs::LogLevel::Warn, "zoo: stale AV cache %s, retraining",
                  path.string().c_str());
      }
    }
  }

  obs::logf(obs::LogLevel::Info, "zoo: training %zu commercial-AV simulators",
            profiles.size());
  OBS_SCOPE("zoo.train_avs");
  avs_.resize(profiles.size());
  util::ThreadPool& tp = util::ThreadPool::instance();
  std::vector<std::future<void>> jobs;
  for (std::size_t i = 0; i < profiles.size(); ++i)
    jobs.push_back(tp.submit([this, &profiles, i] {
      avs_[i] = std::make_unique<CommercialAv>(profiles[i], train_);
    }));
  wait_all(tp, jobs);
  avs_built_ = true;

  if (cfg_.use_cache) {
    util::Archive ar;
    for (const auto& av : avs_) av->save(ar);
    util::save_file(path, ar.take());
  }
}

const std::vector<std::unique_ptr<CommercialAv>>& ModelZoo::avs() {
  if (!avs_built_) build_avs();
  return avs_;
}

EvalReport ModelZoo::eval_offline(std::string_view name) const {
  return evaluate(offline_by_name(name), test_);
}

}  // namespace mpass::detect
