// Extension bench (paper §VI "Adversarial training"): measures how much the
// two standard adversarial-training flavors reduce MPass's ASR on MalConv.
//
// Paper's claims: PGD-AT-style gradient AEs do not help (wrong AE
// distribution -- not function-preserving), and even training on MPass's own
// AEs mixed 50/50 with clean malware suppresses ASR by < 10%.
//
// Two more rows attack the undefended and the AE-mix detector with a donor
// pool disjoint from the zoo's: if the fine-tune learned the benign content
// MPass injects rather than robustness, fresh donors bring the ASR back.
#include <unordered_set>

#include "attack/mpass.hpp"
#include "bench_common.hpp"
#include "corpus/generator.hpp"
#include "detectors/advtrain.hpp"
#include "util/hashing.hpp"

int main() {
  using namespace mpass;
  auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("advtrain");
  cfg.n_samples = std::min<std::size_t>(cfg.n_samples, 60);
  detect::ModelZoo& zoo = detect::ModelZoo::instance();

  // The attack set is split in two. MPass's AEs of the first half against
  // the zoo MalConv are what the AE-mix detector is fine-tuned on; all three
  // rows are evaluated on the second half, so no defense is scored on
  // samples whose AEs it trained on.
  const detect::Detector& base = zoo.offline_by_name("MalConv");
  std::vector<const detect::Detector*> gate = {&base};
  const auto samples = harness::make_attack_set(gate, cfg.n_samples, cfg.seed);
  const std::size_t n_train = samples.size() / 2;
  const std::span<const util::ByteBuf> train_set(samples.data(), n_train);
  const std::span<const util::ByteBuf> eval_set(samples.data() + n_train,
                                                samples.size() - n_train);

  auto mpass_asr = [&](const detect::Detector& target,
                       std::span<const util::ByteBuf> set,
                       std::vector<util::ByteBuf>* aes = nullptr) {
    auto atk = harness::make_attack("MPass", zoo, "MalConv");
    return harness::run_cell(*atk, target, set, set, cfg, nullptr, aes).asr;
  };
  std::vector<util::ByteBuf> train_aes;
  mpass_asr(base, train_set, &train_aes);
  const double base_asr = mpass_asr(base, eval_set);

  // (a) PGD-AT-style retraining from scratch.
  detect::ByteConvDetector pgd("MalConv-PGDAT", detect::malconv_config(),
                               zoo.config().seed + 1);
  detect::AdvTrainConfig at;
  at.epochs = zoo.config().net_epochs;
  detect::adversarial_train_pgd(pgd, zoo.train(), at);
  detect::calibrate_threshold(pgd, zoo.train(), zoo.config().target_fpr);
  const double pgd_asr = mpass_asr(pgd, eval_set);

  // (b) Fine-tune a copy of MalConv on MPass's own AEs (50/50 mix).
  detect::ByteConvDetector mixed("MalConv-AEmix", detect::malconv_config(),
                                 zoo.config().seed + 1);
  {  // copy the zoo MalConv weights only: the detector keeps its own name,
     // which keys the per-sample result cache apart from MalConv's cells
    util::Archive ar;
    dynamic_cast<const detect::ByteConvDetector&>(base).net().save(ar);
    const util::ByteBuf blob = ar.take();
    util::Unarchive un(blob);
    mixed.net().load(un);
  }
  detect::AdvTrainConfig mix_cfg;
  mix_cfg.epochs = 1;
  detect::adversarial_train_with_aes(mixed, zoo.train(), train_aes, mix_cfg);
  detect::calibrate_threshold(mixed, zoo.train(), zoo.config().target_fpr);
  const double mix_asr = mpass_asr(mixed, eval_set);

  // (c) Both detectors again, attacked with as many fresh donors as the zoo
  // pool holds, drawn from another seed stream. The attack has its own name
  // so the per-sample cache never serves it MPass cells.
  std::unordered_set<std::uint64_t> zoo_digests;
  for (const util::ByteBuf& b : zoo.benign_pool())
    zoo_digests.insert(util::fnv1a64(b));
  std::vector<util::ByteBuf> fresh_pool;
  std::size_t shared = 0;
  for (std::size_t i = 0; i < zoo.benign_pool().size(); ++i) {
    fresh_pool.push_back(
        corpus::make_benign(
            util::hash_combine(zoo.config().seed ^ 0xF4E5000000000000ULL, i))
            .bytes());
    shared += zoo_digests.count(util::fnv1a64(fresh_pool.back()));
  }
  attack::Mpass fresh("MPass-freshpool", {}, fresh_pool,
                      zoo.known_nets_excluding("MalConv"));
  const double base_fresh_asr =
      harness::run_cell(fresh, base, eval_set, eval_set, cfg).asr;
  const double mix_fresh_asr =
      harness::run_cell(fresh, mixed, eval_set, eval_set, cfg).asr;

  util::Table table("Extension (paper SVI): adversarial training vs MPass");
  table.header({"Defense", "MPass ASR (%)", "delta vs undefended"});
  table.row({"none (zoo MalConv)", util::Table::num(base_asr), "-"});
  table.row({"PGD-AT (gradient AEs)", util::Table::num(pgd_asr),
             util::Table::num(pgd_asr - base_asr)});
  table.row({"AE-mix 50/50 (MPass AEs)", util::Table::num(mix_asr),
             util::Table::num(mix_asr - base_asr)});
  table.row({"none, fresh donor pool", util::Table::num(base_fresh_asr),
             util::Table::num(base_fresh_asr - base_asr)});
  table.row({"AE-mix 50/50, fresh donor pool", util::Table::num(mix_fresh_asr),
             util::Table::num(mix_fresh_asr - base_asr)});
  std::cout << table.render();
  std::printf(
      "(AE-mix trained on MPass's %zu AEs of %zu samples; every row\n"
      "evaluated on the other %zu samples; fresh donor pool: %zu programs,\n"
      "%zu sharing an fnv1a64 digest with the zoo pool)\n"
      "Paper SVI: PGD-AT's uniform-perturbation AEs are off the\n"
      "function-preserving AE distribution and do not transfer; AE-mixing\n"
      "suppresses MPass ASR by less than 10 points.\n",
      train_aes.size(), train_set.size(), eval_set.size(), fresh_pool.size(),
      shared);
  return 0;
}
