// Attacking a commercial ML AV simulator (paper §IV-B) and watching it
// *learn* (§IV-C): run MPass (attack::Mpass) and a baseline (attack::Mab)
// against AV1 through the common attack::Attack interface, then feed the
// successful AEs back through the vendor's weekly signature-mining update
// and re-scan -- the baseline's AEs get caught, MPass's survive. MPass's
// known ensemble is every byte net of the zoo, copied into the attack: a
// commercial AV never leaks its models, so none is excluded.
//
// Build & run:  ./build/examples/attack_commercial_av
#include <cstdio>

#include "attack/mab.hpp"
#include "attack/mpass.hpp"
#include "corpus/generator.hpp"
#include "detectors/zoo.hpp"
#include "vm/sandbox.hpp"

int main() {
  using namespace mpass;
  detect::ModelZoo& zoo = detect::ModelZoo::instance();
  detect::CommercialAv& av = *zoo.avs()[0];  // AV1
  std::printf("target: %s (%zu signatures, threshold %.3f)\n\n",
              std::string(av.name()).c_str(), av.signatures().size(),
              av.threshold());

  attack::Mpass mpass("MPass", {}, zoo.benign_pool(),
                      zoo.known_nets_excluding("none"));
  attack::Mab mab(zoo.benign_pool());

  std::vector<util::ByteBuf> mpass_aes, mab_aes;
  const int n = 16;
  int mpass_ok = 0, mab_ok = 0;
  for (int i = 0; i < n; ++i) {
    const util::ByteBuf sample = corpus::make_malware(808000 + i).bytes();
    if (!av.is_malicious(sample)) continue;
    {
      detect::HardLabelOracle oracle(av, 100);
      auto r = mpass.run(sample, oracle, 90 + i);
      if (r.success) {
        ++mpass_ok;
        mpass_aes.push_back(r.adversarial);
      }
    }
    {
      detect::HardLabelOracle oracle(av, 100);
      auto r = mab.run(sample, oracle, 90 + i);
      if (r.success) {
        ++mab_ok;
        mab_aes.push_back(r.adversarial);
      }
    }
  }
  std::printf("first-scan evasions out of %d samples: MPass %d, MAB %d\n", n,
              mpass_ok, mab_ok);

  // The vendor's weekly update: mine signatures from everything submitted.
  std::vector<util::ByteBuf> submissions = mpass_aes;
  submissions.insert(submissions.end(), mab_aes.begin(), mab_aes.end());
  const std::size_t added = av.update(submissions);
  std::printf("AV update: %zu new signatures mined from %zu submissions\n",
              added, submissions.size());

  auto rescan = [&](const std::vector<util::ByteBuf>& aes) {
    std::size_t still = 0;
    for (const auto& ae : aes)
      if (!av.is_malicious(ae)) ++still;
    return aes.empty() ? 0.0
                       : 100.0 * static_cast<double>(still) /
                             static_cast<double>(aes.size());
  };
  std::printf("bypass rate after the update: MPass %.0f%%, MAB %.0f%%\n",
              rescan(mpass_aes), rescan(mab_aes));
  std::printf("(paper Fig. 4: baselines decay under vendor learning, MPass "
              "stays at 100%%)\n");
  return 0;
}
