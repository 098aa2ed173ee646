#include "attack/obfuscate.hpp"

#include "obs/span.hpp"

namespace mpass::attack {

AttackResult ObfuscateAttack::run(std::span<const std::uint8_t> malware,
                                  detect::HardLabelOracle& oracle,
                                  std::uint64_t /*seed*/) {
  OBS_SCOPE("attack.obfuscate.run");
  AttackResult result;
  result.adversarial.assign(malware.begin(), malware.end());
  auto packed = pack::pack(kind_, malware);
  if (!packed) return result;
  result.adversarial = std::move(*packed);
  result.success = !oracle.query(result.adversarial);
  return result;
}

}  // namespace mpass::attack
