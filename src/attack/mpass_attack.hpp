// Adapter exposing core::Mpass through the common Attack interface, plus
// the ablation variants of §V (Other-sec, Random-data) as named attacks.
#pragma once

#include <memory>

#include "attack/attack.hpp"
#include "core/mpass.hpp"

namespace mpass::attack {

class MpassAttack : public Attack {
 public:
  struct CloneTag {};

  MpassAttack(std::string name, core::MpassConfig cfg,
              std::span<const util::ByteBuf> benign_pool,
              std::vector<ml::ByteConvNet*> known)
      : name_(std::move(name)),
        impl_(std::move(cfg), benign_pool, std::move(known)) {}

  /// Variant that deep-copies the known models and owns the clones: attack
  /// instances built this way are safe to run on concurrent threads (the
  /// nets' forward caches are private).
  MpassAttack(std::string name, core::MpassConfig cfg,
              std::span<const util::ByteBuf> benign_pool,
              std::span<ml::ByteConvNet* const> known_to_clone, CloneTag)
      : name_(std::move(name)),
        owned_(clone_all(known_to_clone)),
        impl_(std::move(cfg), benign_pool, raw(owned_)) {}

  std::string_view name() const override { return name_; }

  AttackResult run(std::span<const std::uint8_t> malware,
                   detect::HardLabelOracle& oracle,
                   std::uint64_t seed) override {
    core::MpassResult r = impl_.run(malware, oracle, seed);
    return {r.success, std::move(r.adversarial)};
  }

  /// Deep copy: the clone owns fresh copies of the known models, so its
  /// ensemble optimization never shares forward caches with this instance.
  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<MpassAttack>(name_, impl_.config(), impl_.pool(),
                                         impl_.known(), CloneTag{});
  }

  /// Standard MPass.
  static core::MpassConfig default_config();
  /// Table V ablation: modify every section *except* code/data.
  static core::MpassConfig other_sec_config();
  /// Table VI ablation: random bytes at the same positions, no optimization.
  static core::MpassConfig random_data_config();
  /// Fig. 4 ablation: shuffle strategy disabled.
  static core::MpassConfig no_shuffle_config();

 private:
  static std::vector<std::unique_ptr<ml::ByteConvNet>> clone_all(
      std::span<ml::ByteConvNet* const> nets) {
    std::vector<std::unique_ptr<ml::ByteConvNet>> out;
    out.reserve(nets.size());
    for (ml::ByteConvNet* n : nets)
      out.push_back(std::make_unique<ml::ByteConvNet>(*n));
    return out;
  }
  static std::vector<ml::ByteConvNet*> raw(
      const std::vector<std::unique_ptr<ml::ByteConvNet>>& owned) {
    std::vector<ml::ByteConvNet*> out;
    out.reserve(owned.size());
    for (const auto& n : owned) out.push_back(n.get());
    return out;
  }

  std::string name_;
  std::vector<std::unique_ptr<ml::ByteConvNet>> owned_;
  core::Mpass impl_;
};

}  // namespace mpass::attack
