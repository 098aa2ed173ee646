// GAMMA: genetic benign-section injection (Demetrio et al., IEEE TIFS 2021
// -- reference [16] of the paper), adapted to the hard-label setting.
//
// A genome selects which sections harvested from benign donor programs get
// injected (plus an overlay padding gene). A small population evolves by
// tournament selection, crossover and mutation; each evaluation costs one
// hard-label query. Fitness prefers evasion first, smaller payloads second
// -- which still leaves GAMMA with the by-far-largest APR of all attacks
// (Table III), since whole benign sections are injected.
#pragma once

#include "attack/attack.hpp"
#include "pe/pe.hpp"
#include "util/rng.hpp"

namespace mpass::attack {

class Gamma : public Attack {
 public:
  explicit Gamma(std::span<const util::ByteBuf> benign_pool);

  std::string_view name() const override { return "GAMMA"; }

  AttackResult run(std::span<const std::uint8_t> malware,
                   detect::HardLabelOracle& oracle,
                   std::uint64_t seed) override;

  /// Copies the harvested donor-section library.
  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<Gamma>(*this);
  }

 private:
  struct Genome {
    std::vector<bool> use;      // which library sections to inject
    std::uint32_t overlay_pad;  // extra benign overlay bytes
  };

  /// Builds the genome's phenotype from the pre-parsed base PE (parsed once
  /// per run(); every genome evaluation used to re-parse the same malware,
  /// which dominated per-query cost once scoring went incremental).
  util::ByteBuf express(const pe::PeFile& base, const Genome& g) const;

  struct LibSection {
    std::string name;
    util::ByteBuf data;
  };
  std::vector<LibSection> library_;
  util::ByteBuf pad_source_;
};

}  // namespace mpass::attack
