#include "attack/actions.hpp"

#include "corpus/strings.hpp"
#include "pack/packer.hpp"
#include "pe/import.hpp"
#include "pe/pe.hpp"
#include "util/hashing.hpp"
#include "vm/api.hpp"

namespace mpass::attack {

using util::ByteBuf;

std::string_view action_name(Action a) {
  switch (a) {
    case Action::AppendOverlay: return "append_overlay";
    case Action::AddBenignSection: return "add_benign_section";
    case Action::RenameSections: return "rename_sections";
    case Action::SetTimestamp: return "set_timestamp";
    case Action::AppendImports: return "append_imports";
    case Action::UpxPack: return "upx_pack";
    case Action::RemoveOverlay: return "remove_overlay";
    case Action::kCount: break;
  }
  return "?";
}

bool is_risky(Action a) { return a == Action::RemoveOverlay; }

namespace {

/// Picks a content chunk from the attack's fixed benign-content library.
/// Like the real tools (gym-malware and MAB-malware ship a fixed folder of
/// benign sections/strings), the library is a small deterministic set of
/// slices -- the recurring artifact the Fig. 4 vendor learning latches onto.
ByteBuf donor_chunk(std::span<const ByteBuf> pool, std::size_t len,
                    util::Rng& rng) {
  ByteBuf out(len);
  if (pool.empty()) return out;
  constexpr std::size_t kLibrarySlots = 12;
  const std::size_t slot = rng.below(kLibrarySlots);
  const ByteBuf& donor = pool[slot % pool.size()];
  if (donor.empty()) return out;
  // Fixed per-slot start offset (deterministic library content).
  const std::size_t start =
      (util::hash_combine(0xB16B00B5, slot) % std::max<std::size_t>(
           donor.size(), 1));
  for (std::size_t i = 0; i < len; ++i)
    out[i] = donor[(start + i) % donor.size()];
  return out;
}

}  // namespace

std::optional<ByteBuf> apply_action(Action action,
                                    std::span<const std::uint8_t> file,
                                    std::span<const ByteBuf> benign_pool,
                                    util::Rng& rng) {
  pe::PeFile pe;
  try {
    pe = pe::PeFile::parse(file);
  } catch (const util::ParseError&) {
    return std::nullopt;
  }

  switch (action) {
    case Action::AppendOverlay: {
      const std::size_t n = static_cast<std::size_t>(rng.range(512, 4096));
      ByteBuf chunk = donor_chunk(benign_pool, n, rng);
      pe.overlay.insert(pe.overlay.end(), chunk.begin(), chunk.end());
      return pe.build();
    }

    case Action::AddBenignSection: {
      if (pe.sections.size() >= 24) return std::nullopt;
      const std::size_t n = static_cast<std::size_t>(rng.range(1024, 8192));
      const auto names = corpus::benign_section_names();
      pe.add_section(names[rng.below(names.size())],
                     donor_chunk(benign_pool, n, rng),
                     pe::kScnInitializedData | pe::kScnMemRead);
      return pe.build();
    }

    case Action::RenameSections: {
      const auto names = corpus::benign_section_names();
      for (pe::Section& s : pe.sections)
        if (rng.chance(0.5))
          s.name = std::string(names[rng.below(names.size())]);
      return pe.build();
    }

    case Action::SetTimestamp:
      pe.timestamp = static_cast<std::uint32_t>(rng.range(0x40000000,
                                                          0x65000000));
      return pe.build();

    case Action::AppendImports: {
      // Grow the import blob in place -- only if the section has VA slack.
      const pe::DataDirectory& dir = pe.dirs[pe::kDirImport];
      if (dir.rva == 0) return std::nullopt;
      const auto si = pe.section_by_rva(dir.rva);
      if (!si) return std::nullopt;
      pe::Section& sec = pe.sections[*si];
      std::vector<pe::Import> imports = pe::read_imports(pe);
      if (imports.empty()) return std::nullopt;
      const auto benign = vm::benign_apis();
      const int extra = static_cast<int>(rng.range(1, 4));
      for (int i = 0; i < extra; ++i) {
        const std::uint16_t id = benign[rng.below(benign.size())];
        imports.push_back({id, std::string(vm::api_name(id))});
      }
      ByteBuf blob = pe::encode_imports(imports);
      // The rebuilt blob must fit before the next section's RVA.
      std::uint32_t next_va = 0xFFFFFFFF;
      for (const pe::Section& s : pe.sections)
        if (s.vaddr > sec.vaddr) next_va = std::min(next_va, s.vaddr);
      const std::uint32_t off = dir.rva - sec.vaddr;
      if (sec.vaddr + off + blob.size() > next_va) return std::nullopt;
      if (off + blob.size() > sec.data.size())
        sec.data.resize(off + blob.size());
      std::copy(blob.begin(), blob.end(), sec.data.begin() + off);
      sec.vsize = std::max<std::uint32_t>(
          sec.vsize, off + static_cast<std::uint32_t>(blob.size()));
      pe.dirs[pe::kDirImport].size = static_cast<std::uint32_t>(blob.size());
      return pe.build();
    }

    case Action::UpxPack: {
      // The packer takes no randomness. The draw is kept because every
      // later action of the run, and so every recorded AE, depends on the
      // RNG's position after it.
      rng();
      auto packed = pack::pack(pack::PackerKind::UpxLike, file);
      if (!packed) return std::nullopt;
      return *packed;
    }

    case Action::RemoveOverlay: {
      if (pe.overlay.empty()) return std::nullopt;
      pe.overlay.clear();
      return pe.build();
    }

    case Action::kCount:
      break;
  }
  return std::nullopt;
}

std::uint64_t state_fingerprint(std::span<const std::uint8_t> file) {
  pe::PeFile pe;
  try {
    pe = pe::PeFile::parse(file);
  } catch (const util::ParseError&) {
    return 0;
  }
  std::uint64_t h = 0x5157;
  h = util::hash_combine(h, pe.sections.size());
  h = util::hash_combine(h, pe.overlay.empty() ? 0 : 1);
  h = util::hash_combine(h, file.size() / 8192);  // coarse size bucket
  h = util::hash_combine(h, pe::read_imports(pe).size() / 4);
  return h;
}

}  // namespace mpass::attack
