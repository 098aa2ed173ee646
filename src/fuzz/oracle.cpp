#include "fuzz/oracle.hpp"

#include <algorithm>
#include <cstdio>

#include "ml/byteconv.hpp"
#include "obs/span.hpp"
#include "pe/import.hpp"
#include "pe/pe.hpp"
#include "util/rng.hpp"
#include "vm/sandbox.hpp"

namespace mpass::fuzz {

using util::ByteBuf;

namespace {

/// Upper bound on a recovery section built from a 16-byte region with small
/// gaps: generous, but far below the multi-GB output a gap underflow emits.
constexpr std::size_t kMaxStubSectionBytes = 32u << 20;

std::string hex32(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string_view kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::UnexpectedException: return "unexpected_exception";
    case ViolationKind::BuildFailed: return "build_failed";
    case ViolationKind::NonDeterministicBuild: return "nondeterministic_build";
    case ViolationKind::LayoutMismatch: return "layout_mismatch";
    case ViolationKind::ReparseFailed: return "reparse_failed";
    case ViolationKind::RoundTripUnstable: return "roundtrip_unstable";
    case ViolationKind::ChecksumMismatch: return "checksum_mismatch";
    case ViolationKind::RvaLookupMismatch: return "rva_lookup_mismatch";
    case ViolationKind::StubOptionsNotRejected: return "stub_options_not_rejected";
    case ViolationKind::StubBuildFailed: return "stub_build_failed";
    case ViolationKind::FunctionalityBroken: return "functionality_broken";
    case ViolationKind::IncrementalScoreMismatch:
      return "incremental_score_mismatch";
  }
  return "unknown";
}

std::vector<Violation> check_pe_invariants(
    std::span<const std::uint8_t> input) {
  OBS_SCOPE("fuzz.oracle.pe");
  std::vector<Violation> out;
  const auto fail = [&](ViolationKind kind, std::string msg) {
    out.push_back({kind, std::move(msg)});
  };

  // looks_like_pe is a pure predicate: any exception is a bug.
  try {
    (void)pe::PeFile::looks_like_pe(input);
  } catch (const std::exception& e) {
    fail(ViolationKind::UnexpectedException,
         std::string("looks_like_pe threw: ") + e.what());
  }

  pe::PeFile f;
  try {
    f = pe::PeFile::parse(input);
  } catch (const util::ParseError&) {
    return out;  // clean rejection
  } catch (const std::exception& e) {
    fail(ViolationKind::UnexpectedException,
         std::string("parse threw non-ParseError: ") + e.what());
    return out;
  }

  // Tolerant import reading must be total on any parsed file.
  try {
    (void)pe::read_imports(f);
  } catch (const std::exception& e) {
    fail(ViolationKind::UnexpectedException,
         std::string("read_imports threw: ") + e.what());
  }

  // build() is total and deterministic on parsed files.
  pe::Layout layout;
  ByteBuf b1;
  try {
    b1 = f.build_with_layout(&layout);
    if (f.build() != b1) {
      fail(ViolationKind::NonDeterministicBuild,
           "two build() calls disagree");
      return out;
    }
  } catch (const std::exception& e) {
    fail(ViolationKind::BuildFailed, std::string("build threw: ") + e.what());
    return out;
  }

  // Layout must describe the emitted bytes exactly.
  if (layout.file_size != b1.size())
    fail(ViolationKind::LayoutMismatch,
         "file_size=" + hex32(layout.file_size) + " built=" + hex32(b1.size()));
  if (static_cast<std::uint64_t>(layout.overlay_offset) + f.overlay.size() !=
      b1.size())
    fail(ViolationKind::LayoutMismatch,
         "overlay_offset=" + hex32(layout.overlay_offset) + " overlay=" +
             hex32(f.overlay.size()) + " built=" + hex32(b1.size()));
  if (layout.sections.size() != f.sections.size()) {
    fail(ViolationKind::LayoutMismatch, "layout section count mismatch");
  } else {
    for (std::size_t i = 0; i < f.sections.size(); ++i) {
      const auto& range = layout.sections[i];
      const ByteBuf& data = f.sections[i].data;
      if (range.raw_size == 0) continue;
      if (static_cast<std::uint64_t>(range.file_offset) + range.raw_size >
              b1.size() ||
          data.size() > range.raw_size) {
        fail(ViolationKind::LayoutMismatch,
             "section " + std::to_string(i) + " range out of file");
        continue;
      }
      if (!std::equal(data.begin(), data.end(),
                      b1.begin() + range.file_offset))
        fail(ViolationKind::LayoutMismatch,
             "section " + std::to_string(i) + " bytes not at layout offset");
      if (layout.section_of(range.file_offset) != i ||
          layout.section_of(range.file_offset + range.raw_size - 1) != i)
        fail(ViolationKind::LayoutMismatch,
             "section_of disagrees for section " + std::to_string(i));
    }
    if (layout.headers_size > 0 && layout.section_of(0).has_value())
      fail(ViolationKind::LayoutMismatch, "section_of(0) inside headers");
  }

  // section_by_rva must return a section actually containing the RVA.
  for (std::size_t i = 0; i < f.sections.size(); ++i) {
    const pe::Section& s = f.sections[i];
    const auto hit = f.section_by_rva(s.vaddr);
    if (!hit.has_value()) {
      fail(ViolationKind::RvaLookupMismatch,
           "section_by_rva missed vaddr of section " + std::to_string(i));
      continue;
    }
    const pe::Section& h = f.sections[*hit];
    const std::uint32_t span = std::max(
        std::max(h.vsize, static_cast<std::uint32_t>(h.data.size())), 1u);
    if (!(s.vaddr >= h.vaddr && s.vaddr - h.vaddr < span))
      fail(ViolationKind::RvaLookupMismatch,
           "section_by_rva returned non-containing section " +
               std::to_string(*hit));
  }

  // Round trip: parse(b1) must succeed, and rebuild byte-exactly (build
  // canonicalizes, so the fixpoint must be reached after one trip).
  pe::PeFile g;
  try {
    g = pe::PeFile::parse(b1);
  } catch (const std::exception& e) {
    fail(ViolationKind::ReparseFailed,
         std::string("parse of built file threw: ") + e.what());
    return out;
  }
  ByteBuf b2;
  try {
    b2 = g.build();
  } catch (const std::exception& e) {
    fail(ViolationKind::BuildFailed,
         std::string("rebuild threw: ") + e.what());
    return out;
  }
  if (b2 != b1) {
    std::size_t at = 0;
    const std::size_t n = std::min(b1.size(), b2.size());
    while (at < n && b1[at] == b2[at]) ++at;
    fail(ViolationKind::RoundTripUnstable,
         "sizes " + hex32(b1.size()) + " vs " + hex32(b2.size()) +
             ", first difference at " + hex32(at));
  }

  // Checksum verification from raw bytes.
  try {
    g.update_checksum();
    const ByteBuf bc = g.build();
    const std::uint32_t stored = pe::PeFile::parse(bc).checksum;
    const std::uint32_t recomputed = pe::PeFile::compute_checksum(bc);
    if (stored != g.checksum || recomputed != g.checksum)
      fail(ViolationKind::ChecksumMismatch,
           "stored=" + hex32(stored) + " recomputed=" + hex32(recomputed) +
               " expected=" + hex32(g.checksum));
  } catch (const std::exception& e) {
    fail(ViolationKind::ChecksumMismatch,
         std::string("checksum pipeline threw: ") + e.what());
  }

  return out;
}

std::optional<Violation> check_stub_options(const core::StubOptions& opts) {
  OBS_SCOPE("fuzz.oracle.stub");
  const bool invalid = opts.chunk_items < 1 || opts.max_gap < opts.min_gap;

  const core::RegionPlan region{/*va=*/0x401000, /*len=*/16, /*prot=*/3};
  const ByteBuf key(16, 0x5A);
  const ByteBuf filler(64, 0x90);
  util::Rng rng(7);
  try {
    const core::RecoverySection sec = core::build_recovery_section(
        {&region, 1}, {&key, 1}, /*section_va=*/0x405000, /*oep_va=*/0x401000,
        filler, opts, rng);
    if (invalid)
      return Violation{ViolationKind::StubOptionsNotRejected,
                       "invalid StubOptions built a section of " +
                           std::to_string(sec.data.size()) + " bytes"};
    if (sec.data.size() > kMaxStubSectionBytes)
      return Violation{ViolationKind::StubBuildFailed,
                       "oversized section: " +
                           std::to_string(sec.data.size()) + " bytes"};
  } catch (const std::invalid_argument&) {
    if (!invalid)
      return Violation{ViolationKind::StubBuildFailed,
                       "valid StubOptions rejected"};
  } catch (const std::exception& e) {
    return Violation{ViolationKind::StubBuildFailed,
                     std::string("unexpected exception: ") + e.what()};
  }
  return std::nullopt;
}

std::optional<Violation> check_attack_preserves(
    std::span<const std::uint8_t> malware,
    std::span<const std::uint8_t> donor, const core::ModificationConfig& cfg,
    std::uint64_t seed) {
  OBS_SCOPE("fuzz.oracle.attack");
  util::Rng rng(seed);
  core::ModifiedSample mod;
  try {
    mod = core::apply_modification(malware, donor, cfg, rng);
  } catch (const std::exception& e) {
    return Violation{ViolationKind::FunctionalityBroken,
                     std::string("apply_modification threw: ") + e.what()};
  }

  const ByteBuf original(malware.begin(), malware.end());
  const vm::Sandbox sandbox;
  if (!sandbox.functionality_preserved(original, mod.bytes))
    return Violation{ViolationKind::FunctionalityBroken,
                     "fresh modification changed the behavior trace"};

  // Perturb a spread of optimizable bytes; set_byte must co-update keys so
  // behavior is still identical (paper Eq. 2's M*delta constraint).
  if (!mod.perturbable.empty()) {
    const std::size_t writes =
        std::min<std::size_t>(mod.perturbable.size(), 256);
    for (std::size_t i = 0; i < writes; ++i) {
      const std::uint32_t p =
          mod.perturbable[rng.below(mod.perturbable.size())];
      mod.set_byte(p, rng.byte());
    }
    if (!sandbox.functionality_preserved(original, mod.bytes))
      return Violation{ViolationKind::FunctionalityBroken,
                       "perturbing optimizable bytes changed the trace"};
  }
  return std::nullopt;
}

std::optional<Violation> check_incremental_forward(
    std::span<const std::uint8_t> input, std::uint64_t seed) {
  OBS_SCOPE("fuzz.oracle.incremental");
  util::Rng rng(seed);

  // Small net so the full-forward reference stays cheap; the seed picks the
  // architecture variant so gated, relu and channel-gated (MalGCG) pool
  // repair paths all get fuzzed over time.
  ml::ByteConvConfig cfg;
  cfg.max_len = 2048;
  cfg.embed_dim = 4;
  cfg.filters = 8;
  cfg.width = 16;
  cfg.stride = 8;
  cfg.hidden = 8;
  cfg.channel_gating = (seed & 1) != 0;
  cfg.gated = cfg.channel_gating || ((seed >> 1) & 1) != 0;

  ml::ByteConvNet inc(cfg, seed);
  ml::ByteConvNet ref(inc);  // identical parameters, independent caches

  const auto mismatch = [&](std::string_view where, float got, float want) {
    return Violation{
        ViolationKind::IncrementalScoreMismatch,
        std::string(where) + ": incremental=" + std::to_string(got) +
            " full=" + std::to_string(want) +
            (cfg.channel_gating ? " [channel_gating]"
                                : (cfg.gated ? " [gated]" : " [relu]"))};
  };

  ByteBuf buf(input.begin(), input.end());
  if (buf.empty()) {
    buf.resize(64);
    for (auto& x : buf) x = rng.byte();
  }
  if (inc.forward_auto(buf) != ref.forward(buf))
    return mismatch("base", inc.forward_auto(buf), ref.forward(buf));

  // Cumulative random window edits; some straddle the max_len truncation
  // boundary or fall entirely past it (must be no-ops on the score).
  for (int i = 0; i < 16; ++i) {
    const std::size_t pos = rng.below(buf.size());
    const std::size_t len =
        std::min<std::size_t>(1 + rng.below(64), buf.size() - pos);
    for (std::size_t j = 0; j < len; ++j) buf[pos + j] = rng.byte();
    const float f = ref.forward(buf);
    const float a = inc.forward_auto(buf);
    if (a != f) return mismatch("forward_auto edit " + std::to_string(i), a, f);
  }

  // Independent candidates against one base, the query-attack pattern:
  // each variant differs from the previously scored one in two windows
  // (the last edit reverted, the new one applied).
  for (int i = 0; i < 8; ++i) {
    ByteBuf variant = buf;
    const std::size_t pos = rng.below(variant.size());
    const std::size_t len =
        std::min<std::size_t>(1 + rng.below(48), variant.size() - pos);
    for (std::size_t j = 0; j < len; ++j) variant[pos + j] = rng.byte();
    const float f = ref.forward(variant);
    const float a = inc.forward_auto(variant);
    if (a != f) return mismatch("candidate " + std::to_string(i), a, f);
  }
  if (inc.forward_auto(buf) != ref.forward(buf))
    return mismatch("restored base", inc.forward_auto(buf), ref.forward(buf));

  // Scattered single-byte writes until more than half the consumed tokens
  // differ (all of them below one window), scored as one many-range
  // delta; then a random suffix of the writes is reverted, newest first,
  // as the optimizer's rollback does, and scored again.
  const std::size_t n = std::min(buf.size(), cfg.max_len);
  const std::size_t n_tok = std::max<std::size_t>(n, cfg.width);
  const ByteBuf before = buf;
  std::vector<std::size_t> written;  // positions, oldest first
  while (written.size() < std::min(n, n_tok / 2 + 1)) {
    const std::size_t p = rng.below(n);
    if (buf[p] != before[p]) continue;  // already written
    buf[p] = static_cast<std::uint8_t>(buf[p] ^ (1 + rng.below(255)));
    written.push_back(p);
  }
  if (inc.forward_auto(buf) != ref.forward(buf))
    return mismatch("scattered writes", inc.forward_auto(buf),
                    ref.forward(buf));
  const std::size_t keep = rng.below(written.size() + 1);
  for (; written.size() > keep; written.pop_back())
    buf[written.back()] = before[written.back()];
  if (inc.forward_auto(buf) != ref.forward(buf))
    return mismatch("rollback", inc.forward_auto(buf), ref.forward(buf));

  return std::nullopt;
}

}  // namespace mpass::fuzz
