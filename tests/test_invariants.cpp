// Cross-module invariant tests: the algebraic guarantees the attack relies
// on, checked directly (not just via end-to-end sandbox runs).
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/modification.hpp"
#include "core/optimizer.hpp"
#include "corpus/generator.hpp"
#include "detectors/models.hpp"
#include "detectors/training.hpp"
#include "isa/isa.hpp"
#include "pe/pe.hpp"

namespace mpass::core {
namespace {

using util::ByteBuf;

/// Recomputes x = b - k for every coupled byte of a modified sample and
/// compares with the original file's section content.
void check_recovery_algebra(const ByteBuf& original,
                            const ModifiedSample& mod) {
  pe::PeFile orig = pe::PeFile::parse(original);
  pe::Layout orig_layout;
  orig.build_with_layout(&orig_layout);
  pe::PeFile modified = pe::PeFile::parse(mod.bytes);
  pe::Layout mod_layout;
  modified.build_with_layout(&mod_layout);

  std::size_t checked = 0;
  for (std::uint32_t pos = 0; pos < mod.key_of.size(); ++pos) {
    const std::uint32_t key_pos = mod.key_of[pos];
    if (key_pos == ModifiedSample::kNoKey) continue;
    // Which original section byte does `pos` correspond to?
    const auto sec = mod_layout.section_of(pos);
    ASSERT_TRUE(sec.has_value());
    const std::uint32_t off = pos - mod_layout.sections[*sec].file_offset;
    ASSERT_LT(*sec, orig.sections.size());
    ASSERT_LT(off, orig.sections[*sec].data.size());
    const std::uint8_t x = orig.sections[*sec].data[off];
    const std::uint8_t b = mod.bytes[pos];
    const std::uint8_t k = mod.bytes[key_pos];
    EXPECT_EQ(static_cast<std::uint8_t>(b - k), x)
        << "position " << pos;
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
}

TEST(Invariants, RecoveryAlgebraHoldsAfterModification) {
  const ByteBuf original = corpus::make_malware(111).bytes();
  const ByteBuf donor = corpus::make_benign(222).bytes();
  util::Rng rng(3);
  const ModifiedSample mod =
      apply_modification(original, donor, ModificationConfig{}, rng);
  check_recovery_algebra(original, mod);
}

TEST(Invariants, RecoveryAlgebraSurvivesRandomPerturbation) {
  const ByteBuf original = corpus::make_malware(112).bytes();
  const ByteBuf donor = corpus::make_benign(223).bytes();
  util::Rng rng(5);
  ModifiedSample mod =
      apply_modification(original, donor, ModificationConfig{}, rng);
  for (int i = 0; i < 2000; ++i)
    mod.set_byte(mod.perturbable[rng.below(mod.perturbable.size())],
                 rng.byte());
  check_recovery_algebra(original, mod);
}

TEST(Invariants, RecoveryAlgebraSurvivesOptimization) {
  const ByteBuf original = corpus::make_malware(113).bytes();
  const ByteBuf donor = corpus::make_benign(224).bytes();
  util::Rng rng(7);
  ModifiedSample mod =
      apply_modification(original, donor, ModificationConfig{}, rng);

  const corpus::Dataset data = corpus::generate_dataset(950, 16, 16);
  ml::ByteConvConfig cfg;
  cfg.max_len = 8192;
  cfg.embed_dim = 4;
  cfg.filters = 6;
  cfg.width = 16;
  cfg.stride = 8;
  cfg.hidden = 6;
  detect::ByteConvDetector det("t", cfg, 3);
  detect::NetTrainConfig tc;
  tc.epochs = 2;
  detect::train_net(det, data, tc);

  EnsembleOptimizer opt({&det.net()});
  for (int i = 0; i < 3; ++i) opt.step(mod);
  check_recovery_algebra(original, mod);
}

TEST(Invariants, StubKeyReferencesPointIntoKeyBlock) {
  // Decode the recovery stub and verify every movi whose immediate lands in
  // the new section points at the key block or a region VA.
  const corpus::CompiledSample s = corpus::make_malware(114);
  const ByteBuf original = s.bytes();
  const ByteBuf donor = corpus::make_benign(225).bytes();
  util::Rng rng(9);
  ModificationConfig cfg;
  cfg.stub.shuffle = false;  // contiguous stub decodes linearly
  const ModifiedSample mod =
      apply_modification(original, donor, cfg, rng);

  const pe::PeFile modified = pe::PeFile::parse(mod.bytes);
  const pe::Section& stub_sec = modified.sections.back();
  const std::uint32_t entry_off = modified.entry_point - stub_sec.vaddr;
  util::ByteReader r({stub_sec.data.data() + entry_off,
                      stub_sec.data.size() - entry_off});
  const std::uint32_t sec_lo = modified.image_base + stub_sec.vaddr;
  const std::uint32_t sec_hi =
      sec_lo + static_cast<std::uint32_t>(stub_sec.data.size());
  int key_refs = 0;
  try {
    for (int i = 0; i < 400 && !r.eof(); ++i) {
      const isa::Instr in = isa::decode(r);
      if (in.op == isa::Op::Movi && in.imm >= sec_lo && in.imm < sec_hi)
        ++key_refs;
    }
  } catch (const util::ParseError&) {
  }
  // One key-cursor movi per encoded region (code + data sections).
  EXPECT_GE(key_refs, 2);
}

TEST(Invariants, PerturbableNeverOverlapsKeysOrHeadersStructure) {
  const ByteBuf original = corpus::make_malware(115).bytes();
  const ByteBuf donor = corpus::make_benign(226).bytes();
  util::Rng rng(11);
  const ModifiedSample mod =
      apply_modification(original, donor, ModificationConfig{}, rng);
  // No perturbable position may be a key byte of another position: keys are
  // dependent variables, not free ones.
  std::unordered_set<std::uint32_t> keys;
  for (const std::uint32_t key : mod.key_of)
    if (key != ModifiedSample::kNoKey) keys.insert(key);
  for (std::uint32_t p : mod.perturbable)
    EXPECT_FALSE(keys.contains(p)) << p;
  // The PE signature and section table structure must stay parseable after
  // arbitrary writes to perturbable positions.
  ModifiedSample hammered = mod;
  for (std::uint32_t p : hammered.perturbable) hammered.set_byte(p, 0xFF);
  EXPECT_NO_THROW(pe::PeFile::parse(hammered.bytes));
}

TEST(Invariants, AprScalesWithFillerRatio) {
  const ByteBuf original = corpus::make_malware(116).bytes();
  const ByteBuf donor = corpus::make_benign(227).bytes();
  util::Rng rng1(13), rng2(13);
  ModificationConfig small;
  small.filler_ratio = 0.1;
  small.push_keys_beyond = 0;
  ModificationConfig large;
  large.filler_ratio = 1.0;
  large.push_keys_beyond = 0;
  const ModifiedSample a = apply_modification(original, donor, small, rng1);
  const ModifiedSample b = apply_modification(original, donor, large, rng2);
  EXPECT_LT(a.apr, b.apr);
}

TEST(Invariants, PushKeysBeyondMovesKeyBlockPastWindow) {
  const ByteBuf original = corpus::make_malware(117).bytes();
  const ByteBuf donor = corpus::make_benign(228).bytes();
  util::Rng rng(17);
  ModificationConfig cfg;
  cfg.push_keys_beyond = 16384;
  const ModifiedSample mod =
      apply_modification(original, donor, cfg, rng);
  // Every key byte must sit at file offset >= 16384.
  for (const std::uint32_t key : mod.key_of) {
    if (key == ModifiedSample::kNoKey) continue;
    EXPECT_GE(key, 16384u);
  }
}

}  // namespace
}  // namespace mpass::core
