// Tests for the LZSS codec and the packer obfuscators.
#include <gtest/gtest.h>

#include "corpus/generator.hpp"
#include "pack/packer.hpp"
#include "pe/import.hpp"
#include "pe/pe.hpp"
#include "util/compress.hpp"
#include "util/entropy.hpp"
#include "util/rng.hpp"
#include "vm/sandbox.hpp"

namespace mpass {
namespace {

using util::ByteBuf;

TEST(Lzss, RoundTripRandomAndStructured) {
  util::Rng rng(1);
  for (std::size_t n : {0ul, 1ul, 7ul, 256ul, 5000ul}) {
    const ByteBuf data = rng.bytes(n);
    EXPECT_EQ(util::lzss_decompress(util::lzss_compress(data)), data);
  }
  // Highly compressible input must actually shrink.
  const ByteBuf rep(8192, 0x41);
  const ByteBuf packed = util::lzss_compress(rep);
  EXPECT_LT(packed.size(), rep.size() / 3);
  EXPECT_EQ(util::lzss_decompress(packed), rep);
  EXPECT_TRUE(util::is_lzss(packed));
  EXPECT_FALSE(util::is_lzss(rep));
}

TEST(Lzss, DecompressRejectsGarbage) {
  util::Rng rng(2);
  EXPECT_THROW(util::lzss_decompress(rng.bytes(64)), util::ParseError);
  // Bad match offset: magic + size, then a match token pointing backwards
  // past the start.
  util::ByteWriter w;
  w.u32(0x315A4C4D);
  w.u32(10);
  w.u8(0x01);        // first item is a match
  w.u16(0xFFF0);     // offset ~4095, nothing decoded yet
  EXPECT_THROW(util::lzss_decompress(w.buffer()), util::ParseError);
}

// Property sweep: every packer preserves runtime behavior on every family.
// The padding is an explicit zeroed member: gtest names each case after the
// parameter's raw bytes, and implicit padding would leak uninitialised bytes
// into the test names, making them change from run to run.
struct PackCase {
  pack::PackerKind kind;
  std::uint32_t pad = 0;
  std::uint64_t seed;
};
static_assert(sizeof(PackCase) == 16);

class PackerPreserves : public ::testing::TestWithParam<PackCase> {};

TEST_P(PackerPreserves, FunctionalityIntact) {
  const PackCase& c = GetParam();
  const ByteBuf orig = corpus::make_malware(c.seed).bytes();
  const auto packed = pack::pack(c.kind, orig);
  ASSERT_TRUE(packed.has_value());
  const vm::Sandbox sandbox;
  EXPECT_TRUE(sandbox.functionality_preserved(orig, *packed));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PackerPreserves,
    ::testing::Values(PackCase{pack::PackerKind::UpxLike, 0, 11},
                      PackCase{pack::PackerKind::UpxLike, 0, 12},
                      PackCase{pack::PackerKind::UpxLike, 0, 13},
                      PackCase{pack::PackerKind::PespinLike, 0, 11},
                      PackCase{pack::PackerKind::PespinLike, 0, 14},
                      PackCase{pack::PackerKind::AspackLike, 0, 11},
                      PackCase{pack::PackerKind::AspackLike, 0, 15}));

TEST(Packer, CarriesCharacteristicArtifacts) {
  const ByteBuf orig = corpus::make_benign(21).bytes();
  const auto packed = pack::pack(pack::PackerKind::UpxLike, orig);
  ASSERT_TRUE(packed.has_value());
  const pe::PeFile f = pe::PeFile::parse(*packed);
  EXPECT_TRUE(f.find_section("UPX0").has_value());
  EXPECT_TRUE(f.find_section("UPX1").has_value());
  // The stub+payload section carries compressed (high-ish entropy) data and
  // the packed file keeps only a minimal import table.
  const auto idx = f.find_section("UPX1");
  EXPECT_GT(util::shannon_entropy(f.sections[*idx].data), 4.0);
  EXPECT_LE(pe::read_imports(f).size(), 3u);
}

TEST(Packer, PreservesOverlay) {
  // Overlay-dependent malware must still find its payload after packing.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const corpus::CompiledSample s = corpus::make_malware(30000 + seed);
    if (!s.meta.overlay_dependent) continue;
    const ByteBuf orig = s.bytes();
    const auto packed = pack::pack(pack::PackerKind::AspackLike, orig);
    ASSERT_TRUE(packed.has_value());
    const pe::PeFile f = pe::PeFile::parse(*packed);
    EXPECT_EQ(f.overlay, s.pe.overlay);
    const vm::Sandbox sandbox;
    EXPECT_TRUE(sandbox.functionality_preserved(orig, *packed));
    return;
  }
  FAIL() << "no overlay-dependent sample found";
}

TEST(Packer, RejectsNonPe) {
  util::Rng rng(5);
  EXPECT_FALSE(pack::pack(pack::PackerKind::UpxLike, rng.bytes(500))
                   .has_value());
}

TEST(Packer, CompressingPackersShrinkRedundantFiles) {
  const ByteBuf orig = corpus::make_benign(33).bytes();
  const auto upx = pack::pack(pack::PackerKind::UpxLike, orig);
  ASSERT_TRUE(upx.has_value());
  EXPECT_LT(upx->size(), orig.size());
}

}  // namespace
}  // namespace mpass
