#include "pack/packer.hpp"

#include "isa/isa.hpp"
#include "pe/import.hpp"
#include "pe/pe.hpp"
#include "util/compress.hpp"
#include "util/rng.hpp"
#include "vm/api.hpp"

namespace mpass::pack {

using isa::Assembler;
using isa::Reg;
using util::ByteBuf;

namespace {

struct Style {
  std::string_view sec0;        // placeholder section name
  std::string_view sec1;        // stub+blob section name
  bool compress = true;         // LZSS vs rolling-XOR
  int lead_nops = 0;            // stub decoration (fixed per packer)
};

Style style_of(PackerKind kind) {
  switch (kind) {
    case PackerKind::UpxLike:
      return {"UPX0", "UPX1", true, 2};
    case PackerKind::PespinLike:
      return {".spin0", ".spin1", false, 5};
    case PackerKind::AspackLike:
      return {".adata", ".aspack", true, 8};
  }
  return {"PACK0", "PACK1", true, 0};
}

struct Region {
  std::uint32_t dest_rva = 0;
  std::uint32_t raw_len = 0;
  ByteBuf encoded;
};

constexpr std::uint32_t kXorKeyBase = 0x5A;
constexpr std::uint32_t kXorKeyStep = 13;

/// Emits the rolling-XOR decoder subroutine.
/// Calling convention: r4 = src VA, r5 = dst VA, r6 = dst end VA.
void emit_xor_decoder(Assembler& a) {
  a.movi(Reg::r7, kXorKeyBase);
  const auto loop = a.make_label();
  const auto body = a.make_label();
  const auto done = a.make_label();
  a.bind(loop);
  a.jlt(Reg::r5, Reg::r6, body);
  a.jmp(done);
  a.bind(body);
  a.loadb(Reg::r0, Reg::r4);
  a.xor_(Reg::r0, Reg::r7);
  a.storeb(Reg::r5, Reg::r0);
  a.movi(Reg::r1, kXorKeyStep);
  a.add(Reg::r7, Reg::r1);
  a.movi(Reg::r1, 0xFF);
  a.and_(Reg::r7, Reg::r1);
  a.movi(Reg::r1, 1);
  a.add(Reg::r4, Reg::r1);
  a.add(Reg::r5, Reg::r1);
  a.jmp(loop);
  a.bind(done);
  a.ret();
}

/// Emits the LZSS decoder subroutine (matches util::lzss_compress tokens;
/// caller must point r4 past the 8-byte MLZ1 header).
/// Calling convention: r4 = token stream VA, r5 = dst VA, r6 = dst end VA.
void emit_lzss_decoder(Assembler& a) {
  const auto loop = a.make_label();
  const auto cont = a.make_label();
  const auto have_flags = a.make_label();
  const auto match = a.make_label();
  const auto copy_loop = a.make_label();
  const auto done = a.make_label();

  a.movi(Reg::r7, 1);  // flags register: 1 == empty, reload
  a.bind(loop);
  a.jlt(Reg::r5, Reg::r6, cont);
  a.jmp(done);
  a.bind(cont);
  // Reload the flag byte when exhausted (r7 == 1 sentinel).
  a.movr(Reg::r1, Reg::r7);
  a.movi(Reg::r0, 1);
  a.sub(Reg::r1, Reg::r0);
  a.jnz(Reg::r1, have_flags);
  a.loadb(Reg::r7, Reg::r4);
  a.movi(Reg::r0, 0x100);
  a.or_(Reg::r7, Reg::r0);
  a.movi(Reg::r0, 1);
  a.add(Reg::r4, Reg::r0);
  a.bind(have_flags);
  // bit = r7 & 1; r7 >>= 1.
  a.movr(Reg::r1, Reg::r7);
  a.movi(Reg::r0, 1);
  a.and_(Reg::r1, Reg::r0);
  a.shr(Reg::r7, Reg::r0);
  a.jnz(Reg::r1, match);
  // Literal byte.
  a.loadb(Reg::r2, Reg::r4);
  a.storeb(Reg::r5, Reg::r2);
  a.movi(Reg::r0, 1);
  a.add(Reg::r4, Reg::r0);
  a.add(Reg::r5, Reg::r0);
  a.jmp(loop);
  a.bind(match);
  // token = u16 LE at [r4]; r4 += 2.
  a.loadb(Reg::r2, Reg::r4);
  a.movr(Reg::r3, Reg::r4);
  a.movi(Reg::r0, 1);
  a.add(Reg::r3, Reg::r0);
  a.loadb(Reg::r3, Reg::r3);
  a.movi(Reg::r0, 8);
  a.shl(Reg::r3, Reg::r0);
  a.or_(Reg::r2, Reg::r3);
  a.movi(Reg::r0, 2);
  a.add(Reg::r4, Reg::r0);
  // off = (token >> 4) + 1 in r3; len = (token & 0xF) + 3 in r2.
  a.movr(Reg::r3, Reg::r2);
  a.movi(Reg::r0, 4);
  a.shr(Reg::r3, Reg::r0);
  a.movi(Reg::r0, 1);
  a.add(Reg::r3, Reg::r0);
  a.movi(Reg::r0, 0xF);
  a.and_(Reg::r2, Reg::r0);
  a.movi(Reg::r0, 3);
  a.add(Reg::r2, Reg::r0);
  // copy len bytes from (r5 - off).
  a.bind(copy_loop);
  a.jz(Reg::r2, loop);
  a.movr(Reg::r1, Reg::r5);
  a.sub(Reg::r1, Reg::r3);
  a.loadb(Reg::r0, Reg::r1);
  a.storeb(Reg::r5, Reg::r0);
  a.movi(Reg::r1, 1);
  a.add(Reg::r5, Reg::r1);
  a.sub(Reg::r2, Reg::r1);
  a.jmp(copy_loop);
  a.bind(done);
  a.ret();
}

}  // namespace

std::string_view packer_name(PackerKind kind) {
  switch (kind) {
    case PackerKind::UpxLike: return "UPX";
    case PackerKind::PespinLike: return "PESpin";
    case PackerKind::AspackLike: return "ASPack";
  }
  return "packer";
}

std::optional<ByteBuf> pack(PackerKind kind,
                            std::span<const std::uint8_t> input) {
  pe::PeFile orig;
  try {
    orig = pe::PeFile::parse(input);
  } catch (const util::ParseError&) {
    return std::nullopt;
  }
  if (orig.sections.empty()) return std::nullopt;

  const Style style = style_of(kind);

  // Encode each non-empty section.
  std::vector<Region> regions;
  for (const pe::Section& s : orig.sections) {
    if (s.data.empty()) continue;
    Region r;
    r.dest_rva = s.vaddr;
    r.raw_len = static_cast<std::uint32_t>(s.data.size());
    if (style.compress) {
      r.encoded = util::lzss_compress(s.data);
    } else {
      r.encoded = s.data;
      std::uint32_t key = kXorKeyBase;
      for (auto& b : r.encoded) {
        b ^= static_cast<std::uint8_t>(key);
        key = (key + kXorKeyStep) & 0xFF;
      }
    }
    regions.push_back(std::move(r));
  }
  if (regions.empty()) return std::nullopt;

  const std::uint32_t span =
      orig.size_of_image() > 0x1000 ? orig.size_of_image() - 0x1000 : 0x1000;

  pe::PeFile packed;
  packed.machine = orig.machine;
  packed.timestamp = orig.timestamp;
  packed.image_base = orig.image_base;
  packed.section_align = orig.section_align;
  packed.file_align = orig.file_align;
  packed.subsystem = orig.subsystem;
  packed.dos_stub = orig.dos_stub;

  // Placeholder the stub unpacks into (covers all original section RVAs).
  packed.sections.push_back(
      {std::string(style.sec0), 0x1000, span,
       pe::kScnUninitializedData | pe::kScnMemRead | pe::kScnMemWrite |
           pe::kScnMemExecute,
       {}});
  const std::uint32_t stub_rva = packed.next_free_rva();
  const std::uint32_t stub_va = packed.image_base + stub_rva;

  // Two-pass stub assembly: blob VAs depend on the stub code size, which is
  // itself VA-independent.
  auto emit_stub = [&](std::uint32_t blob_base_va) {
    Assembler a;
    for (int i = 0; i < style.lead_nops; ++i) a.nop();
    // Make the unpack window writable+executable.
    a.movi(Reg::r0, packed.image_base + 0x1000);
    a.movi(Reg::r1, span);
    a.movi(Reg::r2, 3);
    a.sys(static_cast<std::uint16_t>(vm::Api::VProtect));
    const auto decoder = a.make_label();
    std::uint32_t blob_off = 0;
    for (const Region& r : regions) {
      const std::uint32_t skip = style.compress ? 8u : 0u;  // MLZ1 header
      a.movi(Reg::r4, blob_base_va + blob_off + skip);
      a.movi(Reg::r5, packed.image_base + r.dest_rva);
      a.movi(Reg::r6, packed.image_base + r.dest_rva + r.raw_len);
      a.call(decoder);
      blob_off += static_cast<std::uint32_t>(r.encoded.size());
    }
    a.jmp_va(packed.image_base + orig.entry_point);
    a.bind(decoder);
    if (style.compress)
      emit_lzss_decoder(a);
    else
      emit_xor_decoder(a);
    return a;
  };

  const std::size_t code_size = emit_stub(0).finish(stub_va).size();
  const std::uint32_t blob_base_va =
      stub_va + util::align_up(static_cast<std::uint32_t>(code_size), 4);
  ByteBuf stub_bytes = emit_stub(blob_base_va).finish(stub_va);
  stub_bytes.resize(util::align_up(static_cast<std::uint32_t>(code_size), 4),
                    0);
  for (const Region& r : regions)
    stub_bytes.insert(stub_bytes.end(), r.encoded.begin(), r.encoded.end());

  packed.add_section(style.sec1, std::move(stub_bytes),
                     pe::kScnCode | pe::kScnMemRead | pe::kScnMemExecute);
  packed.entry_point = stub_rva;

  // Packers keep a minimal import table.
  const std::vector<pe::Import> imports = {
      {static_cast<std::uint16_t>(vm::Api::VProtect), "VProtect"},
      {static_cast<std::uint16_t>(vm::Api::ExitProcess), "ExitProcess"},
  };
  pe::attach_import_section(packed, imports);

  packed.overlay = orig.overlay;
  return packed.build();
}

}  // namespace mpass::pack
