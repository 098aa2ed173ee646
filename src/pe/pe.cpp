#include "pe/pe.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "util/bytes.hpp"

namespace mpass::pe {

using util::align_up;
using util::ByteReader;
using util::ByteWriter;
using util::ParseError;

namespace {
constexpr std::uint32_t kDosHeaderSize = 64;
constexpr std::uint32_t kCoffSize = 20;
constexpr std::uint32_t kOptSize = 224;  // PE32 with 16 data directories
constexpr std::uint32_t kSectionHeaderSize = 40;
// CheckSum field offset within the optional header (thus e_lfanew + 0x58
// from the start of the file: 4 signature + 20 COFF + 0x40).
constexpr std::uint32_t kChecksumOptOffset = 0x40;
// Hard caps rejected at parse time. The Windows loader refuses images with
// more than 96 sections; alignments must be powers of two (FileAlignment at
// most 64K per spec). Without the caps, hostile headers drive the builder
// into 32-bit align_up overflows and quadratic allocation.
constexpr std::uint16_t kMaxSections = 96;
constexpr std::uint32_t kMaxFileAlign = 0x10000;
constexpr std::uint32_t kMaxSectionAlign = 0x1000000;

constexpr std::uint64_t align_up64(std::uint64_t v, std::uint64_t align) {
  return align == 0 ? v : (v + align - 1) / align * align;
}
}  // namespace

std::optional<std::size_t> Layout::section_of(std::uint32_t off) const {
  for (std::size_t i = 0; i < sections.size(); ++i) {
    // 64-bit end: offset + size near UINT32_MAX must not wrap the bound.
    if (off >= sections[i].file_offset &&
        off < static_cast<std::uint64_t>(sections[i].file_offset) +
                  sections[i].raw_size)
      return i;
  }
  return std::nullopt;
}

bool PeFile::looks_like_pe(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kDosHeaderSize) return false;
  if (util::read_le<std::uint16_t>(bytes.data()) != kDosMagic) return false;
  const std::uint32_t lfanew = util::read_le<std::uint32_t>(bytes.data() + 0x3C);
  // 64-bit arithmetic: lfanew + 4 wraps for lfanew >= 0xFFFFFFFC and would
  // pass the bound, sending the signature read out of bounds.
  if (static_cast<std::uint64_t>(lfanew) + 4 > bytes.size()) return false;
  return util::read_le<std::uint32_t>(bytes.data() + lfanew) == kPeSignature;
}

PeFile PeFile::parse(std::span<const std::uint8_t> bytes) {
  OBS_SCOPE("pe.parse");
  ByteReader r(bytes);
  PeFile out;

  // DOS header: we honor e_magic and e_lfanew; the rest is stub payload.
  if (r.u16() != kDosMagic) throw ParseError("pe: missing MZ magic");
  r.seek(0x3C);
  const std::uint32_t lfanew = r.u32();
  if (lfanew < kDosHeaderSize || lfanew > bytes.size())
    throw ParseError("pe: bad e_lfanew");
  out.dos_stub = ByteBuf(bytes.begin() + kDosHeaderSize,
                         bytes.begin() + lfanew);

  r.seek(lfanew);
  if (r.u32() != kPeSignature) throw ParseError("pe: missing PE signature");

  // COFF header.
  out.machine = r.u16();
  const std::uint16_t nsections = r.u16();
  if (nsections > kMaxSections) throw ParseError("pe: too many sections");
  out.timestamp = r.u32();
  r.u32();  // PointerToSymbolTable
  r.u32();  // NumberOfSymbols
  const std::uint16_t opt_size = r.u16();
  out.coff_characteristics = r.u16();
  if (opt_size < kOptSize) throw ParseError("pe: optional header too small");

  // Optional header (PE32).
  const std::size_t opt_start = r.pos();
  if (r.u16() != kPe32Magic) throw ParseError("pe: not PE32");
  out.linker_major = r.u8();
  out.linker_minor = r.u8();
  r.u32();  // SizeOfCode
  r.u32();  // SizeOfInitializedData
  r.u32();  // SizeOfUninitializedData
  out.entry_point = r.u32();
  r.u32();  // BaseOfCode
  r.u32();  // BaseOfData
  out.image_base = r.u32();
  out.section_align = r.u32();
  out.file_align = r.u32();
  if (out.file_align == 0 || out.section_align == 0)
    throw ParseError("pe: zero alignment");
  if ((out.file_align & (out.file_align - 1)) != 0 ||
      (out.section_align & (out.section_align - 1)) != 0)
    throw ParseError("pe: alignment not a power of two");
  if (out.file_align > kMaxFileAlign || out.section_align > kMaxSectionAlign)
    throw ParseError("pe: alignment too large");
  r.u16(); r.u16();  // OS version
  r.u16(); r.u16();  // image version
  r.u16(); r.u16();  // subsystem version
  r.u32();  // Win32VersionValue
  r.u32();  // SizeOfImage (recomputed on build)
  r.u32();  // SizeOfHeaders (recomputed on build)
  out.checksum = r.u32();
  out.subsystem = r.u16();
  out.dll_characteristics = r.u16();
  r.u32(); r.u32();  // stack reserve/commit
  r.u32(); r.u32();  // heap reserve/commit
  r.u32();  // LoaderFlags
  const std::uint32_t ndirs = r.u32();
  if (ndirs > kNumDirs) throw ParseError("pe: too many data directories");
  for (std::size_t i = 0; i < ndirs; ++i) {
    out.dirs[i].rva = r.u32();
    out.dirs[i].size = r.u32();
  }
  r.seek(opt_start + opt_size);

  // Section table + raw data. raw_end tracks where raw content (headers,
  // section data and their file-alignment padding) stops and the overlay
  // begins. It is aligned up to file_align so the builder's padding is never
  // absorbed into the overlay on reparse (which would grow the file on every
  // round trip), and kept in 64 bits so hostile pointers cannot wrap it.
  std::uint64_t raw_end = align_up64(
      r.pos() + static_cast<std::uint64_t>(nsections) * kSectionHeaderSize,
      out.file_align);
  for (std::uint16_t i = 0; i < nsections; ++i) {
    Section s;
    s.name = r.fixed_string(8);
    s.vsize = r.u32();
    s.vaddr = r.u32();
    const std::uint32_t raw_size = r.u32();
    const std::uint32_t raw_ptr = r.u32();
    r.u32(); r.u32();  // relocations/linenumbers pointers
    r.u16(); r.u16();  // counts
    s.characteristics = r.u32();
    if (raw_size > 0) {
      // 64-bit arithmetic: raw_ptr + raw_size overflows uint32 (e.g.
      // raw_ptr=0xFFFFFF00, raw_size=0x200 wraps to 0x100) and would pass
      // the bound, turning the copy below into an out-of-bounds read.
      const std::uint64_t data_end =
          static_cast<std::uint64_t>(raw_ptr) + raw_size;
      if (data_end > bytes.size())
        throw ParseError("pe: section data out of bounds");
      s.data.assign(bytes.begin() + raw_ptr,
                    bytes.begin() + static_cast<std::ptrdiff_t>(data_end));
      raw_end = std::max(raw_end, align_up64(data_end, out.file_align));
    }
    out.sections.push_back(std::move(s));
  }

  if (raw_end < bytes.size())
    out.overlay = ByteBuf(bytes.begin() + static_cast<std::ptrdiff_t>(raw_end),
                          bytes.end());
  return out;
}

std::uint32_t PeFile::headers_size() const {
  const std::uint32_t raw =
      kDosHeaderSize + static_cast<std::uint32_t>(dos_stub.size()) + 4 +
      kCoffSize + kOptSize +
      static_cast<std::uint32_t>(sections.size()) * kSectionHeaderSize;
  return align_up(raw, file_align);
}

std::uint32_t PeFile::next_free_rva() const {
  std::uint32_t end = align_up(headers_size(), section_align);
  for (const Section& s : sections) {
    // The span uses the file-alignment-padded data size: a reparse reads the
    // padded raw data back into the model, so sizing from the unpadded bytes
    // would grow SizeOfImage across round trips whenever file_align exceeds
    // section_align.
    const std::uint32_t raw =
        align_up(static_cast<std::uint32_t>(s.data.size()), file_align);
    const std::uint32_t span = std::max(s.vsize, raw);
    end = std::max(end, align_up(s.vaddr + std::max(span, 1u), section_align));
  }
  return end;
}

std::uint32_t PeFile::size_of_image() const { return next_free_rva(); }

std::optional<std::size_t> PeFile::find_section(std::string_view name) const {
  for (std::size_t i = 0; i < sections.size(); ++i)
    if (sections[i].name == name) return i;
  return std::nullopt;
}

std::optional<std::size_t> PeFile::section_by_rva(std::uint32_t rva) const {
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    const std::uint32_t span =
        std::max(s.vsize, static_cast<std::uint32_t>(s.data.size()));
    // 64-bit end: a section at vaddr near UINT32_MAX must still contain its
    // own vaddr rather than wrapping the bound to a tiny value.
    if (rva >= s.vaddr &&
        rva < static_cast<std::uint64_t>(s.vaddr) + std::max(span, 1u))
      return i;
  }
  return std::nullopt;
}

std::size_t PeFile::add_section(std::string_view name, ByteBuf data,
                                std::uint32_t characteristics,
                                std::uint32_t extra_vsize) {
  Section s;
  s.name = std::string(name.substr(0, 8));
  s.vaddr = next_free_rva();
  s.vsize = static_cast<std::uint32_t>(data.size()) + extra_vsize;
  s.characteristics = characteristics;
  s.data = std::move(data);
  sections.push_back(std::move(s));
  return sections.size() - 1;
}

ByteBuf PeFile::build() const { return build_with_layout(nullptr); }

ByteBuf PeFile::build_with_layout(Layout* layout) const {
  OBS_SCOPE("pe.build");
  ByteWriter w;

  // ---- DOS header + stub.
  w.u16(kDosMagic);
  // e_cblp..e_ovno and reserved fields: conventional values.
  const std::uint16_t dos_tail[] = {0x90, 0x03, 0x00, 0x04, 0x00, 0xFFFF,
                                    0x00, 0xB8, 0x00, 0x00, 0x00, 0x00,
                                    0x40, 0x00};
  for (std::uint16_t v : dos_tail) w.u16(v);
  w.zeros(0x3C - w.size());
  const std::uint32_t lfanew =
      kDosHeaderSize + static_cast<std::uint32_t>(dos_stub.size());
  w.u32(lfanew);
  w.block(dos_stub);

  // ---- PE signature + COFF.
  w.u32(kPeSignature);
  w.u16(machine);
  w.u16(static_cast<std::uint16_t>(sections.size()));
  w.u32(timestamp);
  w.u32(0);  // PointerToSymbolTable
  w.u32(0);  // NumberOfSymbols
  w.u16(static_cast<std::uint16_t>(kOptSize));
  w.u16(coff_characteristics);

  // ---- Optional header.
  std::uint32_t size_of_code = 0, size_of_idata = 0, size_of_udata = 0;
  std::uint32_t base_of_code = 0, base_of_data = 0;
  for (const Section& s : sections) {
    const std::uint32_t raw =
        align_up(static_cast<std::uint32_t>(s.data.size()), file_align);
    if (s.characteristics & kScnCode) {
      size_of_code += raw;
      if (base_of_code == 0) base_of_code = s.vaddr;
    } else if (s.characteristics & kScnUninitializedData) {
      size_of_udata += raw;
    } else {
      size_of_idata += raw;
      if (base_of_data == 0) base_of_data = s.vaddr;
    }
  }

  w.u16(kPe32Magic);
  w.u8(linker_major);
  w.u8(linker_minor);
  w.u32(size_of_code);
  w.u32(size_of_idata);
  w.u32(size_of_udata);
  w.u32(entry_point);
  w.u32(base_of_code);
  w.u32(base_of_data);
  w.u32(image_base);
  w.u32(section_align);
  w.u32(file_align);
  w.u16(6); w.u16(0);   // OS version
  w.u16(1); w.u16(0);   // image version
  w.u16(6); w.u16(0);   // subsystem version
  w.u32(0);             // Win32VersionValue
  w.u32(size_of_image());
  w.u32(headers_size());
  w.u32(checksum);
  w.u16(subsystem);
  w.u16(dll_characteristics);
  w.u32(0x100000); w.u32(0x1000);  // stack
  w.u32(0x100000); w.u32(0x1000);  // heap
  w.u32(0);                        // LoaderFlags
  w.u32(kNumDirs);
  for (const DataDirectory& d : dirs) {
    w.u32(d.rva);
    w.u32(d.size);
  }

  // ---- Section table. Raw pointers laid out sequentially after headers.
  const std::uint32_t hdr_size = headers_size();
  std::uint32_t raw_cursor = hdr_size;
  std::vector<Layout::SecRange> ranges;
  for (const Section& s : sections) {
    const std::uint32_t raw_size =
        align_up(static_cast<std::uint32_t>(s.data.size()), file_align);
    w.fixed_string(s.name, 8);
    w.u32(s.vsize ? s.vsize : static_cast<std::uint32_t>(s.data.size()));
    w.u32(s.vaddr);
    w.u32(raw_size);
    w.u32(raw_size ? raw_cursor : 0);
    w.u32(0); w.u32(0);  // relocations/linenumbers
    w.u16(0); w.u16(0);
    w.u32(s.characteristics);
    ranges.push_back({raw_size ? raw_cursor : 0, raw_size});
    raw_cursor += raw_size;
  }

  // ---- Header padding + raw section data (padded to file alignment).
  w.zeros(hdr_size - w.size());
  for (const Section& s : sections) {
    w.block(s.data);
    w.align_to(file_align);
  }

  const std::uint32_t overlay_offset = static_cast<std::uint32_t>(w.size());
  w.block(overlay);

  if (layout) {
    layout->headers_size = hdr_size;
    layout->sections = std::move(ranges);
    layout->overlay_offset = overlay_offset;
    layout->file_size = static_cast<std::uint32_t>(w.size());
  }
  return w.take();
}

void PeFile::update_checksum() {
  // compute_checksum folds the stored CheckSum field as zero, so the stale
  // value embedded by build() does not perturb the result.
  checksum = compute_checksum(build());
}

std::uint32_t PeFile::compute_checksum(std::span<const std::uint8_t> bytes) {
  // Standard PE checksum: 16-bit one's-complement-style folded sum of the
  // whole file (checksum field treated as zero) plus the file length. The
  // CheckSum field lives at e_lfanew + 4 + kCoffSize + kChecksumOptOffset;
  // folding it as zero makes a built file verify against its own stored
  // checksum.
  std::size_t csum_off = bytes.size();  // no maskable field by default
  if (bytes.size() >= kDosHeaderSize &&
      util::read_le<std::uint16_t>(bytes.data()) == kDosMagic) {
    const std::uint32_t lfanew =
        util::read_le<std::uint32_t>(bytes.data() + 0x3C);
    const std::uint64_t off =
        static_cast<std::uint64_t>(lfanew) + 4 + kCoffSize + kChecksumOptOffset;
    if (off + 4 <= bytes.size()) csum_off = static_cast<std::size_t>(off);
  }
  const auto byte_at = [&](std::size_t j) -> std::uint32_t {
    return (j >= csum_off && j < csum_off + 4) ? 0 : bytes[j];
  };
  std::uint64_t sum = 0;
  std::size_t i = 0;
  while (i + 2 <= bytes.size()) {
    sum += byte_at(i) | (byte_at(i + 1) << 8);
    sum = (sum & 0xFFFF) + (sum >> 16);
    i += 2;
  }
  if (i < bytes.size()) {
    sum += byte_at(i);
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint32_t>(sum + bytes.size());
}

}  // namespace mpass::pe
