// PE32 image model: parse / edit / rebuild Windows-executable files.
//
// This is a faithful (if compact) implementation of the PE32 on-disk format:
// DOS header + stub, PE signature, COFF header, optional header with 16 data
// directories, section table, aligned raw section data, and trailing overlay.
// Malware samples, benign programs and all adversarial modifications in this
// repository are real PE files produced and re-parsed through this module.
//
// The only deliberate simplification is the *content* of the import
// directory: see import.hpp for the compact import-table format (the
// directory entry, RVA resolution and section plumbing are standard).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace mpass::pe {

using util::ByteBuf;

// Machine id for MVM code (stands in for IMAGE_FILE_MACHINE_I386).
inline constexpr std::uint16_t kMachineMvm = 0x4D56;  // 'MV'
inline constexpr std::uint16_t kPe32Magic = 0x010B;
inline constexpr std::uint16_t kDosMagic = 0x5A4D;    // 'MZ'
inline constexpr std::uint32_t kPeSignature = 0x00004550;  // "PE\0\0"

// Section characteristics (subset of IMAGE_SCN_*).
inline constexpr std::uint32_t kScnCode = 0x00000020;
inline constexpr std::uint32_t kScnInitializedData = 0x00000040;
inline constexpr std::uint32_t kScnUninitializedData = 0x00000080;
inline constexpr std::uint32_t kScnMemExecute = 0x20000000;
inline constexpr std::uint32_t kScnMemRead = 0x40000000;
inline constexpr std::uint32_t kScnMemWrite = 0x80000000;

// Data directory indices (standard).
inline constexpr std::size_t kDirExport = 0;
inline constexpr std::size_t kDirImport = 1;
inline constexpr std::size_t kDirResource = 2;
inline constexpr std::size_t kNumDirs = 16;

/// One entry of the optional header's directory table.
struct DataDirectory {
  std::uint32_t rva = 0;
  std::uint32_t size = 0;
  bool operator==(const DataDirectory&) const = default;
};

/// A section: header fields plus its raw file bytes.
struct Section {
  std::string name;             // up to 8 bytes on disk
  std::uint32_t vaddr = 0;      // RVA
  std::uint32_t vsize = 0;      // virtual size (>= data.size() allowed: bss)
  std::uint32_t characteristics = 0;
  ByteBuf data;                 // raw bytes (unaligned; builder pads)

  bool executable() const { return characteristics & kScnMemExecute; }
  bool writable() const { return characteristics & kScnMemWrite; }
};

/// Raw-file layout of a built image; maps file offsets to regions.
/// Returned by PeFile::build_with_layout, consumed by the attack code to
/// track perturbable byte positions.
struct Layout {
  std::uint32_t headers_size = 0;  // bytes of headers incl. section table pad
  struct SecRange {
    std::uint32_t file_offset = 0;
    std::uint32_t raw_size = 0;  // aligned size on disk
  };
  std::vector<SecRange> sections;
  std::uint32_t overlay_offset = 0;  // == file size if no overlay
  std::uint32_t file_size = 0;

  /// Index of the section containing file offset off, nullopt if in
  /// headers/overlay.
  std::optional<std::size_t> section_of(std::uint32_t off) const;
};

/// Mutable in-memory model of a PE32 file.
class PeFile {
 public:
  // ---- header state -------------------------------------------------------
  std::uint16_t machine = kMachineMvm;
  std::uint32_t timestamp = 0;
  std::uint16_t coff_characteristics = 0x0102;  // EXECUTABLE_IMAGE | 32BIT
  std::uint8_t linker_major = 14, linker_minor = 0;
  std::uint32_t entry_point = 0;     // RVA
  std::uint32_t image_base = 0x00400000;
  std::uint32_t section_align = 0x1000;
  std::uint32_t file_align = 0x200;
  std::uint16_t subsystem = 3;       // console
  std::uint16_t dll_characteristics = 0;
  std::uint32_t checksum = 0;        // 0 = unset; see update_checksum()
  std::array<DataDirectory, kNumDirs> dirs{};
  ByteBuf dos_stub;                  // bytes between DOS header and "PE\0\0"

  std::vector<Section> sections;
  ByteBuf overlay;                   // bytes past the last raw section

  // ---- parse / build ------------------------------------------------------

  /// Parses a PE32 buffer. Throws util::ParseError on malformed input.
  static PeFile parse(std::span<const std::uint8_t> bytes);

  /// True if bytes looks like a PE file this module can parse.
  static bool looks_like_pe(std::span<const std::uint8_t> bytes);

  /// Serializes to a valid PE32 file (recomputes layout & derived sizes).
  ByteBuf build() const;

  /// Serializes and also reports the file layout.
  ByteBuf build_with_layout(Layout* layout) const;

  // ---- queries -------------------------------------------------------------

  /// Index of the first section with the given name.
  std::optional<std::size_t> find_section(std::string_view name) const;

  /// Index of the section whose [vaddr, vaddr+max(vsize,raw)) contains rva.
  std::optional<std::size_t> section_by_rva(std::uint32_t rva) const;

  /// First RVA beyond all current sections, aligned to section_align.
  std::uint32_t next_free_rva() const;

  /// SizeOfImage as the builder will compute it.
  std::uint32_t size_of_image() const;

  // ---- edits ---------------------------------------------------------------

  /// Appends a new section at the next free RVA; returns its index.
  std::size_t add_section(std::string_view name, ByteBuf data,
                          std::uint32_t characteristics,
                          std::uint32_t extra_vsize = 0);

  /// Recomputes and stores the standard PE checksum of the built image.
  void update_checksum();

  /// Standard PE checksum algorithm over a raw file image.
  static std::uint32_t compute_checksum(std::span<const std::uint8_t> bytes);

 private:
  std::uint32_t headers_size() const;
};

}  // namespace mpass::pe
