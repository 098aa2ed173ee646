// Executable packers: the UPX / PESpin / ASPack stand-ins of Table IV.
//
// A packer rewrites a PE into [placeholder section][stub section]: the
// original sections are compressed (LZSS) or encrypted (rolling XOR) into a
// blob, and an MVM stub -- emitted by this module, including a full LZSS
// decompressor in MVM assembly -- restores them at their original RVAs at
// runtime and jumps to the original entry point. The overlay is preserved.
//
// Like their real counterparts, these packers hide code/data bytes but carry
// fixed artifacts (characteristic section names, a fixed stub, a tiny import
// table, high-entropy payload) that ML detectors learn -- which is the
// mechanism behind their low ASR in the paper's Table IV.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace mpass::pack {

enum class PackerKind { UpxLike, PespinLike, AspackLike };

std::string_view packer_name(PackerKind kind);

/// Packs a PE file. Returns nullopt if the input cannot be parsed or has no
/// sections. The result is a runnable PE with identical behavior trace.
/// Deterministic: like real packers, the stub and section names are fixed,
/// which is exactly the learnable artifact Table IV hinges on.
std::optional<util::ByteBuf> pack(PackerKind kind,
                                  std::span<const std::uint8_t> input);

}  // namespace mpass::pack
