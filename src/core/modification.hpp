// Malware modification engine (paper §III-C, Fig. 1/2).
//
// Applies the full MPass modification to a malware sample:
//   * encodes the critical sections (code + data by default, per PEM) with
//     per-byte keys, replacing their content with bytes from a benign donor
//     program;
//   * appends a new section holding the key blocks, the (shuffled) recovery
//     stub, and benign filler, and retargets the entry point at the stub;
//   * marks every optimizable byte position I (encoded section bytes,
//     shuffle gaps, filler tail, timestamp and section-name header fields)
//     and the byte-to-key mapping J the optimizer must maintain so that
//     x + M*delta stays function-preserving (paper Eq. 2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/recovery.hpp"
#include "pe/pe.hpp"
#include "util/rng.hpp"

namespace mpass::core {

/// Which sections get encoded.
enum class TargetMode {
  CodeData,   // executable + data sections (PEM's critical set) -- MPass
  OtherSec,   // every *other* content section (Table V ablation)
  None,       // no encoding: new section + headers only
};

struct ModificationConfig {
  TargetMode targets = TargetMode::CodeData;
  StubOptions stub;            // shuffle on by default
  double filler_ratio = 0.25;  // tail filler as a fraction of encoded bytes
  std::size_t min_tail = 512;
  bool modify_headers = true;  // timestamp + section-name fields join I
  // Grow the benign filler so the (incompressible) key block starts past
  // this file offset. Byte-level detectors truncate their input; the
  // attacker knows the known models' windows and pushes the only
  // non-optimizable bytes -- the keys -- beyond them (the truncation
  // exploitation of Kreuk et al.). 0 disables.
  std::size_t push_keys_beyond = 16384;
};

/// A modified sample plus the optimizer's view of it.
struct ModifiedSample {
  util::ByteBuf bytes;                      // built PE (mutate in place)
  std::vector<std::uint32_t> perturbable;   // file offsets: the set I
  // J: key_of[p] is the file offset of encoded byte p's key byte, kNoKey
  // for every other offset (one entry per byte of `bytes`).
  static constexpr std::uint32_t kNoKey = 0xFFFFFFFFu;
  std::vector<std::uint32_t> key_of;
  double apr = 0.0;                         // size increase ratio
  std::uint32_t recovery_section_off = 0;   // file offset of the new section
  std::uint32_t recovery_section_len = 0;

  /// Writes value v at perturbable offset p, co-updating p's key byte so the
  /// recovered original byte is unchanged (the M*delta constraint).
  void set_byte(std::uint32_t p, std::uint8_t v);

  /// Number of encoded bytes with a key (entries of J).
  std::size_t coupled_count() const;
};

/// Applies the modification. Throws util::ParseError on unparsable input.
/// `donor` supplies the benign content (initial perturbation); it is used
/// cyclically and may be any benign program's bytes.
ModifiedSample apply_modification(std::span<const std::uint8_t> malware,
                                  std::span<const std::uint8_t> donor,
                                  const ModificationConfig& cfg,
                                  util::Rng& rng);

}  // namespace mpass::core
