// Differential round-trip oracle: the invariants every PE input, stub-knob
// setting, and attack run must satisfy. The fuzzer feeds mutated inputs
// through these checks; tests/fuzz_corpus/ holds minimized inputs that once
// violated them.
//
// Invariants on arbitrary bytes (check_pe_invariants):
//   * PeFile::parse either succeeds or throws util::ParseError -- anything
//     else (std::exception, crash, sanitizer abort) is a bug;
//   * build() of a parsed file is total and deterministic;
//   * build_with_layout agrees with the emitted bytes: Layout::section_of /
//     file offsets / overlay_offset / file_size all match, and every
//     section's data bytes appear verbatim at its layout offset;
//   * parse(build(parse(x))) is a byte-exact fixpoint (build canonicalizes,
//     so one round trip must reach the fixed point -- growing files, e.g.
//     by absorbing alignment padding into the overlay, are bugs);
//   * update_checksum() produces a file that verifies from its raw bytes;
//   * PeFile::section_by_rva agrees with the section table.
//
// Invariants on attack knobs (check_stub_options): build_recovery_section
// either rejects invalid StubOptions with std::invalid_argument or returns a
// sanely bounded section -- never a runaway allocation.
//
// Invariant on the full pipeline (check_attack_preserves): the paper's
// functionality-preservation property (§III-C) -- a modified sample, before
// and after perturbing optimizable bytes, produces the exact behavior trace
// of the original in the sandbox.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/modification.hpp"
#include "core/recovery.hpp"
#include "util/bytes.hpp"

namespace mpass::fuzz {

enum class ViolationKind {
  UnexpectedException,   // parse/build threw something besides ParseError
  BuildFailed,           // build() of a successfully parsed file threw
  NonDeterministicBuild, // build() twice gave different bytes
  LayoutMismatch,        // Layout disagrees with the emitted bytes
  ReparseFailed,         // parse(build(x)) threw
  RoundTripUnstable,     // build(parse(build(x))) != build(x)
  ChecksumMismatch,      // update_checksum() output does not verify
  RvaLookupMismatch,     // section_by_rva disagrees with the section table
  StubOptionsNotRejected,// invalid StubOptions did not throw
  StubBuildFailed,       // valid StubOptions threw / overran the size bound
  FunctionalityBroken,   // sandbox trace changed under the modification
  IncrementalScoreMismatch, // forward_auto != full forward
};

std::string_view kind_name(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  std::string message;
};

/// Runs the structural invariants above on arbitrary bytes. Empty result
/// means clean (parse rejection via ParseError counts as clean).
std::vector<Violation> check_pe_invariants(
    std::span<const std::uint8_t> input);

/// Exercises build_recovery_section with the given knobs against a tiny
/// fixed region. Returns a violation if invalid knobs are accepted, valid
/// knobs are rejected, or the output exceeds a sane size bound.
std::optional<Violation> check_stub_options(const core::StubOptions& opts);

/// Runs the full modification on `malware` with `donor` content and checks
/// Sandbox::functionality_preserved, both for the fresh modification and
/// after perturbing a spread of optimizable bytes through set_byte (which
/// must co-update keys). `malware` must be a sandbox-valid sample.
std::optional<Violation> check_attack_preserves(
    std::span<const std::uint8_t> malware,
    std::span<const std::uint8_t> donor, const core::ModificationConfig& cfg,
    std::uint64_t seed);

/// Differential oracle for ByteConvNet's incremental forward: on
/// a fresh small net (architecture variant chosen from `seed`), cumulative
/// window edits, edit/revert candidates, and scattered writes over half
/// the tokens then a rollback of some, scored through forward_auto, must
/// match a full-forward reference net bit-for-bit (exact float equality).
std::optional<Violation> check_incremental_forward(
    std::span<const std::uint8_t> input, std::uint64_t seed);

}  // namespace mpass::fuzz
