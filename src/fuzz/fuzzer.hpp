// Deterministic structure-aware fuzzing driver.
//
// Every iteration is derived purely from (config.seed, iteration index):
// pick a seed-corpus input, apply 1..4 catalogue mutators, clamp it to 1 MiB,
// run the differential oracle (oracle.hpp). A fixed cadence of iterations
// additionally fuzzes StubOptions knobs and runs the full
// modification + sandbox functionality-preservation oracle on a corpus
// sample. Violating inputs are ddmin-minimized and written to
// config.out_dir as crasher artifacts; a pending.bin breadcrumb is kept so
// hard crashes (sanitizer aborts) leave the offending input on disk.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/oracle.hpp"
#include "util/bytes.hpp"

namespace mpass::fuzz {

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t iterations = 10000;
  // Every attack_every-th iteration runs the StubOptions + attack oracles
  // (they are ~100x slower than the structural checks). 0 disables them.
  std::size_t attack_every = 64;
  std::filesystem::path out_dir;  // empty: no artifacts written
  bool minimize = true;
};

struct Finding {
  std::size_t iteration = 0;
  Violation violation;
  std::vector<std::string> mutators;  // applied mutator names, in order
  util::ByteBuf input;                // the violating input
  util::ByteBuf minimized;            // ddmin-reduced (== input if disabled)
  std::filesystem::path artifact;     // where it was saved ("" if not)
};

struct FuzzStats {
  std::size_t iterations = 0;
  std::size_t parse_ok = 0;       // inputs the parser accepted
  std::size_t parse_rejected = 0; // clean ParseError rejections
  std::size_t stub_checks = 0;
  std::size_t attack_checks = 0;
  std::size_t incremental_checks = 0;  // ByteConvNet differential runs
  std::vector<Finding> findings;

  bool clean() const { return findings.empty(); }
};

class Fuzzer {
 public:
  explicit Fuzzer(FuzzConfig config);

  /// Runs the configured number of iterations. Deterministic: same config
  /// => same stats (including finding order and minimized bytes).
  FuzzStats run();

  /// Rebuilds the exact mutated input of one iteration (for reproducing a
  /// crash whose iteration index is known, e.g. from the pending breadcrumb
  /// or CI logs).
  util::ByteBuf input_for_iteration(std::size_t iter,
                                    std::vector<std::string>* mutators =
                                        nullptr) const;

  /// The deterministic seed corpus: corpus-generated malware/benign
  /// samples, a modified (attacked) sample, and handcrafted structural edge
  /// cases (bss-only, section-less, unaligned-raw-size, import-bearing).
  static std::vector<util::ByteBuf> seed_corpus(std::uint64_t seed);

  /// Greedy ddmin-style reduction: drops, then zeroes, chunks while the
  /// input still violates any invariant. Bounded work; deterministic.
  static util::ByteBuf minimize_input(const util::ByteBuf& input,
                                      std::size_t max_evals = 2000);

 private:
  FuzzConfig cfg_;
  std::vector<util::ByteBuf> seeds_;
};

/// Parses a .knobs file (key=value lines: shuffle, chunk_items, min_gap,
/// max_gap, lead_filler) into StubOptions. Throws util::ParseError on
/// malformed text.
core::StubOptions parse_stub_knobs(std::string_view text);

/// Serializes StubOptions in the .knobs format.
std::string format_stub_knobs(const core::StubOptions& opts);

}  // namespace mpass::fuzz
