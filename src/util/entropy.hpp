// Byte-distribution statistics: histograms, Shannon entropy, and the
// windowed byte/entropy joint histogram used by EMBER-style features.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mpass::util {

/// 256-bin byte histogram (raw counts).
std::array<std::uint32_t, 256> byte_histogram(std::span<const std::uint8_t> data);

/// Shannon entropy of a byte stream in bits per byte, in [0, 8].
/// Empty input has entropy 0.
double shannon_entropy(std::span<const std::uint8_t> data);

/// EMBER-style 2D byte-entropy histogram, flattened to 16x16 = 256 bins:
/// for each window, bin by (entropy quantized to 16, mean nibble value
/// quantized to 16), normalized to sum to 1 (all zeros on empty input).
std::vector<float> byte_entropy_histogram(std::span<const std::uint8_t> data,
                                          std::size_t window = 256);

/// Fraction of printable ASCII bytes (0x20..0x7e).
double printable_ratio(std::span<const std::uint8_t> data);

}  // namespace mpass::util
