#include "util/entropy.hpp"

#include <algorithm>
#include <cmath>

namespace mpass::util {

std::array<std::uint32_t, 256> byte_histogram(
    std::span<const std::uint8_t> data) {
  std::array<std::uint32_t, 256> hist{};
  for (std::uint8_t b : data) ++hist[b];
  return hist;
}

double shannon_entropy(std::span<const std::uint8_t> data) {
  if (data.empty()) return 0.0;
  const auto hist = byte_histogram(data);
  const double n = static_cast<double>(data.size());
  double h = 0.0;
  for (std::uint32_t c : hist) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

std::vector<float> byte_entropy_histogram(std::span<const std::uint8_t> data,
                                          std::size_t window) {
  std::vector<float> hist(256, 0.0f);
  if (data.empty() || window == 0) return hist;
  std::size_t total_windows = 0;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t len = std::min(window, data.size() - pos);
    auto chunk = data.subspan(pos, len);
    const double h = shannon_entropy(chunk);
    double mean = 0.0;
    for (std::uint8_t b : chunk) mean += b;
    mean /= static_cast<double>(len);
    // Quantize entropy [0,8] and mean byte [0,256) to 16 bins each.
    int eb = std::min(15, static_cast<int>(h * 2.0));
    int vb = std::min(15, static_cast<int>(mean / 16.0));
    hist[static_cast<std::size_t>(eb * 16 + vb)] += 1.0f;
    ++total_windows;
    pos += len;
  }
  if (total_windows > 0) {
    const float inv = 1.0f / static_cast<float>(total_windows);
    for (float& v : hist) v *= inv;
  }
  return hist;
}

double printable_ratio(std::span<const std::uint8_t> data) {
  if (data.empty()) return 0.0;
  std::size_t printable = 0;
  for (std::uint8_t b : data)
    if (b >= 0x20 && b <= 0x7e) ++printable;
  return static_cast<double>(printable) / static_cast<double>(data.size());
}

}  // namespace mpass::util
