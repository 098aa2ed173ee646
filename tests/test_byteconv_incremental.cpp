// Differential tests for ByteConvNet's incremental forward: forward_auto
// must agree with the full forward() *bitwise* (EXPECT_EQ on floats, no
// tolerance) -- window-straddling edits, truncation-boundary edits at
// max_len, empty and no-op edits, edits covering most or all of the
// buffer, cache invalidation on weight updates, and independent candidates
// against one base. Span counts (ml.byteconv.forward, ml.forward_delta, and
// ml.forward_auto calls with neither child) confirm which path served each
// call.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "ml/byteconv.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace mpass::ml {
namespace {

using util::ByteBuf;

ByteConvConfig small_config() {
  ByteConvConfig cfg;
  cfg.max_len = 1024;
  cfg.embed_dim = 4;
  cfg.filters = 8;
  cfg.width = 16;
  cfg.stride = 8;
  cfg.hidden = 6;
  return cfg;
}

std::vector<ByteConvConfig> all_variants() {
  std::vector<ByteConvConfig> out;
  ByteConvConfig gated = small_config();
  out.push_back(gated);
  ByteConvConfig relu = small_config();
  relu.gated = false;
  out.push_back(relu);
  ByteConvConfig gcg = small_config();
  gcg.channel_gating = true;
  out.push_back(gcg);
  ByteConvConfig nonneg = small_config();
  nonneg.nonneg = true;
  out.push_back(nonneg);
  return out;
}

/// How many ByteConvNet evaluations each path has served so far.
struct PathCounts {
  std::uint64_t full = 0, delta = 0, cached = 0;

  /// Sums span counts by leaf site over every call path. A forward_auto
  /// call that opened neither child span was served from the cache.
  static PathCounts now() {
    std::uint64_t full = 0, delta = 0, automatic = 0, auto_children = 0;
    for (const obs::SpanRow& row : obs::span_snapshot()) {
      const std::string_view path = row.path;
      const std::size_t slash = path.rfind('/');
      const std::string_view leaf =
          slash == std::string_view::npos ? path : path.substr(slash + 1);
      const std::string_view parent =
          slash == std::string_view::npos ? std::string_view{}
                                          : path.substr(0, slash);
      const bool under_auto = parent == "ml.forward_auto" ||
                              parent.ends_with("/ml.forward_auto");
      if (leaf == "ml.byteconv.forward") full += row.count;
      if (leaf == "ml.forward_delta") delta += row.count;
      if (leaf == "ml.forward_auto") automatic += row.count;
      if (under_auto && (leaf == "ml.byteconv.forward" ||
                         leaf == "ml.forward_delta"))
        auto_children += row.count;
    }
    return {full, delta, automatic - auto_children};
  }
  PathCounts since(const PathCounts& before) const {
    return {full - before.full, delta - before.delta, cached - before.cached};
  }
};

/// Checks forward_auto on the edited `buf` matches a full-forward reference
/// net with identical parameters.
void expect_auto_matches(ByteConvNet& inc, ByteConvNet& ref,
                         const ByteBuf& buf, std::size_t lo, std::size_t hi) {
  const float f = ref.forward(buf);
  EXPECT_EQ(inc.forward_auto(buf), f)
      << "edit [" << lo << "," << hi << ")";
}

TEST(ByteConvIncremental, RandomWindowEditsBitwiseEqualAllVariants) {
  for (const ByteConvConfig& cfg : all_variants()) {
    ByteConvNet inc(cfg, 11);
    ByteConvNet ref(inc);

    util::Rng rng(42);
    // Sizes around every boundary: empty, < width, == width, < max_len,
    // == max_len, and > max_len (truncation).
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{7}, std::size_t{16}, std::size_t{300},
          cfg.max_len, cfg.max_len + 512}) {
      ByteBuf buf = rng.bytes(size);
      EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf)) << "size " << size;
      if (size == 0) continue;
      for (int i = 0; i < 20; ++i) {
        const std::size_t pos = rng.below(buf.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.below(48), buf.size() - pos);
        for (std::size_t j = 0; j < len; ++j) buf[pos + j] = rng.byte();
        expect_auto_matches(inc, ref, buf, pos, pos + len);
      }
    }
  }
}

TEST(ByteConvIncremental, WindowStraddlingAndTruncationBoundary) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 3);
  ByteConvNet ref(inc);
  util::Rng rng(9);
  ByteBuf buf = rng.bytes(cfg.max_len + 256);

  EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf));
  const std::size_t W = static_cast<std::size_t>(cfg.width);
  // Edits placed to straddle conv-window and stride boundaries, plus edits
  // straddling and entirely past the max_len truncation point.
  const std::size_t spots[] = {0,
                               W - 1,
                               W,
                               W + 1,
                               5 * W - 2,
                               cfg.max_len - W / 2,   // straddles truncation
                               cfg.max_len,           // entirely truncated
                               cfg.max_len + 100};
  for (const std::size_t pos : spots) {
    const std::size_t len = std::min<std::size_t>(W, buf.size() - pos);
    for (std::size_t j = 0; j < len; ++j) buf[pos + j] = rng.byte();
    expect_auto_matches(inc, ref, buf, pos, pos + len);
  }

  // Edits past max_len change nothing the net consumes: served from cache.
  const PathCounts before = PathCounts::now();
  for (std::size_t j = cfg.max_len; j < buf.size(); ++j) buf[j] ^= 0xFF;
  EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf));
  EXPECT_EQ(PathCounts::now().since(before).cached, 1u);
}

TEST(ByteConvIncremental, EmptyAndNoopDeltas) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 5);
  ByteConvNet ref(inc);
  util::Rng rng(17);
  ByteBuf buf = rng.bytes(700);

  const float base = ref.forward(buf);
  EXPECT_EQ(inc.forward_auto(buf), base);

  const PathCounts before = PathCounts::now();
  // Empty edit: the same buffer again.
  EXPECT_EQ(inc.forward_auto(buf), base);
  // No-op edit: a window rewritten with its own values.
  const ByteBuf window(buf.begin() + 100, buf.begin() + 180);
  std::copy(window.begin(), window.end(), buf.begin() + 100);
  EXPECT_EQ(inc.forward_auto(buf), base);
  // An edit and its revert: the revert is a delta back to the base.
  const std::uint8_t old = buf[40];
  buf[40] = static_cast<std::uint8_t>(old + 1);
  EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf));
  buf[40] = old;
  EXPECT_EQ(inc.forward_auto(buf), base);

  const PathCounts used = PathCounts::now().since(before);
  EXPECT_EQ(used.cached, 2u);
  EXPECT_EQ(used.delta, 2u);
  EXPECT_EQ(used.full, 1u);  // the reference forward on the edited buffer
}

TEST(ByteConvIncremental, LargeEditsServedByOneDelta) {
  // However much of the buffer changes, a same-length re-score against a
  // usable cache is one delta: it re-convolves at most every timestep,
  // which is never more work than a full forward.
  for (const ByteConvConfig& cfg : all_variants()) {
    const std::size_t W = static_cast<std::size_t>(cfg.width);
    const std::size_t S = static_cast<std::size_t>(cfg.stride);
    ByteConvNet inc(cfg, 5);
    ByteConvNet ref(inc);
    util::Rng rng(23);
    // (n - W) % S != 0, so the last few bytes lie past the last window.
    const std::size_t n = 800 + S / 2;
    ByteBuf buf = rng.bytes(n);
    EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf));

    const auto expect_one_delta = [&](const char* what) {
      const PathCounts before = PathCounts::now();
      EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf)) << what;
      const PathCounts used = PathCounts::now().since(before);
      EXPECT_EQ(used.full, 1u) << what;  // the reference only
      EXPECT_LE(used.delta, 1u) << what;
    };

    // Every byte rewritten.
    for (auto& x : buf) x = static_cast<std::uint8_t>(x + 1);
    expect_one_delta("whole buffer");

    // Scattered single-byte writes until more than half the tokens differ.
    const ByteBuf before = buf;
    for (std::size_t count = 0; 2 * count <= n; ++count) {
      std::size_t p = rng.below(n);
      while (buf[p] != before[p]) p = rng.below(n);  // already written
      buf[p] = static_cast<std::uint8_t>(buf[p] ^ (1 + rng.below(255)));
    }
    expect_one_delta("scattered half");

    // Single bytes more than W apart: many byte ranges whose timestep
    // ranges abut.
    for (std::size_t p = 3; p < n; p += W + 1) buf[p] ^= 0x5A;
    expect_one_delta("spaced singles");

    // Only bytes past the last window: nothing to re-convolve.
    const std::size_t tail = (n - W) / S * S + W;
    ASSERT_LT(tail, n);
    for (std::size_t p = tail; p < n; ++p) buf[p] ^= 0xFF;
    expect_one_delta("past the last window");
  }
}

TEST(ByteConvIncremental, CumulativeChainedDeltas) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 29);
  ByteConvNet ref(inc);
  util::Rng rng(31);
  ByteBuf buf = rng.bytes(900);
  EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf));
  // Long chains of deltas must not drift: each step reconvolves only its
  // own windows yet the state stays bitwise equal to from-scratch forwards.
  for (int i = 0; i < 200; ++i) {
    const std::size_t pos = rng.below(buf.size());
    buf[pos] = rng.byte();
    expect_auto_matches(inc, ref, buf, pos, pos + 1);
  }
}

TEST(ByteConvIncremental, ParamUpdateInvalidatesCache) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 37);
  ByteConvNet ref(inc);
  util::Rng rng(41);
  const ByteBuf buf = rng.bytes(600);
  EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf));

  // An Adam step moves the weights of both nets identically; the cached
  // activations are stale and must not be served.
  auto train_step = [&](ByteConvNet& net) {
    net.params().zero_grad();
    net.forward(buf);
    net.backward(/*target=*/1.0f, nullptr, /*accumulate_params=*/true);
    Adam opt(net.params(), 1e-2f);
    opt.step();
  };
  train_step(inc);
  train_step(ref);
  EXPECT_EQ(inc.forward_auto(buf), ref.forward(buf))
      << "stale cache served after a weight update";
}

TEST(ByteConvIncremental, IndependentCandidatesMatchFullForwards) {
  for (const ByteConvConfig& cfg : all_variants()) {
    ByteConvNet inc(cfg, 43);
    ByteConvNet ref(inc);
    util::Rng rng(47);
    const ByteBuf base = rng.bytes(cfg.max_len);
    const float base_score = ref.forward(base);
    EXPECT_EQ(inc.forward_auto(base), base_score);

    // Candidates are alternatives, not cumulative: each variant differs
    // from the previously scored one in two windows (the last edit
    // reverted, the new one applied). The final one runs past the end.
    for (int i = 0; i < 13; ++i) {
      ByteBuf variant = base;
      const std::size_t lo = i < 12 ? rng.below(base.size()) : base.size() - 8;
      const std::size_t hi =
          std::min(lo + 1 + rng.below(64), variant.size());
      for (std::size_t j = lo; j < hi; ++j) variant[j] = rng.byte();
      EXPECT_EQ(inc.forward_auto(variant), ref.forward(variant))
          << "candidate " << i;
    }
    EXPECT_EQ(inc.forward_auto(base), base_score);
  }
}

}  // namespace
}  // namespace mpass::ml
