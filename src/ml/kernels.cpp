#include "ml/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "ml/lanes.hpp"

// Every kernel below is an always_inline template over the lane count N,
// so its body is compiled inside the function that instantiates it: the
// plain N = 4 entry points, or the N = 8 ones marked target("avx2"). An
// 8-lane vector must never reach code compiled without AVX2; GCC lowers it
// to pairs of 4-lane operations there, with the same bits but ~5x slower.
#define MPASS_KERNEL inline __attribute__((always_inline))

#if defined(__x86_64__) || defined(__i386__)
#define MPASS_KERNELS_X8 1
#endif

namespace mpass::ml {
namespace {

// ---- conv rows ---------------------------------------------------------------

/// Adds one window's terms to VN vectors of N filters, then V4 vectors of
/// 4 filters (an 8-lane row's F % 8 >= 4 tail, in the same pass), seeded
/// from and written back to ap/bp. Window element i = j * d + k is
/// emb[tok[j] * d + k]; each filter adds w[i] * x[i] in i order, so every
/// output is the same float sum as a per-filter dot product.
template <int N, int VN, int V4>
MPASS_KERNEL void conv_block(const float* emb, const int* tok, int W, int d,
                             const float* wa_t, const float* wb_t, int F,
                             float* ap, float* bp) {
  using VecN = LanesN<N>;
  using Vec4 = LanesN<4>;
  constexpr int kTail = VN * N;  // first filter of the 4-lane vectors
  VecN sa[VN + 1] = {}, sb[VN + 1] = {};  // + 1: no zero-length arrays
  Vec4 ta[V4 + 1] = {}, tb[V4 + 1] = {};
  for (int v = 0; v < VN; ++v) {
    std::memcpy(&sa[v], ap + v * N, sizeof(VecN));
    std::memcpy(&sb[v], bp + v * N, sizeof(VecN));
  }
  for (int v = 0; v < V4; ++v) {
    std::memcpy(&ta[v], ap + kTail + v * 4, sizeof(Vec4));
    std::memcpy(&tb[v], bp + kTail + v * 4, sizeof(Vec4));
  }
  for (int j = 0; j < W; ++j) {
    const float* e = emb + static_cast<std::size_t>(tok[j]) * d;
    for (int k = 0; k < d; ++k, wa_t += F, wb_t += F) {
      const float x = e[k];
      for (int v = 0; v < VN; ++v) {
        VecN la, lb;
        std::memcpy(&la, wa_t + v * N, sizeof(la));
        std::memcpy(&lb, wb_t + v * N, sizeof(lb));
        sa[v] += la * x;
        sb[v] += lb * x;
      }
      for (int v = 0; v < V4; ++v) {
        Vec4 la, lb;
        std::memcpy(&la, wa_t + kTail + v * 4, sizeof(la));
        std::memcpy(&lb, wb_t + kTail + v * 4, sizeof(lb));
        ta[v] += la * x;
        tb[v] += lb * x;
      }
    }
  }
  // One store per vector: copying an accumulator array whole goes through
  // the stack.
  for (int v = 0; v < VN; ++v) {
    std::memcpy(ap + v * N, &sa[v], sizeof(VecN));
    std::memcpy(bp + v * N, &sb[v], sizeof(VecN));
  }
  for (int v = 0; v < V4; ++v) {
    std::memcpy(ap + kTail + v * 4, &ta[v], sizeof(Vec4));
    std::memcpy(bp + kTail + v * 4, &tb[v], sizeof(Vec4));
  }
}

/// One pass of VN N-lane vectors over filters [f0, ...), plus a 4-lane
/// vector when N = 8 and at least 4 filters remain beyond them. Returns
/// the number of filters covered.
template <int N, int VN>
MPASS_KERNEL int conv_pass(const ConvRowsArgs& c, const int* tok, int f0,
                           float* ap, float* bp) {
  const float* wa = c.wa_t + f0;
  const float* wb = c.wb_t + f0;
  if constexpr (N > 4 && VN < 4) {
    if (c.F - f0 - VN * N >= 4) {
      conv_block<N, VN, 1>(c.emb, tok, c.W, c.d, wa, wb, c.F, ap + f0,
                           bp + f0);
      return VN * N + 4;
    }
  }
  conv_block<N, VN, 0>(c.emb, tok, c.W, c.d, wa, wb, c.F, ap + f0, bp + f0);
  return VN * N;
}

template <int N>
MPASS_KERNEL void conv_rows_n(const ConvRowsArgs& c, std::size_t p_lo,
                              std::size_t p_hi) {
  const int F = c.F;
  for (std::size_t p = p_lo; p < p_hi; ++p) {
    const int* tok = c.tokens + p * c.S;
    float* ap = c.a + p * F;
    float* bp = c.b + p * F;
    std::copy_n(c.ba, F, ap);
    std::copy_n(c.bb, F, bp);
    // Passes of up to 4 vectors keep their accumulators in registers; 4 to
    // 8 independent adds per window element hide the add latency. The last
    // F % 4 filters run scalar.
    int f0 = 0;
    while (F - f0 >= 4) {
      switch (std::min(4, (F - f0) / N)) {
        case 0:
          if constexpr (N > 4) f0 += conv_pass<N, 0>(c, tok, f0, ap, bp);
          break;
        case 1: f0 += conv_pass<N, 1>(c, tok, f0, ap, bp); break;
        case 2: f0 += conv_pass<N, 2>(c, tok, f0, ap, bp); break;
        case 3: f0 += conv_pass<N, 3>(c, tok, f0, ap, bp); break;
        default: f0 += conv_pass<N, 4>(c, tok, f0, ap, bp); break;
      }
    }
    for (; f0 < F; ++f0) {
      float sa = ap[f0];
      float sb = bp[f0];
      const float* wai = c.wa_t + f0;
      const float* wbi = c.wb_t + f0;
      for (int j = 0; j < c.W; ++j) {
        const float* e = c.emb + static_cast<std::size_t>(tok[j]) * c.d;
        for (int k = 0; k < c.d; ++k, wai += F, wbi += F) {
          sa += *wai * e[k];
          sb += *wbi * e[k];
        }
      }
      ap[f0] = sa;
      bp[f0] = sb;
    }
  }
}

// ---- backward input gradient -----------------------------------------------

/// dwin[0, B * L) held in B vectors of L lanes across the active filters:
/// per element, da * wa[f][i] then db * wb[f][i] for each filter in order,
/// the scalar loop's order. wa/wb point at the block's first element.
template <int L, int B, bool Gated>
MPASS_KERNEL void input_grad_block(const float* wa, const float* wb,
                                   int window,
                                   std::span<const FilterGrad> active,
                                   float* dwin) {
  using Vec = LanesN<L>;
  Vec acc[B];
  for (int v = 0; v < B; ++v) std::memcpy(&acc[v], dwin + v * L, sizeof(Vec));
  for (const FilterGrad& fg : active) {
    const std::size_t row = static_cast<std::size_t>(fg.f) * window;
    for (int v = 0; v < B; ++v) {
      Vec w;
      std::memcpy(&w, wa + row + v * L, sizeof(w));
      acc[v] += w * fg.da;
    }
    if constexpr (Gated) {
      for (int v = 0; v < B; ++v) {
        Vec w;
        std::memcpy(&w, wb + row + v * L, sizeof(w));
        acc[v] += w * fg.db;
      }
    }
  }
  for (int v = 0; v < B; ++v) std::memcpy(dwin + v * L, &acc[v], sizeof(Vec));
}

template <int N, bool Gated>
MPASS_KERNEL void input_grad_row_g(const float* wa, const float* wb,
                                   int window,
                                   std::span<const FilterGrad> active,
                                   float* dwin) {
  int i0 = 0;
  for (; window - i0 >= 8 * N; i0 += 8 * N)
    input_grad_block<N, 8, Gated>(wa + i0, wb + i0, window, active, dwin + i0);
  for (; window - i0 >= 2 * N; i0 += 2 * N)
    input_grad_block<N, 2, Gated>(wa + i0, wb + i0, window, active, dwin + i0);
  for (; window - i0 >= N; i0 += N)
    input_grad_block<N, 1, Gated>(wa + i0, wb + i0, window, active, dwin + i0);
  if constexpr (N > 4) {
    if (window - i0 >= 4) {
      input_grad_block<4, 1, Gated>(wa + i0, wb + i0, window, active,
                                    dwin + i0);
      i0 += 4;
    }
  }
  for (; i0 < window; ++i0) {
    float s = dwin[i0];
    for (const FilterGrad& fg : active) {
      const std::size_t row = static_cast<std::size_t>(fg.f) * window;
      s += fg.da * wa[row + i0];
      if constexpr (Gated) s += fg.db * wb[row + i0];
    }
    dwin[i0] = s;
  }
}

template <int N>
MPASS_KERNEL void input_grad_row_n(const float* wa, const float* wb,
                                   int window,
                                   std::span<const FilterGrad> active,
                                   float* dwin) {
  if (wb)
    input_grad_row_g<N, true>(wa, wb, window, active, dwin);
  else  // wb is never read; wa stands in so no offset touches a null pointer
    input_grad_row_g<N, false>(wa, wa, window, active, dwin);
}

// ---- candidate scan ----------------------------------------------------------

template <int N>
MPASS_KERNEL ScanResult scan_candidates_n(std::span<const ScanTerm> terms,
                                          int cur) {
  using Vec = LanesN<N>;
  using IVec = IntLanesN<N>;
  constexpr int B = 4;  // vectors of candidates held in registers
  constexpr int kBlock = B * N;
  float cand[256];
  // Per lane: the lane's first minimum so far and the block it came from.
  Vec vmin[B];
  IVec vblk[B] = {};
  for (int j = 0; j < B; ++j)
    vmin[j] = Vec{} + std::numeric_limits<float>::infinity();
  for (int blk = 0; blk < 256 / kBlock; ++blk) {
    const int v0 = blk * kBlock;
    Vec acc[B] = {};
    for (const ScanTerm& t : terms) {
      Vec dot[B] = {};
      const float* col = t.cols + t.rot + v0;
      for (int k = 0; k < t.d; ++k, col += 512) {
        const float gk = t.g[k];
        for (int j = 0; j < B; ++j) {
          Vec e;
          std::memcpy(&e, col + j * N, sizeof(e));
          dot[j] += e * gk;
        }
      }
      for (int j = 0; j < B; ++j) acc[j] += dot[j];
    }
    const IVec here = IVec{} + blk;
    for (int j = 0; j < B; ++j) {
      std::memcpy(cand + v0 + j * N, &acc[j], sizeof(Vec));
      const IVec lower = acc[j] < vmin[j];
      vmin[j] = lower ? acc[j] : vmin[j];
      vblk[j] = lower ? here : vblk[j];
    }
  }
#ifndef NDEBUG
  for (const float s : cand)
    assert(std::isfinite(s) && "candidate scan needs finite scores");
#endif
  // The lowest index among the lanes' first minima is the first minimum;
  // cur keeps its place when it ties it, as in a scalar scan seeded with
  // cur that updates on a strictly lower score.
  ScanResult r{-1, 0.0f, cand[cur]};
  for (int j = 0; j < B; ++j)
    for (int l = 0; l < N; ++l) {
      const float s = vmin[j][l];
      const int v = vblk[j][l] * kBlock + j * N + l;
      if (r.best < 0 || s < r.best_score || (s == r.best_score && v < r.best)) {
        r.best = v;
        r.best_score = s;
      }
    }
  if (!(r.best_score < r.cur_score)) {
    r.best = cur;
    r.best_score = r.cur_score;
  }
  return r;
}

// ---- instantiations ----------------------------------------------------------

void conv_rows_x4(const ConvRowsArgs& c, std::size_t p_lo, std::size_t p_hi) {
  conv_rows_n<4>(c, p_lo, p_hi);
}
void input_grad_row_x4(const float* wa, const float* wb, int window,
                       std::span<const FilterGrad> active, float* dwin) {
  input_grad_row_n<4>(wa, wb, window, active, dwin);
}
ScanResult scan_candidates_x4(std::span<const ScanTerm> terms, int cur) {
  return scan_candidates_n<4>(terms, cur);
}
constexpr ByteNetKernels kX4{conv_rows_x4, input_grad_row_x4,
                             scan_candidates_x4};

#ifdef MPASS_KERNELS_X8
// target("avx2") only: with FMA enabled too (or an -march that has it),
// GCC contracts `acc += a * b` into vfmadd even under -std=c++20, and the
// rounded product disappears from every sum.
__attribute__((target("avx2"))) void conv_rows_x8(const ConvRowsArgs& c,
                                                  std::size_t p_lo,
                                                  std::size_t p_hi) {
  conv_rows_n<8>(c, p_lo, p_hi);
}
__attribute__((target("avx2"))) void input_grad_row_x8(
    const float* wa, const float* wb, int window,
    std::span<const FilterGrad> active, float* dwin) {
  input_grad_row_n<8>(wa, wb, window, active, dwin);
}
__attribute__((target("avx2"))) ScanResult scan_candidates_x8(
    std::span<const ScanTerm> terms, int cur) {
  return scan_candidates_n<8>(terms, cur);
}
constexpr ByteNetKernels kX8{conv_rows_x8, input_grad_row_x8,
                             scan_candidates_x8};
#endif

}  // namespace

const ByteNetKernels& kernels_x4() { return kX4; }

const ByteNetKernels* kernels_x8() {
#ifdef MPASS_KERNELS_X8
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2 ? &kX8 : nullptr;
#else
  return nullptr;
#endif
}

const ByteNetKernels& kernels() {
  static const ByteNetKernels& chosen =
      kernels_x8() ? *kernels_x8() : kernels_x4();
  return chosen;
}

const char* kernel_isa() {
#ifdef MPASS_KERNELS_X8
  return &kernels() == kernels_x8() ? "avx2" : "sse2";
#else
  return "generic";
#endif
}

}  // namespace mpass::ml
