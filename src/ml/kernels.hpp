// The byte-net kernels: the conv rows of ByteConvNet's forward, the input
// gradient of its backward, and the optimizer's 256-candidate scan. Each is
// written once over the lane count N (ml/kernels.cpp) and compiled twice:
// N = 4 for any target, and N = 8 in a function compiled for AVX2 on
// x86-64. The process picks one set the first time kernels() is called,
// by asking the CPU whether it has AVX2.
//
// Both sets are bit-identical: lanes run over independent outputs, and
// every output keeps its scalar float order (see ml/lanes.hpp). The AVX2
// set is compiled with target("avx2") only, never with FMA enabled, so no
// `acc += a * b` is contracted into a fused multiply-add.
#pragma once

#include <cstddef>
#include <span>

namespace mpass::ml {

/// Inputs and outputs of the conv rows of one net: row p of the A and B
/// pre-activations is bias + sum over window element i = j * d + k of
/// w[i] * emb[tokens[p * S + j] * d + k], in i order, for every filter.
struct ConvRowsArgs {
  const float* emb;     // 257 x d embedding table
  const int* tokens;    // the token stream
  const float* wa_t;    // W*d x F: A weights, filter-major
  const float* wb_t;    // W*d x F: B weights, filter-major
  const float* ba;      // F
  const float* bb;      // F
  int d, F, W, S;
  float* a;             // T x F pre-activations (rows written)
  float* b;             // T x F
};

/// One filter with a nonzero output gradient at a timestep: the gradients
/// of its A and B pre-activations.
struct FilterGrad {
  int f;
  float da;
  float db;
};

/// One term of a candidate scan: cand[v] += sum_k g[k] * cols[k * 512 +
/// v + rot], the sum taken from 0.0f in k order. `cols` is a net's d x 512
/// transposed embedding, each of the 256 byte columns stored twice, so the
/// rotated read never wraps (ByteConvNet::scan_term).
struct ScanTerm {
  const float* cols;
  const float* g;
  int d;
  int rot;
};

/// The first minimum of a candidate scan: `best` is `cur` when cand[cur]
/// ties the minimum, otherwise the lowest index that attains it.
struct ScanResult {
  int best;
  float best_score;  // cand[best]
  float cur_score;   // cand[cur]
};

struct ByteNetKernels {
  /// Writes the A and B rows p in [p_lo, p_hi).
  void (*conv_rows)(const ConvRowsArgs& args, std::size_t p_lo,
                    std::size_t p_hi);
  /// One timestep's input gradient: for each active filter in order,
  /// dwin[i] += da * wa[f][i], then (when wb is not null, a gated net)
  /// dwin[i] += db * wb[f][i], for i < window. wa, wb: F x window.
  void (*input_grad_row)(const float* wa, const float* wb, int window,
                         std::span<const FilterGrad> active, float* dwin);
  /// cand[v] = sum over the terms in order, from 0.0f, for v < 256, and
  /// its first minimum. The candidate values must be finite.
  ScanResult (*scan_candidates)(std::span<const ScanTerm> terms, int cur);
};

/// The 4-lane set (SSE2 on x86-64).
const ByteNetKernels& kernels_x4();
/// The 8-lane set, or nullptr when the CPU or the build target has no AVX2.
const ByteNetKernels* kernels_x8();
/// The set this process uses: the 8-lane one when available.
const ByteNetKernels& kernels();
/// "avx2" or "sse2" on x86-64 ("generic" elsewhere): which set kernels()
/// runs, so timings from hosts on different paths are never mixed.
const char* kernel_isa();

}  // namespace mpass::ml
