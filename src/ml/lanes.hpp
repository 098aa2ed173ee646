// The vector types of the ML kernels: N float lanes, N = 4 (one SSE
// register on x86-64) or N = 8 (one AVX register, used only inside
// functions compiled for AVX2; see ml/kernels.cpp). Lane-wise + and * are
// the scalar IEEE operations, so a lane computes exactly what scalar code
// does. Kernels run lanes over *independent outputs*, each lane keeping its
// output's scalar float order, never over the terms of one sum (no
// horizontal adds); that is what keeps them bit-identical to the scalar
// loops they replace.
#pragma once

#include <cstring>
#include <type_traits>

namespace mpass::ml {

template <int N>
struct LaneTypes {
  typedef float f32 __attribute__((vector_size(N * sizeof(float))));
  typedef int i32 __attribute__((vector_size(N * sizeof(int))));
};
/// N float lanes, and the N int lanes a comparison of two of them yields.
template <int N>
using LanesN = typename LaneTypes<N>::f32;
template <int N>
using IntLanesN = typename LaneTypes<N>::i32;

using Lanes = LanesN<4>;
constexpr int kLanes = 4;

/// y[i] = sum_j a_t[j * stride + i] * x[j] for V * kLanes consecutive i:
/// the lanes run over outputs, and each output's sum starts from 0.0f and
/// adds its terms in j order, as a scalar row-times-vector loop does.
template <int V>
void matvec_t_block(const float* a_t, int stride, const float* x, int n,
                    float* y) {
  Lanes acc[V] = {};
  for (int j = 0; j < n; ++j, a_t += stride) {
    const Lanes xj = {x[j], x[j], x[j], x[j]};
    for (int v = 0; v < V; ++v) {
      Lanes a;
      std::memcpy(&a, a_t + v * kLanes, sizeof(a));
      acc[v] += a * xj;
    }
  }
  // One store per vector: copying acc as a whole goes through the stack.
  for (int v = 0; v < V; ++v)
    std::memcpy(y + v * kLanes, &acc[v], sizeof(Lanes));
}

/// y = A x for A (cols x n) stored transposed as a_t (n x cols, cols a
/// multiple of kLanes): y[i] is A's row i dotted with x, bit-identical to
/// the scalar dot from 0.0f. Blocks of 12 vectors (one GRU gate set at
/// H=48) carry enough independent adds to hide the add latency.
inline void matvec_lanes(const float* a_t, int cols, const float* x, int n,
                         float* y) {
  int i0 = 0;
  const auto block = [&](auto v) {
    matvec_t_block<v>(a_t + i0, cols, x, n, y + i0);
    i0 += v * kLanes;
  };
  while (cols - i0 >= 12 * kLanes) block(std::integral_constant<int, 12>{});
  while (cols - i0 >= 4 * kLanes) block(std::integral_constant<int, 4>{});
  while (cols - i0 >= kLanes) block(std::integral_constant<int, 1>{});
}

}  // namespace mpass::ml
