#ifndef RMA_MATRIX_SIMD_H_
#define RMA_MATRIX_SIMD_H_

#include <cstdint>
#include <string>

/// Portable SIMD wrapper for the double-precision hot loops.
///
/// The binary stays portable: AVX2 bodies are compiled behind
/// `__attribute__((target("avx2")))` so the baseline ISA of the translation
/// unit is unchanged, and they are only entered after a runtime
/// `__builtin_cpu_supports("avx2")` check. On aarch64 NEON is part of the
/// baseline ISA and needs no dispatch. Everything falls back to plain scalar
/// loops, and setting `RMA_NO_SIMD=1` (or calling `ForceScalar(true)` from a
/// test) pins the scalar path at runtime.
///
/// Numerics contract: the element-wise kernels (Add/Sub/Mul/Axpy/Scale) are
/// bit-identical to their scalar loops — no FMA contraction, same per-element
/// operation, scalar tail for the last `n % Width()` elements. The reductions
/// (Dot/Sum/SumSquares) use lane-wise partial sums (and FMA contraction on
/// x86), so they associate differently from the scalar left fold; callers
/// must not rely on bit-equality of reduction results across ISAs. Within
/// one dispatch path, Dot4 equals Dot per column bit for bit.

#if !defined(RMA_FORCE_SCALAR_BUILD)
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMA_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define RMA_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace rma {
namespace simd {

/// True when a vector ISA is compiled in, supported by this CPU, and not
/// disabled via RMA_NO_SIMD / ForceScalar.
bool Enabled();

/// Doubles per vector lane group: 4 (AVX2), 2 (NEON), or 1 (scalar).
int Width();

/// "avx2", "neon", or "scalar" — reflects the *active* path, so a build with
/// AVX2 compiled in reports "scalar" when RMA_NO_SIMD is set.
const char* IsaName();

/// Compact build tag for logs and bench artifacts: "avx2x4", "neon x2" style
/// ("scalar" when vectorization is off).
std::string Describe();

/// Test hook: true pins the scalar path regardless of CPU support; false
/// restores environment-based detection.
void ForceScalar(bool on);

namespace detail {

#if defined(RMA_SIMD_AVX2)

__attribute__((target("avx2"))) inline void AddAvx2(const double* a,
                                                    const double* b,
                                                    double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) inline void SubAvx2(const double* a,
                                                    const double* b,
                                                    double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("avx2"))) inline void MulAvx2(const double* a,
                                                    const double* b,
                                                    double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// y += alpha * x. Separate mul+add (no FMA) keeps every element bit-identical
// to the scalar loop.
__attribute__((target("avx2"))) inline void AxpyAvx2(double alpha,
                                                     const double* x,
                                                     double* y, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) inline void ScaleAvx2(double alpha, double* x,
                                                      int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2"))) inline double HSumAvx2(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

__attribute__((target("avx2,fma"))) inline double DotAvx2(const double* a,
                                                      const double* b,
                                                      int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double s = HSumAvx2(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

__attribute__((target("avx2"))) inline double SumAvx2(const double* a,
                                                      int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(a + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
  }
  double s = HSumAvx2(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i];
  return s;
}

__attribute__((target("avx2,fma"))) inline double SumSquaresAvx2(const double* a,
                                                             int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(a + i);
    const __m256d v1 = _mm256_loadu_pd(a + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
  }
  double s = HSumAvx2(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * a[i];
  return s;
}

#elif defined(RMA_SIMD_NEON)

inline void AddNeon(const double* a, const double* b, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

inline void SubNeon(const double* a, const double* b, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

inline void MulNeon(const double* a, const double* b, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

inline void AxpyNeon(double alpha, const double* x, double* y, int64_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // Separate mul+add (no vfmaq) to match scalar rounding per element.
    const float64x2_t prod = vmulq_f64(va, vld1q_f64(x + i));
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

inline void ScaleNeon(double alpha, double* x, int64_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(x + i, vmulq_f64(va, vld1q_f64(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

inline double DotNeon(const double* a, const double* b, int64_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_f64(acc, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  double s = vaddvq_f64(acc);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

inline double SumNeon(const double* a, int64_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vaddq_f64(acc, vld1q_f64(a + i));
  double s = vaddvq_f64(acc);
  for (; i < n; ++i) s += a[i];
  return s;
}

inline double SumSquaresNeon(const double* a, int64_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(a + i);
    acc = vaddq_f64(acc, vmulq_f64(v, v));
  }
  double s = vaddvq_f64(acc);
  for (; i < n; ++i) s += a[i] * a[i];
  return s;
}

#endif  // RMA_SIMD_AVX2 / RMA_SIMD_NEON

#if defined(RMA_SIMD_AVX2)

// Interleaves four source columns into rows of four: a 4x4 in-register
// transpose per block, so both the loads and the strided stores are full
// vectors. dst row i gets {c0[i], c1[i], c2[i], c3[i]} at dst + i*stride.
__attribute__((target("avx2"))) inline void Pack4Avx2(
    const double* c0, const double* c1, const double* c2, const double* c3,
    double* dst, int64_t stride, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r0 = _mm256_loadu_pd(c0 + i);
    const __m256d r1 = _mm256_loadu_pd(c1 + i);
    const __m256d r2 = _mm256_loadu_pd(c2 + i);
    const __m256d r3 = _mm256_loadu_pd(c3 + i);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    double* d = dst + i * stride;
    _mm256_storeu_pd(d, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(d + stride, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(d + 2 * stride, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(d + 3 * stride, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; i < n; ++i) {
    double* d = dst + i * stride;
    d[0] = c0[i];
    d[1] = c1[i];
    d[2] = c2[i];
    d[3] = c3[i];
  }
}

__attribute__((target("avx2"))) inline void Unpack4Avx2(
    const double* src, int64_t stride, int64_t n, double* c0, double* c1,
    double* c2, double* c3) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* s = src + i * stride;
    const __m256d r0 = _mm256_loadu_pd(s);
    const __m256d r1 = _mm256_loadu_pd(s + stride);
    const __m256d r2 = _mm256_loadu_pd(s + 2 * stride);
    const __m256d r3 = _mm256_loadu_pd(s + 3 * stride);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    _mm256_storeu_pd(c0 + i, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(c1 + i, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(c2 + i, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(c3 + i, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; i < n; ++i) {
    const double* s = src + i * stride;
    c0[i] = s[0];
    c1[i] = s[1];
    c2[i] = s[2];
    c3[i] = s[3];
  }
}

// Four dot products sharing one pass over `v`: out[q] = Σ v[i]*c_q[i].
// Each column repeats DotAvx2 step for step (two accumulators, the 8-then-4
// loop, HSum of their sum, the scalar tail), so out[q] equals
// DotAvx2(v, c_q, n) bit for bit.
__attribute__((target("avx2,fma"))) inline void Dot4Avx2(
    const double* v, const double* c0, const double* c1, const double* c2,
    const double* c3, int64_t n, double out[4]) {
  __m256d a0 = _mm256_setzero_pd(), b0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), b2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd(), b3 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(v + i);
    const __m256d v1 = _mm256_loadu_pd(v + i + 4);
    a0 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(c0 + i), a0);
    b0 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(c0 + i + 4), b0);
    a1 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(c1 + i), a1);
    b1 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(c1 + i + 4), b1);
    a2 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(c2 + i), a2);
    b2 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(c2 + i + 4), b2);
    a3 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(c3 + i), a3);
    b3 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(c3 + i + 4), b3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v0 = _mm256_loadu_pd(v + i);
    a0 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(c0 + i), a0);
    a1 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(c1 + i), a1);
    a2 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(c2 + i), a2);
    a3 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(c3 + i), a3);
  }
  double s0 = HSumAvx2(_mm256_add_pd(a0, b0));
  double s1 = HSumAvx2(_mm256_add_pd(a1, b1));
  double s2 = HSumAvx2(_mm256_add_pd(a2, b2));
  double s3 = HSumAvx2(_mm256_add_pd(a3, b3));
  for (; i < n; ++i) {
    s0 += v[i] * c0[i];
    s1 += v[i] * c1[i];
    s2 += v[i] * c2[i];
    s3 += v[i] * c3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

// Rank-4 update: y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i], with the
// same left-to-right association as the scalar fallback.
__attribute__((target("avx2"))) inline void Axpy4Avx2(
    const double a[4], const double* x0, const double* x1, const double* x2,
    const double* x3, double* y, int64_t n) {
  const __m256d va0 = _mm256_set1_pd(a[0]);
  const __m256d va1 = _mm256_set1_pd(a[1]);
  const __m256d va2 = _mm256_set1_pd(a[2]);
  const __m256d va3 = _mm256_set1_pd(a[3]);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d acc = _mm256_loadu_pd(y + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(va0, _mm256_loadu_pd(x0 + i)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(va1, _mm256_loadu_pd(x1 + i)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(va2, _mm256_loadu_pd(x2 + i)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(va3, _mm256_loadu_pd(x3 + i)));
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < n; ++i) {
    y[i] = (((y[i] + a[0] * x0[i]) + a[1] * x1[i]) + a[2] * x2[i]) +
           a[3] * x3[i];
  }
}

// Four axpys sharing one pass over `x`: y_q[i] += a[q] * x[i].
__attribute__((target("avx2"))) inline void AxpyTo4Avx2(
    const double a[4], const double* x, double* y0, double* y1, double* y2,
    double* y3, int64_t n) {
  const __m256d va0 = _mm256_set1_pd(a[0]);
  const __m256d va1 = _mm256_set1_pd(a[1]);
  const __m256d va2 = _mm256_set1_pd(a[2]);
  const __m256d va3 = _mm256_set1_pd(a[3]);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y0 + i, _mm256_add_pd(_mm256_loadu_pd(y0 + i),
                                           _mm256_mul_pd(va0, vx)));
    _mm256_storeu_pd(y1 + i, _mm256_add_pd(_mm256_loadu_pd(y1 + i),
                                           _mm256_mul_pd(va1, vx)));
    _mm256_storeu_pd(y2 + i, _mm256_add_pd(_mm256_loadu_pd(y2 + i),
                                           _mm256_mul_pd(va2, vx)));
    _mm256_storeu_pd(y3 + i, _mm256_add_pd(_mm256_loadu_pd(y3 + i),
                                           _mm256_mul_pd(va3, vx)));
  }
  for (; i < n; ++i) {
    y0[i] += a[0] * x[i];
    y1[i] += a[1] * x[i];
    y2[i] += a[2] * x[i];
    y3[i] += a[3] * x[i];
  }
}

#endif  // RMA_SIMD_AVX2

}  // namespace detail

/// out[i] = a[i] + b[i]
inline void Add(const double* a, const double* b, double* out, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::AddAvx2(a, b, out, n);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) return detail::AddNeon(a, b, out, n);
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

/// out[i] = a[i] - b[i]
inline void Sub(const double* a, const double* b, double* out, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::SubAvx2(a, b, out, n);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) return detail::SubNeon(a, b, out, n);
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

/// out[i] = a[i] * b[i]
inline void Mul(const double* a, const double* b, double* out, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::MulAvx2(a, b, out, n);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) return detail::MulNeon(a, b, out, n);
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

/// y[i] += alpha * x[i]
inline void Axpy(double alpha, const double* x, double* y, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::AxpyAvx2(alpha, x, y, n);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) return detail::AxpyNeon(alpha, x, y, n);
#endif
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// x[i] *= alpha
inline void Scale(double alpha, double* x, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::ScaleAvx2(alpha, x, n);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) return detail::ScaleNeon(alpha, x, n);
#endif
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

/// Σ a[i] * b[i] — lane-associated; not bit-identical to the scalar fold.
inline double Dot(const double* a, const double* b, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::DotAvx2(a, b, n);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) return detail::DotNeon(a, b, n);
#endif
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// Σ a[i] — lane-associated.
inline double Sum(const double* a, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::SumAvx2(a, n);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) return detail::SumNeon(a, n);
#endif
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += a[i];
  return s;
}

/// Interleaves four equal-length columns into rows of four:
/// dst[i*stride + {0,1,2,3}] = {c0[i], c1[i], c2[i], c3[i]}. Requires
/// stride >= 4. Pure data movement, so bit-identical across paths.
inline void Pack4(const double* c0, const double* c1, const double* c2,
                  const double* c3, double* dst, int64_t stride, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::Pack4Avx2(c0, c1, c2, c3, dst, stride, n);
#endif
  for (int64_t i = 0; i < n; ++i) {
    double* d = dst + i * stride;
    d[0] = c0[i];
    d[1] = c1[i];
    d[2] = c2[i];
    d[3] = c3[i];
  }
}

/// Inverse of Pack4: c?[i] = src[i*stride + ?].
inline void Unpack4(const double* src, int64_t stride, int64_t n, double* c0,
                    double* c1, double* c2, double* c3) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::Unpack4Avx2(src, stride, n, c0, c1, c2, c3);
#endif
  for (int64_t i = 0; i < n; ++i) {
    const double* s = src + i * stride;
    c0[i] = s[0];
    c1[i] = s[1];
    c2[i] = s[2];
    c3[i] = s[3];
  }
}

/// Four dot products sharing one pass over `v`: out[q] = Σ v[i]*c_q[i].
/// out[q] is bit-identical to Dot(v, c_q, n) on every dispatch path, so a
/// caller may split columns between Dot4 and Dot anywhere.
inline void Dot4(const double* v, const double* c0, const double* c1,
                 const double* c2, const double* c3, int64_t n,
                 double out[4]) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::Dot4Avx2(v, c0, c1, c2, c3, n, out);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) {
    out[0] = detail::DotNeon(v, c0, n);
    out[1] = detail::DotNeon(v, c1, n);
    out[2] = detail::DotNeon(v, c2, n);
    out[3] = detail::DotNeon(v, c3, n);
    return;
  }
#endif
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    s0 += v[i] * c0[i];
    s1 += v[i] * c1[i];
    s2 += v[i] * c2[i];
    s3 += v[i] * c3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

/// Rank-4 update: y[i] += a[0]*x0[i] + a[1]*x1[i] + a[2]*x2[i] + a[3]*x3[i]
/// (left-to-right association in both paths, so modes agree bitwise).
inline void Axpy4(const double a[4], const double* x0, const double* x1,
                  const double* x2, const double* x3, double* y, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::Axpy4Avx2(a, x0, x1, x2, x3, y, n);
#endif
  for (int64_t i = 0; i < n; ++i) {
    y[i] = (((y[i] + a[0] * x0[i]) + a[1] * x1[i]) + a[2] * x2[i]) +
           a[3] * x3[i];
  }
}

/// Four axpys sharing one pass over `x`: y_q[i] += a[q] * x[i]. Per-element
/// identical to four Axpy calls.
inline void AxpyTo4(const double a[4], const double* x, double* y0, double* y1,
                    double* y2, double* y3, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::AxpyTo4Avx2(a, x, y0, y1, y2, y3, n);
#endif
  for (int64_t i = 0; i < n; ++i) {
    y0[i] += a[0] * x[i];
    y1[i] += a[1] * x[i];
    y2[i] += a[2] * x[i];
    y3[i] += a[3] * x[i];
  }
}

/// Σ a[i]² — lane-associated.
inline double SumSquares(const double* a, int64_t n) {
#if defined(RMA_SIMD_AVX2)
  if (Enabled()) return detail::SumSquaresAvx2(a, n);
#elif defined(RMA_SIMD_NEON)
  if (Enabled()) return detail::SumSquaresNeon(a, n);
#endif
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += a[i] * a[i];
  return s;
}

}  // namespace simd
}  // namespace rma

#endif  // RMA_MATRIX_SIMD_H_
