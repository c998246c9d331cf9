/**
 * @file
 * Portable 8-lane float SIMD batches for the compositing hot loops.
 *
 * F8 is a fixed-width batch of 8 floats with one backend selected per
 * translation unit:
 *
 *   - AVX2:          one 256-bit register
 *   - SSE2 (the x86-64 baseline): two 128-bit registers
 *   - NEON (`__aarch64__`):       two 128-bit registers
 *   - scalar fallback:            a plain float[8]
 *
 * Ordinary translation units get the backend the compiler flags allow
 * (`__AVX2__` from -march=native, else `__SSE2__`/NEON, else scalar).
 * The per-ISA render kernel TUs (render/simd_kernels_*.cpp) instead
 * *force* a backend by defining CLM_F8_FORCE_{AVX2,SSE2,NEON,SCALAR}
 * before including this header — that is how one binary carries kernels
 * for several ISAs and picks between them at startup (runtime dispatch;
 * see math/simd_backend.hpp). Each backend lives in its own inline
 * namespace (clm::f8_avx2::F8, clm::f8_sse2::F8, ...), so forced TUs
 * with different backends can coexist in one binary without ODR
 * violations while plain `clm::F8` keeps working everywhere.
 *
 * Building with `-DCLM_DISABLE_SIMD=ON` forces the scalar fallback in
 * every translation unit, so the binary compiles the scalar kernel table
 * alone. It runs the same op sequence as the vector backends, so that
 * build's outputs are bitwise identical to a SIMD build's.
 *
 * Every backend performs the *same* IEEE-754 single-precision operation
 * sequence — no FMA contraction, division and sqrt are the
 * correctly-rounded IEEE results everywhere, and min/max follow the SSE
 * convention `min(a, b) = a < b ? a : b` (returns b on unordered) on
 * every backend — so a given F8 expression produces bitwise-identical
 * results on every ISA and on the scalar fallback. Results are therefore
 * run-to-run and machine-to-machine deterministic, and independent of
 * the dispatch choice; only the speed changes.
 *
 * Masks are F8 values whose lanes are all-ones (true) or all-zeros
 * (false) bit patterns, as produced by lt()/gt(); combine them with
 * bitAnd/bitOr/bitAndNot and apply them with select().
 */

#ifndef CLM_MATH_SIMD_HPP
#define CLM_MATH_SIMD_HPP

#include <cmath>
#include <cstdint>
#include <cstring>

#include "math/simd_backend.hpp"

// Backend selection: an explicit CLM_F8_FORCE_* request (kernel TUs)
// wins; otherwise the compiler flags decide, exactly as before runtime
// dispatch existed.
#if defined(CLM_F8_FORCE_AVX2)
#define CLM_SIMD_ISA_AVX2 1
#elif defined(CLM_F8_FORCE_SSE2)
#define CLM_SIMD_ISA_SSE2 1
#elif defined(CLM_F8_FORCE_NEON)
#define CLM_SIMD_ISA_NEON 1
#elif defined(CLM_F8_FORCE_SCALAR)
#define CLM_SIMD_ISA_SCALAR 1
#elif !defined(CLM_DISABLE_SIMD) && defined(__AVX2__)
#define CLM_SIMD_ISA_AVX2 1
#elif !defined(CLM_DISABLE_SIMD) && defined(__SSE2__)
#define CLM_SIMD_ISA_SSE2 1
#elif !defined(CLM_DISABLE_SIMD) && defined(__aarch64__) \
    && defined(__ARM_NEON)
#define CLM_SIMD_ISA_NEON 1
#else
#define CLM_SIMD_ISA_SCALAR 1
#endif

#if defined(CLM_SIMD_ISA_AVX2)
#include <immintrin.h>
#define CLM_F8_NAMESPACE f8_avx2
#elif defined(CLM_SIMD_ISA_SSE2)
#include <emmintrin.h>
#define CLM_F8_NAMESPACE f8_sse2
#elif defined(CLM_SIMD_ISA_NEON)
#include <arm_neon.h>
#define CLM_F8_NAMESPACE f8_neon
#else
#define CLM_F8_NAMESPACE f8_scalar
#endif

namespace clm {

/** Measured ULP bound of exp8() against the correctly-rounded float
 *  exponential over its full clamped domain [-87.34, 88.38] (asserted by
 *  test_simd.cpp with a dense sweep). */
constexpr int kExp8MaxUlp = 2;

/** This TU's F8 backend lives here; `clm::F8` resolves through the
 *  inline namespace, while the qualified names stay distinct per
 *  backend so multi-backend binaries are ODR-clean. */
inline namespace CLM_F8_NAMESPACE {

#if defined(CLM_SIMD_ISA_AVX2)

struct F8
{
    __m256 v;

    static F8 broadcast(float x) { return {_mm256_set1_ps(x)}; }
    static F8 zero() { return {_mm256_setzero_ps()}; }
    static F8 load(const float *p) { return {_mm256_loadu_ps(p)}; }
    void store(float *p) const { _mm256_storeu_ps(p, v); }

    static F8 min(F8 a, F8 b) { return {_mm256_min_ps(a.v, b.v)}; }
    static F8 max(F8 a, F8 b) { return {_mm256_max_ps(a.v, b.v)}; }
    /** Correctly-rounded IEEE square root, like std::sqrt per lane. */
    static F8 sqrt(F8 a) { return {_mm256_sqrt_ps(a.v)}; }

    static F8 lt(F8 a, F8 b)
    { return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)}; }
    static F8 gt(F8 a, F8 b)
    { return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)}; }

    static F8 bitAnd(F8 a, F8 b) { return {_mm256_and_ps(a.v, b.v)}; }
    static F8 bitOr(F8 a, F8 b) { return {_mm256_or_ps(a.v, b.v)}; }
    /** (~mask) & v */
    static F8 bitAndNot(F8 mask, F8 v)
    { return {_mm256_andnot_ps(mask.v, v.v)}; }

    /** Bitwise per-lane mask ? a : b (mask lanes all-ones/all-zeros). */
    static F8 select(F8 mask, F8 a, F8 b)
    {
        return {_mm256_or_ps(_mm256_and_ps(mask.v, a.v),
                             _mm256_andnot_ps(mask.v, b.v))};
    }

    static bool any(F8 mask) { return _mm256_movemask_ps(mask.v) != 0; }
    static bool all(F8 mask)
    { return _mm256_movemask_ps(mask.v) == 0xff; }

    /** Round each lane to the nearest integer n (ties to even; |x| must
     *  stay well under 2^22) returning n as float plus 2^n assembled via
     *  the exponent field (n must stay within [-126, 127]). */
    static void roundAndExp2(F8 x, F8 &n_float, F8 &pow2n)
    {
        __m256i n = _mm256_cvtps_epi32(x.v);
        n_float = {_mm256_cvtepi32_ps(n)};
        __m256i e =
            _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)),
                              23);
        pow2n = {_mm256_castsi256_ps(e)};
    }
};

// Arithmetic lives OUTSIDE the class on every backend: GCC applies a
// `#pragma GCC target` region (how the AVX2 kernel TU builds without
// -mavx2) to free inline functions but NOT to friend functions defined
// inside a class body — those would be codegen'd for the baseline ISA
// and fail to inline the always_inline intrinsics.
inline F8 operator+(F8 a, F8 b) { return {_mm256_add_ps(a.v, b.v)}; }
inline F8 operator-(F8 a, F8 b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline F8 operator*(F8 a, F8 b) { return {_mm256_mul_ps(a.v, b.v)}; }
/** IEEE single division — correctly rounded on every backend, so
 *  quotients are bitwise identical across ISAs like every other op. */
inline F8 operator/(F8 a, F8 b) { return {_mm256_div_ps(a.v, b.v)}; }

#elif defined(CLM_SIMD_ISA_SSE2)

struct F8
{
    __m128 lo, hi;

    static F8 broadcast(float x)
    { return {_mm_set1_ps(x), _mm_set1_ps(x)}; }
    static F8 zero()
    { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
    static F8 load(const float *p)
    { return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)}; }
    void store(float *p) const
    {
        _mm_storeu_ps(p, lo);
        _mm_storeu_ps(p + 4, hi);
    }

    static F8 min(F8 a, F8 b)
    { return {_mm_min_ps(a.lo, b.lo), _mm_min_ps(a.hi, b.hi)}; }
    static F8 max(F8 a, F8 b)
    { return {_mm_max_ps(a.lo, b.lo), _mm_max_ps(a.hi, b.hi)}; }
    static F8 sqrt(F8 a) { return {_mm_sqrt_ps(a.lo), _mm_sqrt_ps(a.hi)}; }

    static F8 lt(F8 a, F8 b)
    { return {_mm_cmplt_ps(a.lo, b.lo), _mm_cmplt_ps(a.hi, b.hi)}; }
    static F8 gt(F8 a, F8 b)
    { return {_mm_cmpgt_ps(a.lo, b.lo), _mm_cmpgt_ps(a.hi, b.hi)}; }

    static F8 bitAnd(F8 a, F8 b)
    { return {_mm_and_ps(a.lo, b.lo), _mm_and_ps(a.hi, b.hi)}; }
    static F8 bitOr(F8 a, F8 b)
    { return {_mm_or_ps(a.lo, b.lo), _mm_or_ps(a.hi, b.hi)}; }
    static F8 bitAndNot(F8 mask, F8 v)
    { return {_mm_andnot_ps(mask.lo, v.lo), _mm_andnot_ps(mask.hi, v.hi)}; }

    static F8 select(F8 mask, F8 a, F8 b)
    {
        return {_mm_or_ps(_mm_and_ps(mask.lo, a.lo),
                          _mm_andnot_ps(mask.lo, b.lo)),
                _mm_or_ps(_mm_and_ps(mask.hi, a.hi),
                          _mm_andnot_ps(mask.hi, b.hi))};
    }

    static bool any(F8 mask)
    {
        return (_mm_movemask_ps(mask.lo) | _mm_movemask_ps(mask.hi)) != 0;
    }
    static bool all(F8 mask)
    {
        return (_mm_movemask_ps(mask.lo) & _mm_movemask_ps(mask.hi)) == 0xf;
    }

    static void roundAndExp2(F8 x, F8 &n_float, F8 &pow2n)
    {
        __m128i nl = _mm_cvtps_epi32(x.lo);
        __m128i nh = _mm_cvtps_epi32(x.hi);
        n_float = {_mm_cvtepi32_ps(nl), _mm_cvtepi32_ps(nh)};
        __m128i bias = _mm_set1_epi32(127);
        pow2n = {_mm_castsi128_ps(
                     _mm_slli_epi32(_mm_add_epi32(nl, bias), 23)),
                 _mm_castsi128_ps(
                     _mm_slli_epi32(_mm_add_epi32(nh, bias), 23))};
    }
};

// Out-of-class for pragma-target compatibility (see the AVX2 backend).
inline F8 operator+(F8 a, F8 b)
{ return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)}; }
inline F8 operator-(F8 a, F8 b)
{ return {_mm_sub_ps(a.lo, b.lo), _mm_sub_ps(a.hi, b.hi)}; }
inline F8 operator*(F8 a, F8 b)
{ return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)}; }
inline F8 operator/(F8 a, F8 b)
{ return {_mm_div_ps(a.lo, b.lo), _mm_div_ps(a.hi, b.hi)}; }

#elif defined(CLM_SIMD_ISA_NEON)

struct F8
{
    float32x4_t lo, hi;

    static F8 broadcast(float x)
    { return {vdupq_n_f32(x), vdupq_n_f32(x)}; }
    static F8 zero()
    { return {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)}; }
    static F8 load(const float *p)
    { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
    void store(float *p) const
    {
        vst1q_f32(p, lo);
        vst1q_f32(p + 4, hi);
    }

    static F8 lt(F8 a, F8 b)
    {
        return {vreinterpretq_f32_u32(vcltq_f32(a.lo, b.lo)),
                vreinterpretq_f32_u32(vcltq_f32(a.hi, b.hi))};
    }
    static F8 gt(F8 a, F8 b)
    {
        return {vreinterpretq_f32_u32(vcgtq_f32(a.lo, b.lo)),
                vreinterpretq_f32_u32(vcgtq_f32(a.hi, b.hi))};
    }

    /** vminq_f32 differs from SSE on NaN, so min/max are built from the
     *  compare + select the other backends are exactly equivalent to. */
    static F8 min(F8 a, F8 b) { return select(lt(a, b), a, b); }
    static F8 max(F8 a, F8 b) { return select(gt(a, b), a, b); }
    /** vsqrtq_f32 (AArch64) is the correctly-rounded IEEE root. */
    static F8 sqrt(F8 a) { return {vsqrtq_f32(a.lo), vsqrtq_f32(a.hi)}; }

    static F8 bitAnd(F8 a, F8 b)
    {
        return {vreinterpretq_f32_u32(
                    vandq_u32(vreinterpretq_u32_f32(a.lo),
                              vreinterpretq_u32_f32(b.lo))),
                vreinterpretq_f32_u32(
                    vandq_u32(vreinterpretq_u32_f32(a.hi),
                              vreinterpretq_u32_f32(b.hi)))};
    }
    static F8 bitOr(F8 a, F8 b)
    {
        return {vreinterpretq_f32_u32(
                    vorrq_u32(vreinterpretq_u32_f32(a.lo),
                              vreinterpretq_u32_f32(b.lo))),
                vreinterpretq_f32_u32(
                    vorrq_u32(vreinterpretq_u32_f32(a.hi),
                              vreinterpretq_u32_f32(b.hi)))};
    }
    static F8 bitAndNot(F8 mask, F8 v)
    {
        return {vreinterpretq_f32_u32(
                    vbicq_u32(vreinterpretq_u32_f32(v.lo),
                              vreinterpretq_u32_f32(mask.lo))),
                vreinterpretq_f32_u32(
                    vbicq_u32(vreinterpretq_u32_f32(v.hi),
                              vreinterpretq_u32_f32(mask.hi)))};
    }

    static F8 select(F8 mask, F8 a, F8 b)
    {
        return {vbslq_f32(vreinterpretq_u32_f32(mask.lo), a.lo, b.lo),
                vbslq_f32(vreinterpretq_u32_f32(mask.hi), a.hi, b.hi)};
    }

    static bool any(F8 mask)
    {
        return (vmaxvq_u32(vreinterpretq_u32_f32(mask.lo))
                | vmaxvq_u32(vreinterpretq_u32_f32(mask.hi)))
            != 0;
    }
    static bool all(F8 mask)
    {
        return vminvq_u32(vreinterpretq_u32_f32(mask.lo)) == 0xffffffffu
            && vminvq_u32(vreinterpretq_u32_f32(mask.hi)) == 0xffffffffu;
    }

    static void roundAndExp2(F8 x, F8 &n_float, F8 &pow2n)
    {
        int32x4_t nl = vcvtnq_s32_f32(x.lo);    // nearest, ties to even
        int32x4_t nh = vcvtnq_s32_f32(x.hi);
        n_float = {vcvtq_f32_s32(nl), vcvtq_f32_s32(nh)};
        int32x4_t bias = vdupq_n_s32(127);
        pow2n = {vreinterpretq_f32_s32(
                     vshlq_n_s32(vaddq_s32(nl, bias), 23)),
                 vreinterpretq_f32_s32(
                     vshlq_n_s32(vaddq_s32(nh, bias), 23))};
    }
};

// Out-of-class for pragma-target compatibility (see the AVX2 backend).
inline F8 operator+(F8 a, F8 b)
{ return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)}; }
inline F8 operator-(F8 a, F8 b)
{ return {vsubq_f32(a.lo, b.lo), vsubq_f32(a.hi, b.hi)}; }
inline F8 operator*(F8 a, F8 b)
{ return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)}; }
/** vdivq_f32 (AArch64) is the correctly-rounded IEEE quotient. */
inline F8 operator/(F8 a, F8 b)
{ return {vdivq_f32(a.lo, b.lo), vdivq_f32(a.hi, b.hi)}; }

#else    // CLM_SIMD_ISA_SCALAR

struct F8
{
    float v[8];

    static F8 broadcast(float x)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = x;
        return r;
    }
    static F8 zero() { return broadcast(0.0f); }
    static F8 load(const float *p)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = p[l];
        return r;
    }
    void store(float *p) const
    {
        for (int l = 0; l < 8; ++l)
            p[l] = v[l];
    }

    // SSE semantics: min(a, b) = a < b ? a : b (b on unordered).
    static F8 min(F8 a, F8 b)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
        return r;
    }
    static F8 max(F8 a, F8 b)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
        return r;
    }
    static F8 sqrt(F8 a)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = std::sqrt(a.v[l]);
        return r;
    }

    static uint32_t bits(float x)
    {
        uint32_t u;
        std::memcpy(&u, &x, sizeof(u));
        return u;
    }
    static float fromBits(uint32_t u)
    {
        float x;
        std::memcpy(&x, &u, sizeof(x));
        return x;
    }

    static F8 lt(F8 a, F8 b)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = fromBits(a.v[l] < b.v[l] ? 0xffffffffu : 0u);
        return r;
    }
    static F8 gt(F8 a, F8 b)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = fromBits(a.v[l] > b.v[l] ? 0xffffffffu : 0u);
        return r;
    }

    static F8 bitAnd(F8 a, F8 b)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = fromBits(bits(a.v[l]) & bits(b.v[l]));
        return r;
    }
    static F8 bitOr(F8 a, F8 b)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = fromBits(bits(a.v[l]) | bits(b.v[l]));
        return r;
    }
    static F8 bitAndNot(F8 mask, F8 v_)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = fromBits(~bits(mask.v[l]) & bits(v_.v[l]));
        return r;
    }

    static F8 select(F8 mask, F8 a, F8 b)
    {
        F8 r;
        for (int l = 0; l < 8; ++l)
            r.v[l] = fromBits((bits(mask.v[l]) & bits(a.v[l]))
                              | (~bits(mask.v[l]) & bits(b.v[l])));
        return r;
    }

    static bool any(F8 mask)
    {
        for (int l = 0; l < 8; ++l)
            if (bits(mask.v[l]) & 0x80000000u)
                return true;
        return false;
    }
    static bool all(F8 mask)
    {
        for (int l = 0; l < 8; ++l)
            if (!(bits(mask.v[l]) & 0x80000000u))
                return false;
        return true;
    }

    static void roundAndExp2(F8 x, F8 &n_float, F8 &pow2n)
    {
        for (int l = 0; l < 8; ++l) {
            // lrintf: nearest, ties to even (default rounding mode) —
            // matches cvtps_epi32 / vcvtnq.
            int32_t n = static_cast<int32_t>(std::lrint(x.v[l]));
            n_float.v[l] = static_cast<float>(n);
            pow2n.v[l] =
                fromBits(static_cast<uint32_t>(n + 127) << 23);
        }
    }
};

// Out-of-class for pragma-target compatibility (see the AVX2 backend).
inline F8
operator+(F8 a, F8 b)
{
    F8 r;
    for (int l = 0; l < 8; ++l)
        r.v[l] = a.v[l] + b.v[l];
    return r;
}
inline F8
operator-(F8 a, F8 b)
{
    F8 r;
    for (int l = 0; l < 8; ++l)
        r.v[l] = a.v[l] - b.v[l];
    return r;
}
inline F8
operator*(F8 a, F8 b)
{
    F8 r;
    for (int l = 0; l < 8; ++l)
        r.v[l] = a.v[l] * b.v[l];
    return r;
}
inline F8
operator/(F8 a, F8 b)
{
    F8 r;
    for (int l = 0; l < 8; ++l)
        r.v[l] = a.v[l] / b.v[l];
    return r;
}

#endif    // backend selection

/**
 * Batched single-precision e^x (Cephes-style polynomial, the classic
 * sse_mathfun kernel): range-reduce x = n*ln2 + r with a two-constant
 * Cody-Waite ln2, evaluate a degree-7 minimax polynomial of e^r on
 * r in [-ln2/2, ln2/2], and scale by 2^n through the exponent field.
 *
 * Domain: x is clamped to [-87.34, 88.38] (results saturate at the
 * finite-float boundaries; no infinities or denormal-scaling surprises).
 * Accuracy: within kExp8MaxUlp (= 2) ULP of the correctly-rounded float
 * exponential over the whole clamped domain — asserted against a dense
 * sweep by test_simd.cpp. exp8(0) == 1 exactly.
 *
 * Deterministic: a fixed op sequence of IEEE single ops (no FMA), so the
 * result is bitwise identical across runs, thread counts, and backends.
 */
inline F8
exp8(F8 x)
{
    const F8 hi = F8::broadcast(88.3762626647949f);
    const F8 lo = F8::broadcast(-87.3365478515625f);
    const F8 log2e = F8::broadcast(1.44269504088896341f);
    const F8 ln2_hi = F8::broadcast(0.693359375f);
    const F8 ln2_lo = F8::broadcast(-2.12194440e-4f);
    const F8 one = F8::broadcast(1.0f);

    x = F8::min(x, hi);
    x = F8::max(x, lo);

    // n = round(x / ln2), r = x - n*ln2 (hi+lo split keeps r accurate).
    F8 n_float, pow2n;
    F8::roundAndExp2(x * log2e, n_float, pow2n);
    F8 r = x - n_float * ln2_hi;
    r = r - n_float * ln2_lo;

    F8 z = r * r;
    F8 p = F8::broadcast(1.9875691500e-4f);
    p = p * r + F8::broadcast(1.3981999507e-3f);
    p = p * r + F8::broadcast(8.3334519073e-3f);
    p = p * r + F8::broadcast(4.1665795894e-2f);
    p = p * r + F8::broadcast(1.6666665459e-1f);
    p = p * r + F8::broadcast(5.0000001201e-1f);
    F8 y = p * z + r + one;
    return y * pow2n;
}

} // inline namespace CLM_F8_NAMESPACE

} // namespace clm

#endif // CLM_MATH_SIMD_HPP
