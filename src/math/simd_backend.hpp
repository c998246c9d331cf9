/**
 * @file
 * Runtime SIMD backend selection — the dispatch half of the SIMD layer,
 * deliberately free of intrinsics and of the F8 type so render headers
 * can depend on it without pulling vector code into every translation
 * unit (the per-ISA kernel TUs compile F8 under their own target
 * pragmas; see render/simd_kernels_*.cpp).
 *
 * One binary carries kernel tables for every backend its architecture
 * can express (x86-64: avx2 + sse2 + scalar; aarch64: neon + scalar);
 * at startup the best CPU-supported backend is picked in the order
 * AVX2 -> SSE2 -> NEON -> scalar. The CLM_SIMD environment variable
 * (avx2|sse2|neon|scalar) overrides the choice downward for testing —
 * an unsupported or malformed value warns and keeps the automatic
 * pick. Because every F8 backend runs the same IEEE op sequence,
 * switching backends never changes a single output bit, only speed;
 * CI runs the full test suite under forced CLM_SIMD=sse2/scalar to
 * hold that guarantee.
 *
 * -DCLM_DISABLE_SIMD=ON builds compile only the scalar table; it runs
 * the same op sequence, so they produce the same bits as SIMD builds.
 */

#ifndef CLM_MATH_SIMD_BACKEND_HPP
#define CLM_MATH_SIMD_BACKEND_HPP

namespace clm {

/** True when built with -DCLM_DISABLE_SIMD=ON (scalar table only). */
#ifdef CLM_DISABLE_SIMD
constexpr bool kSimdDisabled = true;
#else
constexpr bool kSimdDisabled = false;
#endif

/** The F8 implementations a binary can dispatch between. */
enum class SimdBackend
{
    kScalar = 0,
    kSse2,
    kNeon,
    kAvx2,
};

/** Number of SimdBackend values (for iteration in benches/tests). */
constexpr int kNumSimdBackends = 4;

/** "avx2", "sse2", "neon" or "scalar". */
const char *simdBackendName(SimdBackend backend);

/** Compile-time baseline backend name of F8 in ordinary (non-kernel)
 *  translation units: "avx2", "sse2", "neon" or "scalar". This is what
 *  the compiler flags picked (-march=native, -DCLM_DISABLE_SIMD), NOT
 *  the runtime dispatch choice — see simdDispatchName(). */
const char *simdIsaName();

/** Whether this build + CPU can run @p backend's kernel table. */
bool simdBackendSupported(SimdBackend backend);

/** Best CPU-supported backend: AVX2 -> SSE2 -> NEON -> scalar. */
SimdBackend simdPreferredBackend();

/**
 * The backend the kernel dispatch tables actually run: the preferred
 * backend unless CLM_SIMD forces another supported one. Resolved once
 * at first use and cached for the process lifetime.
 */
SimdBackend simdDispatchBackend();

/** simdBackendName(simdDispatchBackend()). */
const char *simdDispatchName();

/**
 * Pure resolution step behind simdDispatchBackend(), exposed for tests:
 * map a CLM_SIMD token (may be null = unset) onto a backend, warning
 * and falling back to @p preferred when the token is unknown or names
 * an unsupported backend.
 */
SimdBackend simdResolveBackend(const char *token, SimdBackend preferred);

} // namespace clm

#endif // CLM_MATH_SIMD_BACKEND_HPP
