#include "math/simd.hpp"

#include <cstring>

#include "util/env.hpp"
#include "util/logging.hpp"

namespace clm {

const char *
simdBackendName(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::kAvx2:
        return "avx2";
    case SimdBackend::kSse2:
        return "sse2";
    case SimdBackend::kNeon:
        return "neon";
    case SimdBackend::kScalar:
        return "scalar";
    }
    return "scalar";
}

const char *
simdIsaName()
{
#if defined(CLM_SIMD_ISA_AVX2)
    return "avx2";
#elif defined(CLM_SIMD_ISA_SSE2)
    return "sse2";
#elif defined(CLM_SIMD_ISA_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

bool
simdBackendSupported(SimdBackend backend)
{
#ifdef CLM_DISABLE_SIMD
    // Scalar-only build: only the scalar table is compiled in.
    return backend == SimdBackend::kScalar;
#else
    switch (backend) {
    case SimdBackend::kScalar:
        return true;
    case SimdBackend::kSse2:
        // SSE2 is the x86-64 baseline; the SSE2 kernel TU is compiled
        // whenever the target is x86 with SSE2 available.
#if defined(__x86_64__) || (defined(__i386__) && defined(__SSE2__))
        return true;
#else
        return false;
#endif
    case SimdBackend::kNeon:
#if defined(__aarch64__) && defined(__ARM_NEON)
        return true;
#else
        return false;
#endif
    case SimdBackend::kAvx2:
        // The AVX2 kernel TU is compiled on every x86 build (under a
        // target pragma), so support is purely a CPUID question.
#if (defined(__x86_64__) || defined(__i386__)) \
    && (defined(__GNUC__) || defined(__clang__))
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
#endif
}

SimdBackend
simdPreferredBackend()
{
    if (simdBackendSupported(SimdBackend::kAvx2))
        return SimdBackend::kAvx2;
    if (simdBackendSupported(SimdBackend::kSse2))
        return SimdBackend::kSse2;
    if (simdBackendSupported(SimdBackend::kNeon))
        return SimdBackend::kNeon;
    return SimdBackend::kScalar;
}

SimdBackend
simdResolveBackend(const char *token, SimdBackend preferred)
{
    if (!token)
        return preferred;
    SimdBackend requested;
    if (std::strcmp(token, "avx2") == 0)
        requested = SimdBackend::kAvx2;
    else if (std::strcmp(token, "sse2") == 0)
        requested = SimdBackend::kSse2;
    else if (std::strcmp(token, "neon") == 0)
        requested = SimdBackend::kNeon;
    else if (std::strcmp(token, "scalar") == 0)
        requested = SimdBackend::kScalar;
    else {
        // envChoice() already warned for CLM_SIMD; this guards direct
        // callers (tests) handing in arbitrary tokens.
        warn("unknown SIMD backend \"", token, "\"; using ",
             simdBackendName(preferred));
        return preferred;
    }
    if (!simdBackendSupported(requested)) {
        warn("CLM_SIMD=", token,
             " is not supported by this build/CPU; using ",
             simdBackendName(preferred));
        return preferred;
    }
    return requested;
}

SimdBackend
simdDispatchBackend()
{
    static const SimdBackend chosen = [] {
        static const char *const kChoices[] = {"avx2", "sse2", "neon",
                                               "scalar"};
        const char *token = envChoice("CLM_SIMD", kChoices, 4, nullptr);
        return simdResolveBackend(token, simdPreferredBackend());
    }();
    return chosen;
}

const char *
simdDispatchName()
{
    return simdBackendName(simdDispatchBackend());
}

} // namespace clm
