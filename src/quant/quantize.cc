#include "quant/quantize.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace socflow {
namespace quant {

int
quantMax(int bits)
{
    SOCFLOW_ASSERT(bits >= 2 && bits <= 30, "unsupported bit width");
    return (1 << (bits - 1)) - 1;
}

namespace {

using F4 = float __attribute__((vector_size(16)));
using F8 = float __attribute__((vector_size(32)));

/**
 * max|x[i]| on two accumulators of vector type V, then across their
 * lanes and the scalar tail. Every step keeps `a > m ? a : m`, the
 * scalar loop's std::max(m, a): a NaN never becomes the max. Without
 * NaNs a max does not depend on order, and |x| has no -0.0, so every
 * build returns the scalar loop's bits.
 */
template <typename V>
[[gnu::always_inline]] inline float
maxAbsBody(const float *x, std::size_t n)
{
    using Bits = decltype(V{} > V{});
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    V m0 = {}, m1 = {};
    std::size_t i = 0;
    for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
        V a, b;
        std::memcpy(&a, x + i, sizeof a);
        std::memcpy(&b, x + i + kLanes, sizeof b);
        a = (V)((Bits)a & 0x7fffffff);
        b = (V)((Bits)b & 0x7fffffff);
        m0 = a > m0 ? a : m0;
        m1 = b > m1 ? b : m1;
    }
    float mx = 0.0f;
    for (; i < n; ++i) {
        const float a = std::abs(x[i]);
        mx = a > mx ? a : mx;
    }
    for (std::size_t j = 0; j < kLanes; ++j) {
        mx = m0[j] > mx ? m0[j] : mx;
        mx = m1[j] > mx ? m1[j] : mx;
    }
    return mx;
}

/** maxAbsBody at the baseline ISA: 128-bit vectors (maxps on x86). */
float
maxAbsBaseline(const float *x, std::size_t n)
{
    return maxAbsBody<F4>(x, n);
}

#if defined(__x86_64__) || defined(__i386__)
/** maxAbsBody on AVX2's 256-bit vectors. */
[[gnu::target("avx2")]] float
maxAbsAvx2(const float *x, std::size_t n)
{
    return maxAbsBody<F8>(x, n);
}
#endif

} // namespace

namespace detail {

ScaleIsa
scaleHostIsa()
{
#if defined(__x86_64__) || defined(__i386__)
    static const ScaleIsa isa = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") ? ScaleIsa::Avx2
                                              : ScaleIsa::Baseline;
    }();
    return isa;
#else
    return ScaleIsa::Baseline;
#endif
}

float
computeScaleWithIsa(ScaleIsa isa, const float *x, std::size_t n, int bits)
{
    SOCFLOW_ASSERT(isa == ScaleIsa::Baseline || isa == scaleHostIsa(),
                   "max-abs kernel build not supported on this host");
#if defined(__x86_64__) || defined(__i386__)
    const float mx =
        isa == ScaleIsa::Avx2 ? maxAbsAvx2(x, n) : maxAbsBaseline(x, n);
#else
    const float mx = maxAbsBaseline(x, n);
#endif
    if (mx == 0.0f)
        return 0.0f;
    return mx / static_cast<float>(quantMax(bits));
}

} // namespace detail

float
computeScale(const float *x, std::size_t n, int bits)
{
    return detail::computeScaleWithIsa(detail::scaleHostIsa(), x, n, bits);
}

namespace {

/** Round `v` down or up, up with probability frac(v): one draw. */
inline float
roundStochastic(float v, Rng &rng)
{
    const float fl = std::floor(v);
    return fl + (rng.uniform() < v - fl ? 1.0f : 0.0f);
}

} // namespace

void
quantize(const float *x, std::size_t n, float scale,
         const QuantConfig &cfg, Rng *rng, std::int32_t *q)
{
    const int qmax = quantMax(cfg.bits);
    if (scale == 0.0f) {
        std::fill(q, q + n, 0);
        return;
    }
    const float inv = 1.0f / scale;
    for (std::size_t i = 0; i < n; ++i) {
        const float v = x[i] * inv;
        float r = cfg.stochasticRounding && rng ? roundStochastic(v, *rng)
                                                : std::nearbyint(v);
        r = std::clamp(r, static_cast<float>(-qmax),
                       static_cast<float>(qmax));
        // A NaN quotient has no integer; casting it is undefined.
        q[i] = std::isnan(r) ? 0 : static_cast<std::int32_t>(r);
    }
}

void
dequantize(const std::int32_t *q, std::size_t n, float scale, float *x)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] = static_cast<float>(q[i]) * scale;
}

namespace {

/**
 * x <- dequantize(quantize(x)) with round-to-nearest, in one pass and
 * without the int32 buffer: each element takes the same nearbyint and
 * clamp as quantize(). The rounded value is a whole number within
 * +-qmax, which the int32 round trip of dequantize(quantize()) keeps
 * except for -0.0 (int 0 dequantizes to +0.0); adding +0.0 does the
 * same and passes a NaN quotient through as NaN.
 */
[[gnu::always_inline]] inline void
roundTripBody(float *x, std::size_t n, float scale, float inv, float qmax)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float r = std::clamp(std::nearbyint(x[i] * inv), -qmax, qmax);
        x[i] = (r + 0.0f) * scale;
    }
}

/** roundTripBody at the baseline ISA: nearbyint is a libm call. */
void
roundTripBaseline(float *x, std::size_t n, float scale, float inv,
                  float qmax)
{
    roundTripBody(x, n, scale, inv, qmax);
}

#if defined(__x86_64__) || defined(__i386__)
/** roundTripBody with SSE4.1's roundps: the loop vectorises. */
[[gnu::target("sse4.1")]] void
roundTripSse41(float *x, std::size_t n, float scale, float inv, float qmax)
{
    roundTripBody(x, n, scale, inv, qmax);
}
#endif

} // namespace

namespace detail {

RoundIsa
roundHostIsa()
{
#if defined(__x86_64__) || defined(__i386__)
    static const RoundIsa isa = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.1") ? RoundIsa::Sse41
                                                : RoundIsa::Baseline;
    }();
    return isa;
#else
    return RoundIsa::Baseline;
#endif
}

void
fakeQuantizeWithIsa(RoundIsa isa, Tensor &x, const QuantConfig &cfg,
                    Rng *rng)
{
    SOCFLOW_ASSERT(isa == RoundIsa::Baseline || isa == roundHostIsa(),
                   "rounding kernel build not supported on this host");
    const std::size_t n = x.numel();
    if (n == 0)
        return;
    const float scale = computeScale(x.data(), n, cfg.bits);
    if (scale == 0.0f)
        return;
    const float inv = 1.0f / scale;
    const auto qmax = static_cast<float>(quantMax(cfg.bits));
    if (cfg.stochasticRounding && rng) {
        // quantize() then dequantize() in one pass, as roundTripBody.
        float *v = x.data();
        for (std::size_t i = 0; i < n; ++i) {
            const float r =
                std::clamp(roundStochastic(v[i] * inv, *rng), -qmax, qmax);
            v[i] = (r + 0.0f) * scale;
        }
        return;
    }
#if defined(__x86_64__) || defined(__i386__)
    if (isa == RoundIsa::Sse41) {
        roundTripSse41(x.data(), n, scale, inv, qmax);
        return;
    }
#endif
    roundTripBaseline(x.data(), n, scale, inv, qmax);
}

} // namespace detail

void
fakeQuantize(Tensor &x, const QuantConfig &cfg, Rng *rng)
{
    detail::fakeQuantizeWithIsa(detail::roundHostIsa(), x, cfg, rng);
}

void
int8Gemm(const std::int32_t *a, const std::int32_t *b, std::int32_t *c,
         std::size_t m, std::size_t n, std::size_t k)
{
    std::fill(c, c + m * n, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
            const std::int32_t av = a[i * k + p];
            if (av == 0)
                continue;
            const std::int32_t *brow = b + p * n;
            std::int32_t *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

Tensor
quantizedGemmReference(const Tensor &a, const Tensor &b,
                       const QuantConfig &cfg)
{
    SOCFLOW_ASSERT(a.rank() == 2 && b.rank() == 2 &&
                       a.dim(1) == b.dim(0),
                   "quantizedGemmReference shape mismatch");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    const float sa = computeScale(a.data(), a.numel(), cfg.bits);
    const float sb = computeScale(b.data(), b.numel(), cfg.bits);

    QuantConfig deterministic = cfg;
    deterministic.stochasticRounding = false;
    std::vector<std::int32_t> qa(a.numel()), qb(b.numel()),
        qc(m * n);
    quantize(a.data(), a.numel(), sa, deterministic, nullptr, qa.data());
    quantize(b.data(), b.numel(), sb, deterministic, nullptr, qb.data());
    int8Gemm(qa.data(), qb.data(), qc.data(), m, n, k);

    Tensor out({m, n});
    const float scale = sa * sb;
    for (std::size_t i = 0; i < m * n; ++i)
        out[i] = static_cast<float>(qc[i]) * scale;
    return out;
}

} // namespace quant
} // namespace socflow
