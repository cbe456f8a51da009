#include "quant/quantize.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace socflow {
namespace quant {

int
quantMax(int bits)
{
    SOCFLOW_ASSERT(bits >= 2 && bits <= 30, "unsupported bit width");
    return (1 << (bits - 1)) - 1;
}

float
computeScale(const float *x, std::size_t n, int bits)
{
    float mx = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        mx = std::max(mx, std::abs(x[i]));
    if (mx == 0.0f)
        return 0.0f;
    return mx / static_cast<float>(quantMax(bits));
}

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
        float r;
        if (cfg.stochasticRounding && rng) {
            const float fl = std::floor(v);
            const float frac = v - fl;
            r = fl + (rng->uniform() < frac ? 1.0f : 0.0f);
        } else {
            r = std::nearbyint(v);
        }
        r = std::clamp(r, static_cast<float>(-qmax),
                       static_cast<float>(qmax));
        q[i] = static_cast<std::int32_t>(r);
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
 * without the int32 buffer: each element takes the same nearbyint,
 * clamp and int32 round trip (-0.0 -> +0.0; NaN -> INT32_MIN, then
 * times scale) as quantize() followed by dequantize().
 */
[[gnu::always_inline]] inline void
roundTripBody(float *x, std::size_t n, float scale, float inv, float qmax)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float r = std::clamp(std::nearbyint(x[i] * inv), -qmax, qmax);
        x[i] = static_cast<float>(static_cast<std::int32_t>(r)) * scale;
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
    if (cfg.stochasticRounding && rng) {
        std::vector<std::int32_t> q(n);
        quantize(x.data(), n, scale, cfg, rng, q.data());
        dequantize(q.data(), n, scale, x.data());
        return;
    }
    const float inv = 1.0f / scale;
    const auto qmax = static_cast<float>(quantMax(cfg.bits));
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
