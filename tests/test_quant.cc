/**
 * @file
 * Quantization kernel tests: scale/round-trip error bounds,
 * stochastic-rounding unbiasedness, integer GEMM equivalence, and
 * convergence of the INT8 training path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/zoo.hh"
#include "quant/int8_trainer.hh"
#include "quant/quantize.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace socflow;
using namespace socflow::quant;
using socflow::tensor::Tensor;

TEST(Quantize, QuantMaxValues)
{
    EXPECT_EQ(quantMax(8), 127);
    EXPECT_EQ(quantMax(4), 7);
    EXPECT_EQ(quantMax(16), 32767);
}

TEST(Quantize, QuantMaxRejectsSillyWidths)
{
    EXPECT_DEATH(quantMax(1), "bit width");
    EXPECT_DEATH(quantMax(33), "bit width");
}

TEST(Quantize, ScaleFromMaxAbs)
{
    const float xs[] = {0.5f, -2.54f, 1.0f};
    EXPECT_NEAR(computeScale(xs, 3, 8), 2.54f / 127.0f, 1e-7);
}

TEST(Quantize, ZeroTensorScaleIsZero)
{
    const float xs[] = {0.0f, 0.0f};
    EXPECT_EQ(computeScale(xs, 2, 8), 0.0f);
}

TEST(Quantize, RoundTripErrorWithinHalfScale)
{
    Rng rng(1);
    std::vector<float> x(512);
    for (auto &v : x)
        v = static_cast<float>(rng.gaussian());
    const float scale = computeScale(x.data(), x.size(), 8);
    std::vector<std::int32_t> q(x.size());
    QuantConfig cfg;
    cfg.stochasticRounding = false;
    quantize(x.data(), x.size(), scale, cfg, nullptr, q.data());
    std::vector<float> back(x.size());
    dequantize(q.data(), x.size(), scale, back.data());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_LE(std::abs(back[i] - x[i]), scale * 0.5f + 1e-7f);
}

TEST(Quantize, ValuesClampToRange)
{
    const float xs[] = {10.0f};
    std::vector<std::int32_t> q(1);
    QuantConfig cfg;
    cfg.stochasticRounding = false;
    // Deliberately small scale so the value overflows the range.
    quantize(xs, 1, 0.01f, cfg, nullptr, q.data());
    EXPECT_EQ(q[0], 127);
}

TEST(Quantize, StochasticRoundingIsUnbiased)
{
    Rng rng(2);
    QuantConfig cfg;
    cfg.stochasticRounding = true;
    const float x = 0.3f;  // between quant steps for scale=1
    RunningStat s;
    for (int i = 0; i < 20000; ++i) {
        std::int32_t q;
        quantize(&x, 1, 1.0f, cfg, &rng, &q);
        s.add(q);
    }
    EXPECT_NEAR(s.mean(), 0.3, 0.02);
}

TEST(Quantize, FakeQuantizeIdempotentDeterministic)
{
    Rng rng(3);
    Tensor t = Tensor::randn({64}, rng);
    QuantConfig cfg;
    cfg.stochasticRounding = false;
    Tensor once = t;
    fakeQuantize(once, cfg);
    Tensor twice = once;
    fakeQuantize(twice, cfg);
    // Already-quantized values land on the same grid.
    EXPECT_LT(once.maxAbsDiff(twice), 1e-6);
}

namespace {

/**
 * fakeQuantize's round-to-nearest path as two passes: quantize into an
 * int32 buffer, then dequantize, except that an element whose quotient
 * is NaN comes out NaN. The one-pass kernel must match it bit for bit
 * on every other element.
 */
void
twoPassFakeQuantize(Tensor &x, int bits)
{
    const std::size_t n = x.numel();
    const float scale = computeScale(x.data(), n, bits);
    if (scale == 0.0f)
        return;
    const int qmax = quantMax(bits);
    const float inv = 1.0f / scale;
    std::vector<std::int32_t> q(n);
    for (std::size_t i = 0; i < n; ++i) {
        float r = std::nearbyint(x[i] * inv);
        r = std::clamp(r, static_cast<float>(-qmax),
                       static_cast<float>(qmax));
        q[i] = std::isnan(r) ? 0 : static_cast<std::int32_t>(r);
    }
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = std::isnan(x[i] * inv)
                   ? std::numeric_limits<float>::quiet_NaN()
                   : static_cast<float>(q[i]) * scale;
    }
}

/** Element i of `a` and `b` are both NaN or bit-identical. */
bool
sameBitsOrBothNaN(const Tensor &a, const Tensor &b, std::size_t i)
{
    if (std::isnan(a[i]) || std::isnan(b[i]))
        return std::isnan(a[i]) && std::isnan(b[i]);
    return std::memcmp(a.data() + i, b.data() + i, sizeof(float)) == 0;
}

/**
 * Inputs for the differential: ordinary values, exact grid ties
 * (k + 0.5 steps, where round-half-even matters), values that round
 * to -0.0, denormals and NaN; `withInf` adds infinities, which turn
 * the scale infinite.
 */
Tensor
roundingInputs(std::size_t n, bool withInf, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t = Tensor::randn({n}, rng);
    const float step = 3.0f / 127.0f;
    t[0] = 3.0f; // fixes the 8-bit scale at `step`
    for (std::size_t i = 1; i < n; ++i) {
        switch (i % 8) {
        case 1:
            t[i] = (static_cast<float>(rng.uniformInt(200)) - 100.5f) *
                   step;
            break;
        case 2:
            t[i] = -0.001f * step;
            break;
        case 3:
            t[i] = i % 16 == 3 ? -0.0f : 0.0f;
            break;
        case 4:
            t[i] = (i % 16 == 4 ? -1.0f : 1.0f) *
                   std::numeric_limits<float>::denorm_min() *
                   static_cast<float>(1 + rng.uniformInt(1000));
            break;
        case 5:
            t[i] = i % 16 == 5 ? std::numeric_limits<float>::quiet_NaN()
                               : t[i];
            break;
        case 6:
            if (withInf)
                t[i] = (i % 16 == 6 ? -1.0f : 1.0f) *
                       std::numeric_limits<float>::infinity();
            break;
        default:
            break;
        }
    }
    return t;
}

} // namespace

TEST(Quantize, FakeQuantizeBitExactWithTwoPassLoop)
{
    std::vector<detail::RoundIsa> isas = {detail::RoundIsa::Baseline};
    if (detail::roundHostIsa() != detail::RoundIsa::Baseline)
        isas.push_back(detail::roundHostIsa());
    for (const detail::RoundIsa isa : isas)
        for (int bits : {4, 8, 16})
            for (bool withInf : {false, true})
                for (std::size_t n : {std::size_t{1}, std::size_t{37},
                                      std::size_t{1024}}) {
                    Tensor got = roundingInputs(n, withInf, n + bits);
                    Tensor want = got;
                    QuantConfig cfg;
                    cfg.bits = bits;
                    cfg.stochasticRounding = false;
                    detail::fakeQuantizeWithIsa(isa, got, cfg, nullptr);
                    twoPassFakeQuantize(want, bits);
                    for (std::size_t i = 0; i < n; ++i)
                        EXPECT_TRUE(sameBitsOrBothNaN(got, want, i))
                            << "isa=" << static_cast<int>(isa)
                            << " bits=" << bits << " inf=" << withInf
                            << " n=" << n << " i=" << i;
                }
}

TEST(Quantize, NaNStaysNaNOnBothRoundingPaths)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Tensor t = Tensor::fromValues({4}, {1.0f, nan, -0.5f, 2.0f});
    QuantConfig cfg;
    for (const bool stochastic : {false, true}) {
        cfg.stochasticRounding = stochastic;
        Rng rng(3);
        Tensor got = t;
        fakeQuantize(got, cfg, &rng);
        EXPECT_TRUE(std::isnan(got[1])) << "stochastic=" << stochastic;
        for (std::size_t i : {0u, 2u, 3u})
            EXPECT_TRUE(std::isfinite(got[i])) << "i=" << i;
    }
    // quantize() gives NaN a defined integer: 0.
    std::int32_t q[4];
    cfg.stochasticRounding = false;
    quantize(t.data(), 4, computeScale(t.data(), 4, cfg.bits), cfg,
             nullptr, q);
    EXPECT_EQ(q[1], 0);
    EXPECT_EQ(q[3], quantMax(cfg.bits));
}

TEST(Quantize, FakeQuantizeNegativeZeroBecomesPositive)
{
    // -0.0 rounds to the int32 0, which dequantizes to +0.0.
    Tensor t = Tensor::fromValues({3}, {1.0f, -0.0f, -1e-6f});
    QuantConfig cfg;
    cfg.stochasticRounding = false;
    fakeQuantize(t, cfg);
    EXPECT_FALSE(std::signbit(t[1]));
    EXPECT_FALSE(std::signbit(t[2]));
}

TEST(Quantize, FakeQuantizeStochasticPathUnchanged)
{
    // With an Rng the stochastic path still quantizes then dequantizes,
    // drawing one uniform per element in order.
    Rng data(11);
    const Tensor t = Tensor::randn({257}, data);
    QuantConfig cfg;
    Rng a(99), b(99);
    Tensor got = t;
    fakeQuantize(got, cfg, &a);
    Tensor want = t;
    const float scale = computeScale(want.data(), want.numel(), cfg.bits);
    std::vector<std::int32_t> q(want.numel());
    quantize(want.data(), want.numel(), scale, cfg, &b, q.data());
    dequantize(q.data(), q.size(), scale, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * want.numel()),
              0);
    EXPECT_EQ(a.uniform(), b.uniform()); // same number of draws
}

TEST(Quantize, RoundHostIsaIsAvailableBuild)
{
#if defined(__x86_64__) || defined(__i386__)
    EXPECT_EQ(detail::roundHostIsa() == detail::RoundIsa::Sse41,
              __builtin_cpu_supports("sse4.1") != 0);
#else
    EXPECT_EQ(detail::roundHostIsa(), detail::RoundIsa::Baseline);
#endif
}

TEST(Quantize, FakeQuantizeZeroTensorNoop)
{
    Tensor t({8});
    QuantConfig cfg;
    fakeQuantize(t, cfg);
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Int8Gemm, MatchesWideningReference)
{
    Rng rng(4);
    const std::size_t m = 4, k = 6, n = 5;
    std::vector<std::int32_t> a(m * k), b(k * n), c(m * n);
    for (auto &v : a)
        v = static_cast<std::int32_t>(rng.uniformInt(255)) - 127;
    for (auto &v : b)
        v = static_cast<std::int32_t>(rng.uniformInt(255)) - 127;
    int8Gemm(a.data(), b.data(), c.data(), m, n, k);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::size_t p = 0; p < k; ++p)
                acc += static_cast<std::int64_t>(a[i * k + p]) *
                       b[p * n + j];
            EXPECT_EQ(c[i * n + j], acc);
        }
    }
}

TEST(Int8Gemm, QuantizedGemmCloseToFloat)
{
    Rng rng(5);
    Tensor a = Tensor::randn({8, 16}, rng);
    Tensor b = Tensor::randn({16, 8}, rng);
    Tensor exact({8, 8});
    tensor::gemm(a, false, b, false, exact);
    QuantConfig cfg;
    Tensor approx = quantizedGemmReference(a, b, cfg);
    // Relative Frobenius error of INT8 GEMM stays small.
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < exact.numel(); ++i) {
        num += std::pow(approx[i] - exact[i], 2.0);
        den += std::pow(exact[i], 2.0);
    }
    EXPECT_LT(std::sqrt(num / den), 0.05);
}

// ------------------------------------------------- bit-width sweep

class BitWidthSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BitWidthSweep, RoundTripErrorShrinksWithBits)
{
    const int bits = GetParam();
    Rng rng(6);
    Tensor t = Tensor::randn({256}, rng);
    Tensor q = t;
    QuantConfig cfg;
    cfg.bits = bits;
    cfg.stochasticRounding = false;
    fakeQuantize(q, cfg);
    const double err = q.maxAbsDiff(t);
    const float scale =
        computeScale(t.data(), t.numel(), bits);
    EXPECT_LE(err, scale * 0.5 + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitWidthSweep,
                         ::testing::Values(4, 8, 16));

// --------------------------------------------------- INT8 training

TEST(Int8Trainer, LearnsToyProblem)
{
    Rng rng(7);
    nn::Model m = nn::buildModel("mlp", nn::NetSpec{1, 4, 4, 2}, rng);
    nn::SgdConfig scfg;
    scfg.learningRate = 0.05;
    Int8Trainer trainer(m, scfg, QuantConfig{});

    Tensor x = Tensor::randn({16, 1, 4, 4}, rng);
    std::vector<int> y;
    for (int i = 0; i < 16; ++i)
        y.push_back(i % 2);

    const double loss0 = trainer.trainStep(x, y).loss;
    double lossN = loss0;
    for (int it = 0; it < 40; ++it)
        lossN = trainer.trainStep(x, y).loss;
    EXPECT_LT(lossN, loss0 * 0.7);
}

TEST(Int8Trainer, WeightsLiveOnIntegerGrid)
{
    Rng rng(8);
    nn::Model m = nn::buildModel("mlp", nn::NetSpec{1, 4, 4, 2}, rng);
    Int8Trainer trainer(m, nn::SgdConfig{}, QuantConfig{});
    Tensor x = Tensor::randn({4, 1, 4, 4}, rng);
    trainer.trainStep(x, {0, 1, 0, 1});
    // The NPU has no FP32 side-store: after a step every parameter
    // tensor sits on its own INT8 grid (this quantized weight storage
    // is what produces the INT8 accuracy ceiling).
    for (nn::Param *p : m.params()) {
        const float scale =
            computeScale(p->value.data(), p->value.numel(), 8);
        if (scale == 0.0f)
            continue;
        for (std::size_t i = 0; i < p->value.numel(); ++i) {
            const float r = p->value[i] / scale;
            EXPECT_NEAR(r, std::nearbyint(r), 1e-3)
                << p->name << "[" << i << "]";
        }
    }
}

TEST(Int8Trainer, LogitsComputedUnderQuantizedWeights)
{
    Rng rng(9);
    nn::Model m = nn::buildModel("mlp", nn::NetSpec{1, 4, 4, 2}, rng);
    Int8Trainer trainer(m, nn::SgdConfig{}, QuantConfig{});
    Tensor x = Tensor::randn({4, 1, 4, 4}, rng);

    const auto before = m.flatParams();
    Tensor ql = trainer.logits(x);
    // Weights restored exactly after the temporary quantization.
    EXPECT_EQ(m.flatParams(), before);
    // Quantized logits differ from (but correlate with) FP32 logits.
    Tensor fl = m.logits(x);
    EXPECT_GT(tensor::cosineSimilarity(ql, fl), 0.9);
    EXPECT_GT(ql.maxAbsDiff(fl), 0.0);
}
