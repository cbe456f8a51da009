/**
 * @file
 * Tests for the tensor container and dense kernels, including GEMM
 * cross-checked against a naive reference over a parameter sweep and
 * a numeric gradient check of the softmax cross-entropy head.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace socflow;
using namespace socflow::tensor;

// --------------------------------------------------------------- Tensor

TEST(Tensor, ZerosShapeAndValue)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6u);
    EXPECT_EQ(t.rank(), 2u);
    EXPECT_EQ(t.dim(0), 2u);
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FromValuesAndAt)
{
    Tensor t = Tensor::fromValues({2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(t.at(0, 1), 2.0f);
    EXPECT_EQ(t.at(1, 0), 3.0f);
    t.at(1, 1) = 9.0f;
    EXPECT_EQ(t[3], 9.0f);
}

TEST(Tensor, RandnStatistics)
{
    Rng rng(3);
    Tensor t = Tensor::randn({100, 100}, rng, 2.0f);
    double mean = t.sum() / t.numel();
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(t.norm() / std::sqrt(t.numel()), 2.0, 0.05);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t = Tensor::fromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    t.reshape({3, 2});
    EXPECT_EQ(t.at(2, 1), 6.0f);
}

TEST(Tensor, ReshapeWrongCountPanics)
{
    Tensor t({2, 3});
    EXPECT_DEATH(t.reshape({4, 2}), "preserve");
}

TEST(Tensor, EqualsAndMaxAbsDiff)
{
    Tensor a = Tensor::fromValues({3}, {1, 2, 3});
    Tensor b = Tensor::fromValues({3}, {1, 2.5, 3});
    EXPECT_FALSE(a.equals(b));
    EXPECT_NEAR(a.maxAbsDiff(b), 0.5, 1e-7);
    EXPECT_TRUE(a.equals(a));
}

TEST(Tensor, ShapeHelpers)
{
    EXPECT_EQ(shapeNumel({2, 3, 4}), 24u);
    EXPECT_EQ(shapeNumel({}), 0u);
    EXPECT_EQ(shapeStr({1, 2}), "[1, 2]");
}

// ----------------------------------------------------------------- gemm

namespace {

void
naiveGemm(const Tensor &a, bool ta, const Tensor &b, bool tb, Tensor &c)
{
    const std::size_t m = c.dim(0), n = c.dim(1);
    const std::size_t k = ta ? a.dim(0) : a.dim(1);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                const float av = ta ? a.at(p, i) : a.at(i, p);
                const float bv = tb ? b.at(j, p) : b.at(p, j);
                acc += static_cast<double>(av) * bv;
            }
            c.at(i, j) = static_cast<float>(acc);
        }
    }
}

} // namespace

struct GemmCase {
    std::size_t m, k, n;
    bool ta, tb;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase>
{
};

TEST_P(GemmSweep, MatchesNaive)
{
    const auto p = GetParam();
    Rng rng(p.m * 131 + p.k * 17 + p.n);
    Tensor a = Tensor::randn(p.ta ? Shape{p.k, p.m} : Shape{p.m, p.k},
                             rng);
    Tensor b = Tensor::randn(p.tb ? Shape{p.n, p.k} : Shape{p.k, p.n},
                             rng);
    Tensor c({p.m, p.n}), ref({p.m, p.n});
    gemm(a, p.ta, b, p.tb, c);
    naiveGemm(a, p.ta, b, p.tb, ref);
    EXPECT_LT(c.maxAbsDiff(ref), 1e-3)
        << "m=" << p.m << " k=" << p.k << " n=" << p.n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmCase{1, 1, 1, false, false},
                      GemmCase{3, 5, 7, false, false},
                      GemmCase{3, 5, 7, true, false},
                      GemmCase{3, 5, 7, false, true},
                      GemmCase{3, 5, 7, true, true},
                      GemmCase{64, 64, 64, false, false},
                      GemmCase{65, 70, 129, false, false},
                      GemmCase{128, 1, 128, false, false},
                      GemmCase{1, 128, 1, true, true}));

TEST(Gemm, BetaAccumulates)
{
    Tensor a = Tensor::fromValues({1, 1}, {2});
    Tensor b = Tensor::fromValues({1, 1}, {3});
    Tensor c = Tensor::fromValues({1, 1}, {10});
    gemm(a, false, b, false, c, 1.0f);
    EXPECT_FLOAT_EQ(c[0], 16.0f);
    gemm(a, false, b, false, c, 0.5f);
    EXPECT_FLOAT_EQ(c[0], 14.0f);
}

TEST(Gemm, MismatchPanics)
{
    Tensor a({2, 3}), b({4, 5}), c({2, 5});
    EXPECT_DEATH(gemm(a, false, b, false, c), "inner");
}

// ------------------------------------------------- gemm differential

namespace {

/**
 * The row-streaming GEMM with no dispatch, scratch or fan-out:
 * per-element transposes into fresh vectors, then the 64x64-blocked
 * `crow[j] += aval * brow[j]` loop with its zero skip, serially.
 * Every kernel build of gemm() must reproduce it bit for bit.
 */
void
referenceGemm(const Tensor &a, bool trans_a, const Tensor &b,
              bool trans_b, Tensor &c, float beta)
{
    const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
    const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
    const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
    if (beta == 0.0f) {
        c.zero();
    } else if (beta != 1.0f) {
        for (std::size_t i = 0; i < c.numel(); ++i)
            c[i] *= beta;
    }
    const float *pa = a.data();
    const float *pb = b.data();
    std::vector<float> ta, tb;
    if (trans_a) {
        ta.resize(m * k);
        for (std::size_t i = 0; i < a.dim(0); ++i)
            for (std::size_t j = 0; j < a.dim(1); ++j)
                ta[j * k + i] = pa[i * a.dim(1) + j];
        pa = ta.data();
    }
    if (trans_b) {
        tb.resize(k * n);
        for (std::size_t i = 0; i < b.dim(0); ++i)
            for (std::size_t j = 0; j < b.dim(1); ++j)
                tb[j * n + i] = pb[i * b.dim(1) + j];
        pb = tb.data();
    }
    float *pc = c.data();
    constexpr std::size_t block = 64;
    for (std::size_t i0 = 0; i0 < m; i0 += block) {
        const std::size_t i1 = std::min(m, i0 + block);
        for (std::size_t p0 = 0; p0 < k; p0 += block) {
            const std::size_t p1 = std::min(k, p0 + block);
            for (std::size_t i = i0; i < i1; ++i) {
                for (std::size_t p = p0; p < p1; ++p) {
                    const float aval = pa[i * k + p];
                    if (aval == 0.0f)
                        continue;
                    const float *brow = pb + p * n;
                    float *crow = pc + i * n;
                    for (std::size_t j = 0; j < n; ++j)
                        crow[j] += aval * brow[j];
                }
            }
        }
    }
}

/** Operand value mix for the differential cases. */
enum class Fill {
    Dense,      //!< gaussian
    Sparse,     //!< ~85% zeros, a third of them -0.0 (ReLU'd grads)
    NonFinite,  //!< sparse plus scattered inf, -inf and NaN
};

Tensor
operand(Shape shape, Fill fill, Rng &rng)
{
    Tensor t = Tensor::randn(std::move(shape), rng);
    if (fill == Fill::Dense)
        return t;
    const float special[] = {std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
    for (std::size_t i = 0; i < t.numel(); ++i) {
        const double u = rng.uniform();
        if (u < 0.57)
            t[i] = 0.0f;
        else if (u < 0.85)
            t[i] = -0.0f;
        else if (fill == Fill::NonFinite && u < 0.88)
            t[i] = special[rng.uniformInt(3)];
    }
    return t;
}

struct DiffCase {
    std::size_t m, k, n;
    Fill fillA, fillB;
};

/** Every case under every (trans_a, trans_b, beta); memcmp on C. */
void
expectBitExact(const DiffCase &dc, std::uint64_t seed)
{
    using detail::GemmIsa;
    std::vector<GemmIsa> isas{GemmIsa::Baseline};
    if (detail::gemmHostIsa() != GemmIsa::Baseline)
        isas.push_back(detail::gemmHostIsa());
    Rng rng(seed);
    for (int t = 0; t < 4; ++t) {
        const bool ta = t & 1, tb = t & 2;
        const Tensor a = operand(ta ? Shape{dc.k, dc.m} : Shape{dc.m, dc.k},
                                 dc.fillA, rng);
        const Tensor b = operand(tb ? Shape{dc.n, dc.k} : Shape{dc.k, dc.n},
                                 dc.fillB, rng);
        // C starts with -0.0, which beta=1 keeps and beta=0.5 keeps
        // signed: a skipped row must leave it bit for bit.
        Tensor c0 = operand({dc.m, dc.n}, Fill::Sparse, rng);
        for (float beta : {0.0f, 1.0f, 0.5f}) {
            Tensor want = c0;
            referenceGemm(a, ta, b, tb, want, beta);
            std::vector<Tensor> got(isas.size() + 1, c0);
            gemm(a, ta, b, tb, got[0], beta);
            for (std::size_t v = 0; v < isas.size(); ++v)
                detail::gemmWithIsa(isas[v], a, ta, b, tb, got[v + 1],
                                    beta);
            for (std::size_t v = 0; v < got.size(); ++v)
                EXPECT_EQ(std::memcmp(got[v].data(), want.data(),
                                      want.numel() * sizeof(float)),
                          0)
                    << "m=" << dc.m << " k=" << dc.k << " n=" << dc.n
                    << " trans_a=" << ta << " trans_b=" << tb
                    << " beta=" << beta
                    << (v == 0 ? " gemm()" : " gemmWithIsa #")
                    << (v == 0 ? "" : std::to_string(v - 1));
        }
    }
}

std::vector<DiffCase>
diffCases()
{
    std::vector<DiffCase> cases;
    // Edges: 1, around the 8-wide vector and the 64 row/p block.
    for (std::size_t d : {1, 7, 9, 63, 65})
        cases.push_back({d, 67 - d, d + 3, Fill::Dense, Fill::Dense});
    // The census shapes: conv2 forward, dX, dW (sparse grad_out as A),
    // conv1 dW and the dense layer's forward.
    cases.push_back({16, 150, 252, Fill::Dense, Fill::Dense});
    cases.push_back({150, 16, 252, Fill::Dense, Fill::Sparse});
    cases.push_back({16, 252, 150, Fill::Sparse, Fill::Dense});
    cases.push_back({6, 144, 25, Fill::Sparse, Fill::Dense});
    cases.push_back({20, 144, 120, Fill::Dense, Fill::Dense});
    // Non-finite values in either operand.
    cases.push_back({33, 45, 29, Fill::NonFinite, Fill::Dense});
    cases.push_back({33, 45, 29, Fill::Dense, Fill::NonFinite});
    cases.push_back({70, 13, 90, Fill::NonFinite, Fill::NonFinite});
    // Above kParFlopMin (2^20) with several 64-row blocks, so the
    // row fan-out runs when the pool has workers.
    cases.push_back({200, 100, 70, Fill::Sparse, Fill::Dense});
    cases.push_back({130, 97, 131, Fill::Dense, Fill::NonFinite});
    // Random shapes, mostly not multiples of 8 or 64.
    Rng rng(0x9e33);
    for (int r = 0; r < 12; ++r)
        cases.push_back({1 + rng.uniformInt(140), 1 + rng.uniformInt(140),
                         1 + rng.uniformInt(140),
                         r % 3 == 0 ? Fill::Sparse : Fill::Dense,
                         r % 4 == 1 ? Fill::NonFinite : Fill::Dense});
    return cases;
}

} // namespace

TEST(GemmDifferential, BitExactWithRowStreamingReference)
{
    const std::size_t saved = globalThreads();
    const auto cases = diffCases();
    for (std::size_t threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setGlobalThreads(threads);
        for (std::size_t i = 0; i < cases.size(); ++i)
            expectBitExact(cases[i], 1000 + i);
    }
    setGlobalThreads(saved);
}

TEST(GemmDifferential, HostIsaIsAvailableBuild)
{
    // gemm() runs the build gemmHostIsa() names; Baseline always runs.
    const auto isa = detail::gemmHostIsa();
#if defined(__x86_64__) || defined(__i386__)
    EXPECT_EQ(isa == detail::GemmIsa::Avx2,
              __builtin_cpu_supports("avx2") != 0);
#else
    EXPECT_EQ(isa, detail::GemmIsa::Baseline);
#endif
}

// ----------------------------------------------------------- elementwise

TEST(Elementwise, Axpy)
{
    Tensor x = Tensor::fromValues({3}, {1, 2, 3});
    Tensor y = Tensor::fromValues({3}, {10, 10, 10});
    axpy(2.0f, x, y);
    EXPECT_FLOAT_EQ(y[2], 16.0f);
}

TEST(Elementwise, ReLUForwardBackward)
{
    Tensor x = Tensor::fromValues({4}, {-1, 0, 2, -3});
    Tensor out({4});
    reluForward(x, out);
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[2], 2.0f);
    Tensor g = Tensor::fromValues({4}, {1, 1, 1, 1});
    Tensor gi({4});
    reluBackward(x, g, gi);
    EXPECT_EQ(gi[0], 0.0f);
    EXPECT_EQ(gi[2], 1.0f);
}

TEST(Elementwise, ReLUBackwardBitExactWithBranchingLoop)
{
    // Special values on both sides: x decides the mask (NaN, -0.0 and
    // -denormals are not > 0), grad_out's bits must pass unchanged.
    const float specials[] = {-0.0f,
                              0.0f,
                              std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              1.0f,
                              -2.5f};
    constexpr std::size_t ns = std::size(specials);
    // Every (x, grad) pair, then a ragged length for the vector tail.
    for (std::size_t n : {ns * ns, std::size_t{37}}) {
        Tensor x({n}), g({n}), got({n}), want({n});
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = specials[i % ns];
            g[i] = specials[(i / ns + i) % ns];
        }
        for (std::size_t i = 0; i < n; ++i)
            want[i] = x[i] > 0.0f ? g[i] : 0.0f; // the old loop
        got.fill(1.0f);
        reluBackward(x, g, got);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * n),
                  0)
            << "n=" << n;
    }
}

TEST(Elementwise, BiasRows)
{
    Tensor x = Tensor::fromValues({2, 2}, {0, 0, 0, 0});
    Tensor b = Tensor::fromValues({2}, {1, 2});
    biasAddRows(x, b);
    EXPECT_FLOAT_EQ(x.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(x.at(1, 0), 1.0f);

    Tensor g = Tensor::fromValues({2, 2}, {1, 2, 3, 4});
    Tensor gb({2});
    biasGradRows(g, gb);
    EXPECT_FLOAT_EQ(gb[0], 4.0f);
    EXPECT_FLOAT_EQ(gb[1], 6.0f);
}

TEST(Elementwise, BiasChannels)
{
    Tensor x({1, 2, 2, 2});
    Tensor b = Tensor::fromValues({2}, {1, -1});
    biasAddChannels(x, b);
    EXPECT_FLOAT_EQ(x[0], 1.0f);   // channel 0
    EXPECT_FLOAT_EQ(x[4], -1.0f);  // channel 1

    Tensor g({1, 2, 2, 2}, 1.0f);
    Tensor gb({2});
    biasGradChannels(g, gb);
    EXPECT_FLOAT_EQ(gb[0], 4.0f);
    EXPECT_FLOAT_EQ(gb[1], 4.0f);
}

// ---------------------------------------------------------- softmax/xent

TEST(Softmax, RowsSumToOne)
{
    Rng rng(5);
    Tensor logits = Tensor::randn({8, 10}, rng, 3.0f);
    Tensor probs(logits.shape());
    softmaxRows(logits, probs);
    for (std::size_t r = 0; r < 8; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < 10; ++c)
            s += probs.at(r, c);
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Softmax, NumericallyStableForLargeLogits)
{
    Tensor logits = Tensor::fromValues({1, 2}, {1000.0f, 1001.0f});
    Tensor probs(logits.shape());
    softmaxRows(logits, probs);
    EXPECT_TRUE(std::isfinite(probs[0]));
    EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-6);
}

TEST(CrossEntropy, GradientMatchesNumeric)
{
    Rng rng(7);
    Tensor logits = Tensor::randn({4, 5}, rng);
    std::vector<int> labels = {0, 2, 4, 1};
    Tensor probs(logits.shape()), grad(logits.shape());
    const double loss = softmaxCrossEntropy(logits, labels, probs, grad);
    EXPECT_GT(loss, 0.0);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < logits.numel(); i += 3) {
        Tensor lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        Tensor d1(logits.shape()), d2(logits.shape());
        const double lossP =
            softmaxCrossEntropy(lp, labels, probs, d1);
        const double lossM =
            softmaxCrossEntropy(lm, labels, probs, d2);
        const double numeric = (lossP - lossM) / (2.0 * eps);
        EXPECT_NEAR(grad[i], numeric, 2e-3) << "index " << i;
    }
}

TEST(CrossEntropy, PerfectPredictionLowLoss)
{
    Tensor logits = Tensor::fromValues({1, 3}, {20.0f, -10.0f, -10.0f});
    Tensor probs(logits.shape()), grad(logits.shape());
    const double loss =
        softmaxCrossEntropy(logits, {0}, probs, grad);
    EXPECT_LT(loss, 1e-6);
}

TEST(Argmax, PicksLargest)
{
    Tensor s = Tensor::fromValues({2, 3}, {1, 5, 2, 9, 0, 3});
    const auto idx = argmaxRows(s);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 0);
}

TEST(Cosine, IdenticalIsOne)
{
    Tensor a = Tensor::fromValues({3}, {1, 2, 3});
    EXPECT_NEAR(cosineSimilarity(a, a), 1.0, 1e-6);
}

TEST(Cosine, OrthogonalIsZero)
{
    Tensor a = Tensor::fromValues({2}, {1, 0});
    Tensor b = Tensor::fromValues({2}, {0, 1});
    EXPECT_NEAR(cosineSimilarity(a, b), 0.0, 1e-9);
}

TEST(Cosine, OppositeIsMinusOne)
{
    Tensor a = Tensor::fromValues({2}, {1, 1});
    Tensor b = Tensor::fromValues({2}, {-1, -1});
    EXPECT_NEAR(cosineSimilarity(a, b), -1.0, 1e-6);
}

TEST(Cosine, ZeroVectorGivesZero)
{
    Tensor a = Tensor::fromValues({2}, {0, 0});
    Tensor b = Tensor::fromValues({2}, {1, 1});
    EXPECT_EQ(cosineSimilarity(a, b), 0.0);
}
