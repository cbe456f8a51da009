/**
 * @file
 * Convolution/pooling kernels: naive-reference cross-checks,
 * numeric gradient verification over a geometry sweep, and a
 * bit-exact differential check of the chunked im2col lowering
 * against the per-sample loops it replaced.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>

#include "tensor/conv.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace socflow;
using namespace socflow::tensor;

namespace {

/** Direct (quadruple-loop) convolution reference. */
void
naiveConv(const Tensor &x, const Tensor &w, const ConvGeom &g,
          Tensor &out)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      ww = x.dim(3);
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(ww, g.kernel, g.stride, g.pad);
    out.zero();
    for (std::size_t s = 0; s < n; ++s)
    for (std::size_t oc = 0; oc < g.outChannels; ++oc)
    for (std::size_t oy = 0; oy < ho; ++oy)
    for (std::size_t ox = 0; ox < wo; ++ox) {
        double acc = 0.0;
        for (std::size_t ic = 0; ic < c; ++ic)
        for (std::size_t ky = 0; ky < g.kernel; ++ky)
        for (std::size_t kx = 0; kx < g.kernel; ++kx) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                static_cast<std::ptrdiff_t>(g.pad);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h) ||
                ix < 0 || ix >= static_cast<std::ptrdiff_t>(ww))
                continue;
            acc += static_cast<double>(
                       x[((s * c + ic) * h + iy) * ww + ix]) *
                   w[((oc * c + ic) * g.kernel + ky) * g.kernel + kx];
        }
        out[((s * g.outChannels + oc) * ho + oy) * wo + ox] =
            static_cast<float>(acc);
    }
}

} // namespace

TEST(ConvOutDim, Formula)
{
    EXPECT_EQ(convOutDim(12, 3, 1, 1), 12u);
    EXPECT_EQ(convOutDim(12, 3, 2, 1), 6u);
    EXPECT_EQ(convOutDim(12, 2, 2, 0), 6u);
    EXPECT_EQ(convOutDim(3, 2, 2, 0), 1u);
    EXPECT_EQ(convOutDim(5, 5, 1, 0), 1u);
}

TEST(ConvOutDim, TooSmallPanics)
{
    EXPECT_DEATH(convOutDim(1, 3, 1, 0), "kernel");
}

struct ConvCase {
    std::size_t n, c, h, w, outC, k, stride, pad;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvSweep, ForwardMatchesNaive)
{
    const auto p = GetParam();
    Rng rng(p.h * 7 + p.k);
    ConvGeom g{p.c, p.outC, p.k, p.stride, p.pad};
    Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
    Tensor w = Tensor::randn({p.outC, p.c, p.k, p.k}, rng);
    const std::size_t ho = convOutDim(p.h, p.k, p.stride, p.pad);
    const std::size_t wo = convOutDim(p.w, p.k, p.stride, p.pad);
    Tensor out({p.n, p.outC, ho, wo}), ref({p.n, p.outC, ho, wo});
    conv2dForward(x, w, g, out);
    naiveConv(x, w, g, ref);
    EXPECT_LT(out.maxAbsDiff(ref), 1e-3);
}

TEST_P(ConvSweep, BackwardMatchesNumericGradient)
{
    const auto p = GetParam();
    Rng rng(p.h * 13 + p.k);
    ConvGeom g{p.c, p.outC, p.k, p.stride, p.pad};
    Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng, 0.5f);
    Tensor w = Tensor::randn({p.outC, p.c, p.k, p.k}, rng, 0.5f);
    const std::size_t ho = convOutDim(p.h, p.k, p.stride, p.pad);
    const std::size_t wo = convOutDim(p.w, p.k, p.stride, p.pad);

    // Loss = sum(out); then dOut = ones.
    Tensor gradOut({p.n, p.outC, ho, wo}, 1.0f);
    Tensor gradX(x.shape());
    Tensor gradW(w.shape());
    conv2dBackward(x, w, g, gradOut, &gradX, gradW);

    auto lossOf = [&](const Tensor &xx, const Tensor &ww) {
        Tensor out({p.n, p.outC, ho, wo});
        conv2dForward(xx, ww, g, out);
        return out.sum();
    };
    const float eps = 1e-2f;
    // Spot-check a few weight and input coordinates.
    for (std::size_t i = 0; i < w.numel(); i += std::max<std::size_t>(
             1, w.numel() / 5)) {
        Tensor wp = w, wm = w;
        wp[i] += eps;
        wm[i] -= eps;
        const double numeric =
            (lossOf(x, wp) - lossOf(x, wm)) / (2.0 * eps);
        EXPECT_NEAR(gradW[i], numeric, 5e-2) << "w index " << i;
    }
    for (std::size_t i = 0; i < x.numel(); i += std::max<std::size_t>(
             1, x.numel() / 5)) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const double numeric =
            (lossOf(xp, w) - lossOf(xm, w)) / (2.0 * eps);
        EXPECT_NEAR(gradX[i], numeric, 5e-2) << "x index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{1, 2, 7, 7, 3, 3, 2, 1},
                      ConvCase{2, 2, 6, 6, 2, 1, 1, 0},
                      ConvCase{1, 3, 9, 9, 2, 5, 1, 2},
                      ConvCase{1, 1, 4, 6, 2, 3, 2, 1}));

TEST(Im2Col, AdjointOfCol2Im)
{
    // <im2col(x), y> == <x, col2im(y)> -- the defining adjoint
    // relation that makes the conv backward correct.
    Rng rng(3);
    ConvGeom g{2, 1, 3, 2, 1};
    const std::size_t h = 6, w = 6;
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t rows = g.inChannels * g.kernel * g.kernel;

    Tensor x = Tensor::randn({2 * h * w}, rng);
    Tensor y = Tensor::randn({rows * ho * wo}, rng);
    std::vector<float> cols(rows * ho * wo, 0.0f);
    im2col(x.data(), 2, h, w, g, cols.data());
    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.size(); ++i)
        lhs += static_cast<double>(cols[i]) * y[i];

    std::vector<float> back(2 * h * w, 0.0f);
    col2im(y.data(), 2, h, w, g, back.data());
    double rhs = 0.0;
    for (std::size_t i = 0; i < back.size(); ++i)
        rhs += static_cast<double>(back[i]) * x[i];

    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(DepthwiseConv, MatchesPerChannelFullConv)
{
    // Depthwise conv on C channels equals C independent 1-channel
    // convolutions.
    Rng rng(9);
    const std::size_t c = 3, h = 6, w = 6, k = 3;
    ConvGeom dg{c, c, k, 1, 1};
    Tensor x = Tensor::randn({1, c, h, w}, rng);
    Tensor wt = Tensor::randn({c, 1, k, k}, rng);
    Tensor out({1, c, h, w});
    depthwiseConv2dForward(x, wt, dg, out);

    for (std::size_t ch = 0; ch < c; ++ch) {
        ConvGeom g1{1, 1, k, 1, 1};
        Tensor xc({1, 1, h, w}), wc({1, 1, k, k}), oc({1, 1, h, w});
        std::copy(x.data() + ch * h * w, x.data() + (ch + 1) * h * w,
                  xc.data());
        std::copy(wt.data() + ch * k * k, wt.data() + (ch + 1) * k * k,
                  wc.data());
        conv2dForward(xc, wc, g1, oc);
        for (std::size_t i = 0; i < h * w; ++i)
            EXPECT_NEAR(out[ch * h * w + i], oc[i], 1e-4);
    }
}

TEST(DepthwiseConv, BackwardNumericGradient)
{
    Rng rng(11);
    const std::size_t c = 2, h = 5, w = 5, k = 3;
    ConvGeom g{c, c, k, 2, 1};
    const std::size_t ho = convOutDim(h, k, 2, 1);
    const std::size_t wo = convOutDim(w, k, 2, 1);
    Tensor x = Tensor::randn({1, c, h, w}, rng, 0.5f);
    Tensor wt = Tensor::randn({c, 1, k, k}, rng, 0.5f);
    Tensor gradOut({1, c, ho, wo}, 1.0f);
    Tensor gradX(x.shape()), gradW(wt.shape());
    depthwiseConv2dBackward(x, wt, g, gradOut, &gradX, gradW);

    auto lossOf = [&](const Tensor &xx, const Tensor &ww) {
        Tensor out({1, c, ho, wo});
        depthwiseConv2dForward(xx, ww, g, out);
        return out.sum();
    };
    const float eps = 1e-2f;
    for (std::size_t i = 0; i < wt.numel(); i += 3) {
        Tensor wp = wt, wm = wt;
        wp[i] += eps;
        wm[i] -= eps;
        EXPECT_NEAR(gradW[i],
                    (lossOf(x, wp) - lossOf(x, wm)) / (2.0 * eps),
                    5e-2);
    }
    for (std::size_t i = 0; i < x.numel(); i += 7) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        EXPECT_NEAR(gradX[i],
                    (lossOf(xp, wt) - lossOf(xm, wt)) / (2.0 * eps),
                    5e-2);
    }
}

TEST(MaxPool, ForwardPicksMaxAndBackwardRoutes)
{
    Tensor x = Tensor::fromValues(
        {1, 1, 2, 2}, {1, 5, 3, 2});
    Tensor out({1, 1, 1, 1});
    std::vector<std::size_t> argmax;
    maxPool2dForward(x, 2, 2, out, argmax);
    EXPECT_FLOAT_EQ(out[0], 5.0f);
    EXPECT_EQ(argmax[0], 1u);

    Tensor gradOut({1, 1, 1, 1}, 2.5f);
    Tensor gradX({1, 1, 2, 2});
    maxPool2dBackward(gradOut, argmax, gradX);
    EXPECT_FLOAT_EQ(gradX[1], 2.5f);
    EXPECT_FLOAT_EQ(gradX[0], 0.0f);
}

TEST(MaxPool, OddInputTruncates)
{
    Tensor x({1, 1, 5, 5}, 1.0f);
    Tensor out({1, 1, 2, 2});
    std::vector<std::size_t> argmax;
    maxPool2dForward(x, 2, 2, out, argmax);
    EXPECT_EQ(out.numel(), 4u);
}

TEST(GlobalAvgPool, ForwardAndBackward)
{
    Tensor x = Tensor::fromValues({1, 2, 1, 2}, {1, 3, 10, 20});
    Tensor out({1, 2});
    globalAvgPoolForward(x, out);
    EXPECT_FLOAT_EQ(out[0], 2.0f);
    EXPECT_FLOAT_EQ(out[1], 15.0f);

    Tensor gradOut = Tensor::fromValues({1, 2}, {4.0f, 8.0f});
    Tensor gradX({1, 2, 1, 2});
    globalAvgPoolBackward(gradOut, 1, 2, gradX);
    EXPECT_FLOAT_EQ(gradX[0], 2.0f);
    EXPECT_FLOAT_EQ(gradX[2], 4.0f);
}

// ------------------------------------- chunked vs per-sample lowering

namespace {

/**
 * Visit one sample's packed im2col matrix in (c, ky, kx, oy, ox) order
 * with the input offset each entry reads, or -1 for padding.
 */
template <typename Fn>
void
forEachTap(std::size_t c, std::size_t h, std::size_t w, const ConvGeom &g,
           Fn &&fn)
{
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::ptrdiff_t ih = h, iw = w, pad = g.pad;
    std::size_t m = 0;
    for (std::size_t ch = 0; ch < c; ++ch)
    for (std::size_t ky = 0; ky < g.kernel; ++ky)
    for (std::size_t kx = 0; kx < g.kernel; ++kx)
    for (std::size_t oy = 0; oy < ho; ++oy)
    for (std::size_t ox = 0; ox < wo; ++ox, ++m) {
        const std::ptrdiff_t iy =
            static_cast<std::ptrdiff_t>(oy * g.stride + ky) - pad;
        const std::ptrdiff_t ix =
            static_cast<std::ptrdiff_t>(ox * g.stride + kx) - pad;
        const bool in = iy >= 0 && iy < ih && ix >= 0 && ix < iw;
        fn(m, in ? (static_cast<std::ptrdiff_t>(ch) * ih + iy) * iw + ix
                 : -1);
    }
}

/** Test-local im2col, independent of the kernel under test. */
void
refIm2col(const float *x, std::size_t c, std::size_t h, std::size_t w,
          const ConvGeom &g, float *out)
{
    forEachTap(c, h, w, g, [&](std::size_t m, std::ptrdiff_t i) {
        out[m] = i < 0 ? 0.0f : x[i];
    });
}

/** Test-local col2im: accumulates in the same (c, ky, kx, oy, ox) order. */
void
refCol2im(const float *cols, std::size_t c, std::size_t h, std::size_t w,
          const ConvGeom &g, float *x)
{
    forEachTap(c, h, w, g, [&](std::size_t m, std::ptrdiff_t i) {
        if (i >= 0)
            x[i] += cols[m];
    });
}

/** Forward as it was before chunking: one im2col + GEMM per sample. */
void
perSampleForward(const Tensor &x, const Tensor &weight,
                 const ConvGeom &g, Tensor &out)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t cols = convOutDim(h, g.kernel, g.stride, g.pad) *
                             convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t krows = c * g.kernel * g.kernel;
    Tensor wmat = Tensor::fromValues(
        {g.outChannels, krows},
        std::vector<float>(weight.data(), weight.data() + weight.numel()));
    Tensor colsMat({krows, cols});
    Tensor outMat({g.outChannels, cols});
    for (std::size_t s = 0; s < n; ++s) {
        refIm2col(x.data() + s * c * h * w, c, h, w, g, colsMat.data());
        gemm(wmat, false, colsMat, false, outMat);
        std::memcpy(out.data() + s * g.outChannels * cols, outMat.data(),
                    sizeof(float) * g.outChannels * cols);
    }
}

/** Backward as it was before chunking: 2-3 GEMMs per sample. */
void
perSampleBackward(const Tensor &x, const Tensor &weight,
                  const ConvGeom &g, const Tensor &grad_out,
                  Tensor *grad_x, Tensor &grad_w)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t cols = convOutDim(h, g.kernel, g.stride, g.pad) *
                             convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t krows = c * g.kernel * g.kernel;
    Tensor wmat = Tensor::fromValues(
        {g.outChannels, krows},
        std::vector<float>(weight.data(), weight.data() + weight.numel()));
    Tensor gwMat = Tensor::fromValues(
        {g.outChannels, krows},
        std::vector<float>(grad_w.data(), grad_w.data() + grad_w.numel()));
    Tensor colsMat({krows, cols});
    Tensor goMat({g.outChannels, cols});
    Tensor gcols({krows, cols});
    if (grad_x)
        grad_x->zero();
    for (std::size_t s = 0; s < n; ++s) {
        refIm2col(x.data() + s * c * h * w, c, h, w, g, colsMat.data());
        std::memcpy(goMat.data(),
                    grad_out.data() + s * g.outChannels * cols,
                    sizeof(float) * g.outChannels * cols);
        gemm(goMat, false, colsMat, true, gwMat, 1.0f);
        if (grad_x) {
            gemm(wmat, true, goMat, false, gcols);
            refCol2im(gcols.data(), c, h, w, g,
                      grad_x->data() + s * c * h * w);
        }
    }
    std::memcpy(grad_w.data(), gwMat.data(),
                sizeof(float) * grad_w.numel());
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) ==
               0;
}

/**
 * conv.cc lowers about this many output columns per GEMM; the batch
 * sizes below straddle the resulting chunk boundary.
 */
constexpr std::size_t kChunkCols = 256;

struct DiffCase {
    std::size_t c, h, outC, k, stride, pad;
};

class ConvChunkedBitExact : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(ConvChunkedBitExact, MatchesPerSampleLowering)
{
    const DiffCase p = GetParam();
    const ConvGeom g{p.c, p.outC, p.k, p.stride, p.pad};
    const std::size_t ho = convOutDim(p.h, p.k, p.stride, p.pad);
    const std::size_t perChunk = std::max<std::size_t>(
        1, kChunkCols / (ho * ho));
    // One sample, exactly one chunk, and two chunks plus a partial one.
    const std::size_t batches[] = {1, perChunk, 2 * perChunk + 1};
    for (std::size_t threads : {1, 3}) {
        setGlobalThreads(threads);
        for (std::size_t n : batches) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " threads="
                                            << threads);
            Rng rng(p.c * 131 + p.h * 17 + n);
            Tensor x = Tensor::randn({n, p.c, p.h, p.h}, rng);
            Tensor w = Tensor::randn({p.outC, p.c, p.k, p.k}, rng);
            // Exact zeros in the weight and a ReLU-style mask on
            // grad_out drive GEMM's zero-skip in all three products.
            for (std::size_t i = 0; i < w.numel(); i += 7)
                w[i] = 0.0f;
            Tensor gout = Tensor::randn({n, p.outC, ho, ho}, rng);
            Tensor mask = Tensor::randn(gout.shape(), rng);
            for (std::size_t i = 0; i < gout.numel(); ++i)
                if (mask[i] < 0.0f)
                    gout[i] = 0.0f;
            const Tensor gw0 = Tensor::randn(w.shape(), rng, 0.1f);

            Tensor out(gout.shape()), refOut(gout.shape());
            conv2dForward(x, w, g, out);
            perSampleForward(x, w, g, refOut);
            EXPECT_TRUE(sameBits(out, refOut)) << "forward";

            Tensor gx(x.shape()), refGx(x.shape());
            Tensor gw = gw0, refGw = gw0;
            conv2dBackward(x, w, g, gout, &gx, gw);
            perSampleBackward(x, w, g, gout, &refGx, refGw);
            EXPECT_TRUE(sameBits(gx, refGx)) << "grad_x";
            EXPECT_TRUE(sameBits(gw, refGw)) << "grad_w";

            Tensor gwOnly = gw0;
            conv2dBackward(x, w, g, gout, nullptr, gwOnly);
            EXPECT_TRUE(sameBits(gwOnly, refGw)) << "grad_w, no grad_x";
        }
    }
    setGlobalThreads(0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvChunkedBitExact,
    ::testing::Values(DiffCase{1, 12, 6, 5, 1, 2},  // LeNet conv1
                      DiffCase{6, 6, 16, 5, 1, 2},  // LeNet conv2
                      DiffCase{32, 3, 64, 3, 1, 1}, // VGG 3x3 tail
                      DiffCase{32, 1, 64, 3, 1, 1}, // VGG 1x1 tail
                      DiffCase{3, 9, 4, 3, 2, 1}),  // stride 2
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        const DiffCase &p = info.param;
        std::ostringstream name;
        name << "c" << p.c << "_hw" << p.h << "_o" << p.outC << "_k"
             << p.k << "_s" << p.stride;
        return name.str();
    });

/**
 * Values a bounds-tested copy must pass through bit for bit: signed
 * zeros, NaN, infinities and denormals, between ordinary values.
 */
std::vector<float>
specialValues(std::size_t n, std::uint64_t seed)
{
    const float kinds[] = {-0.0f,
                           0.0f,
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::denorm_min(),
                           -1e-40f};
    Rng rng(seed);
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i % 3 == 0 ? kinds[rng.uniformInt(std::size(kinds))]
                          : static_cast<float>(rng.gaussian());
    return v;
}

TEST(Im2Col, BitExactWithBoundsTestedLoopOnSpecialValues)
{
    // The LeNet census shapes, VGG's 3x3 tails, unpadded and strided
    // cases, and pad >= kernel/2 edges. The shapes run largest first
    // and again in reverse, so each call's per-thread padded plane
    // holds a previous shape's values where its own border must read
    // zero; the worker run checks a second thread's plane.
    const DiffCase cases[] = {
        {1, 12, 6, 5, 1, 2},  // LeNet conv1
        {6, 6, 16, 5, 1, 2},  // LeNet conv2
        {32, 3, 64, 3, 1, 1}, // VGG 3x3 tail
        {64, 1, 64, 3, 1, 1}, // VGG 1x1 tail
        {3, 9, 4, 3, 2, 1},   // stride 2
        {2, 7, 1, 3, 1, 0},   // no padding
        {2, 8, 1, 2, 3, 0},   // stride > kernel
        {1, 5, 1, 3, 2, 3},   // all-padding taps
    };
    const auto runAll = [&](int pass) {
        for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
            const DiffCase &p =
                cases[pass % 2 ? std::size(cases) - 1 - ci : ci];
            const ConvGeom g{p.c, p.outC, p.k, p.stride, p.pad};
            const std::size_t cols =
                convOutDim(p.h, p.k, p.stride, p.pad) *
                convOutDim(p.h, p.k, p.stride, p.pad);
            const std::size_t size = p.c * p.k * p.k * cols;
            const auto x = specialValues(p.c * p.h * p.h, p.c + p.h + pass);
            std::vector<float> got(size, 1.0f), want(size, 2.0f);
            im2col(x.data(), p.c, p.h, p.h, g, got.data());
            refIm2col(x.data(), p.c, p.h, p.h, g, want.data());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  sizeof(float) * size),
                      0)
                << "c=" << p.c << " hw=" << p.h << " k=" << p.k
                << " s=" << p.stride << " pad=" << p.pad
                << " pass=" << pass;
        }
    };
    runAll(0);
    runAll(1);
    std::thread worker([&] { runAll(2); });
    worker.join();
}

} // namespace
