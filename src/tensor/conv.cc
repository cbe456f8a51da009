#include "tensor/conv.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace tensor {

namespace {

// Per-item work (in multiply-accumulates) below which the thread
// fan-out costs more than it saves; the serial path also avoids the
// per-worker scratch allocations the parallel path needs.
constexpr std::size_t kParConvWorkMin = std::size_t{1} << 20;

// Output columns one GEMM covers: a chunk of samples lowers side by
// side into one [krows, nb*cols] im2col matrix. VGG's 3x3 and 1x1
// tails then run 252- and 256-column GEMMs instead of 9- and 1-column
// ones, while the 64-row operand panels GEMM streams stay near L1.
constexpr std::size_t kChunkCols = 256;

/** Reuse `t` as a [rows, cols] matrix, reallocating on a new shape. */
void
fitMatrix(Tensor &t, std::size_t rows, std::size_t cols)
{
    if (t.rank() != 2 || t.dim(0) != rows || t.dim(1) != cols)
        t = Tensor({rows, cols});
}

// im2col/col2im over one sample's column slice of a matrix whose rows
// are `ld` floats apart; the public forms are the ld == Ho*Wo case.
//
// im2col copies each channel into a zero-padded plane first (one per
// thread, reused across calls), so every tap reads in bounds: a tap
// row is a strided copy, a plain memcpy at stride 1. Every entry is
// an input value's bits or the padding's +0.0f.
void
im2colLd(const float *x, std::size_t channels, std::size_t h,
         std::size_t w, const ConvGeom &g, float *out, std::size_t ld)
{
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t hp = h + 2 * g.pad, wp = w + 2 * g.pad;
    thread_local std::vector<float> padded;
    // The border stays zero: every channel writes only the interior.
    if (g.pad > 0)
        padded.assign(hp * wp, 0.0f);
    std::size_t row = 0;
    for (std::size_t c = 0; c < channels; ++c) {
        const float *plane = x + c * h * w;
        if (g.pad > 0) {
            for (std::size_t y = 0; y < h; ++y)
                std::memcpy(padded.data() + (y + g.pad) * wp + g.pad,
                            plane + y * w, sizeof(float) * w);
            plane = padded.data();
        }
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
                float *orow = out + row * ld;
                for (std::size_t oy = 0; oy < ho; ++oy) {
                    const float *src =
                        plane + (oy * g.stride + ky) * wp + kx;
                    float *dst = orow + oy * wo;
                    if (g.stride == 1) {
                        std::memcpy(dst, src, sizeof(float) * wo);
                    } else {
                        for (std::size_t ox = 0; ox < wo; ++ox)
                            dst[ox] = src[ox * g.stride];
                    }
                }
            }
        }
    }
}

/** Outputs o in [first, second) whose tap o*stride+k-pad is in [0, in). */
std::pair<std::size_t, std::size_t>
tapRange(std::size_t k, std::size_t in, std::size_t out, const ConvGeom &g)
{
    const std::size_t s = g.stride, p = g.pad;
    const std::size_t hi =
        in + p <= k ? 0 : std::min(out, (in + p - k + s - 1) / s);
    return {std::min(hi, k >= p ? 0 : (p - k + s - 1) / s), hi};
}

void
col2imLd(const float *cols_data, std::size_t ld, std::size_t channels,
         std::size_t h, std::size_t w, const ConvGeom &g, float *x)
{
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    std::size_t row = 0;
    for (std::size_t c = 0; c < channels; ++c)
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            const auto [y0, y1] = tapRange(ky, h, ho, g);
            for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
                const auto [x0, x1] = tapRange(kx, w, wo, g);
                for (std::size_t oy = y0; oy < y1; ++oy) {
                    float *xrow =
                        x + (c * h + oy * g.stride + ky - g.pad) * w;
                    const float *crow = cols_data + row * ld + oy * wo;
                    for (std::size_t ox = x0; ox < x1; ++ox)
                        xrow[ox * g.stride + kx - g.pad] += crow[ox];
                }
            }
        }
}

} // namespace

std::size_t
convOutDim(std::size_t in, std::size_t kernel, std::size_t stride,
           std::size_t pad)
{
    SOCFLOW_ASSERT(in + 2 * pad >= kernel, "kernel larger than input");
    return (in + 2 * pad - kernel) / stride + 1;
}

void
im2col(const float *x, std::size_t channels, std::size_t h,
       std::size_t w, const ConvGeom &g, float *out)
{
    im2colLd(x, channels, h, w, g, out,
             convOutDim(h, g.kernel, g.stride, g.pad) *
                 convOutDim(w, g.kernel, g.stride, g.pad));
}

void
col2im(const float *cols_data, std::size_t channels, std::size_t h,
       std::size_t w, const ConvGeom &g, float *x)
{
    col2imLd(cols_data,
             convOutDim(h, g.kernel, g.stride, g.pad) *
                 convOutDim(w, g.kernel, g.stride, g.pad),
             channels, h, w, g, x);
}

void
conv2dForward(const Tensor &x, const Tensor &weight, const ConvGeom &g,
              Tensor &out)
{
    SOCFLOW_ASSERT(x.rank() == 4, "conv input must be NCHW");
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    SOCFLOW_ASSERT(c == g.inChannels, "conv input channel mismatch");
    SOCFLOW_ASSERT(weight.numel() ==
                       g.outChannels * g.inChannels * g.kernel * g.kernel,
                   "conv weight size mismatch");
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    SOCFLOW_ASSERT(out.shape() ==
                       Shape({n, g.outChannels, ho, wo}),
                   "conv output shape mismatch");

    const std::size_t krows = g.inChannels * g.kernel * g.kernel;
    const std::size_t cols = ho * wo;
    const std::size_t oc = g.outChannels;
    const std::size_t nb =
        std::min(n, std::max<std::size_t>(1, kChunkCols / cols));
    const std::size_t chunks = (n + nb - 1) / nb;

    // Weight viewed as [outC, krows] times a chunk's [krows, nb*cols]
    // im2col gives its output planes, sample-major within each row;
    // each element sums its krows terms in ascending order either way.
    Tensor wmat = Tensor::fromValues(
        {oc, krows},
        std::vector<float>(weight.data(), weight.data() + weight.numel()));
    const auto chunkTask = [&](std::size_t ci, Tensor &colsMat,
                               Tensor &outMat) {
        const std::size_t s0 = ci * nb, cnt = std::min(nb, n - s0);
        const std::size_t ld = cnt * cols;
        fitMatrix(colsMat, krows, ld);
        fitMatrix(outMat, oc, ld);
        for (std::size_t s = 0; s < cnt; ++s)
            im2colLd(x.data() + (s0 + s) * c * h * w, c, h, w, g,
                     colsMat.data() + s * cols, ld);
        gemm(wmat, false, colsMat, false, outMat);
        for (std::size_t s = 0; s < cnt; ++s)
            for (std::size_t o = 0; o < oc; ++o)
                std::memcpy(out.data() + ((s0 + s) * oc + o) * cols,
                            outMat.data() + o * ld + s * cols,
                            sizeof(float) * cols);
    };

    // Chunks write disjoint output slices, so they fan out bit-exactly;
    // each worker carries its own scratch. Nested use (a pool worker
    // already running half of a trainer group step) stays serial via
    // the inline guard.
    ThreadPool &pool = globalThreadPool();
    if (chunks > 1 && oc * krows * nb * cols >= kParConvWorkMin &&
        pool.size() > 1 && !ThreadPool::inWorkerThread()) {
        pool.parallelFor(chunks, [&](std::size_t ci) {
            Tensor colsMat, outMat;
            chunkTask(ci, colsMat, outMat);
        });
    } else {
        Tensor colsMat, outMat;
        for (std::size_t ci = 0; ci < chunks; ++ci)
            chunkTask(ci, colsMat, outMat);
    }
}

void
conv2dBackward(const Tensor &x, const Tensor &weight, const ConvGeom &g,
               const Tensor &grad_out, Tensor *grad_x, Tensor &grad_w)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t krows = g.inChannels * g.kernel * g.kernel;
    const std::size_t cols = ho * wo;
    SOCFLOW_ASSERT(grad_out.shape() ==
                       Shape({n, g.outChannels, ho, wo}),
                   "conv grad_out shape mismatch");
    SOCFLOW_ASSERT(grad_w.numel() == weight.numel(),
                   "conv grad_w size mismatch");

    const std::size_t oc = g.outChannels;
    const std::size_t nb =
        std::min(n, std::max<std::size_t>(1, kChunkCols / cols));

    // W^T once per call, so no dX GEMM re-transposes the weight.
    Tensor wT({krows, oc});
    for (std::size_t o = 0; o < oc; ++o)
        for (std::size_t k = 0; k < krows; ++k)
            wT[k * oc + o] = weight[o * krows + k];
    // grad_w accumulates in place, viewed as [outC, krows].
    const Shape wShape = grad_w.shape();
    grad_w.reshape({oc, krows});
    Tensor colsMat, goMat, gcols;

    if (grad_x)
        grad_x->zero();

    // The chunk loop must stay serial: grad_w accumulates chunk by
    // chunk in ascending order, and the dW GEMM's inner dimension runs
    // over (sample, column) sample-major -- the per-sample loop's float
    // addition order. Parallelism comes from inside the GEMMs instead,
    // whose row fan-out preserves each element's accumulation order.
    for (std::size_t s0 = 0; s0 < n; s0 += nb) {
        const std::size_t cnt = std::min(nb, n - s0);
        const std::size_t ld = cnt * cols;
        fitMatrix(colsMat, krows, ld);
        fitMatrix(goMat, oc, ld);
        for (std::size_t s = 0; s < cnt; ++s) {
            im2colLd(x.data() + (s0 + s) * c * h * w, c, h, w, g,
                     colsMat.data() + s * cols, ld);
            for (std::size_t o = 0; o < oc; ++o)
                std::memcpy(goMat.data() + o * ld + s * cols,
                            grad_out.data() + ((s0 + s) * oc + o) * cols,
                            sizeof(float) * cols);
        }
        // dW += dOut * cols^T
        gemm(goMat, false, colsMat, true, grad_w, 1.0f);
        if (grad_x) {
            // dCols = W^T * dOut ; then fold each sample back.
            fitMatrix(gcols, krows, ld);
            gemm(wT, false, goMat, false, gcols);
            for (std::size_t s = 0; s < cnt; ++s)
                col2imLd(gcols.data() + s * cols, ld, c, h, w, g,
                         grad_x->data() + (s0 + s) * c * h * w);
        }
    }
    grad_w.reshape(wShape);
}

void
depthwiseConv2dForward(const Tensor &x, const Tensor &weight,
                       const ConvGeom &g, Tensor &out)
{
    SOCFLOW_ASSERT(g.inChannels == g.outChannels,
                   "depthwise conv requires inC == outC");
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    SOCFLOW_ASSERT(out.shape() == Shape({n, c, ho, wo}),
                   "depthwise output shape mismatch");
    SOCFLOW_ASSERT(weight.numel() == c * g.kernel * g.kernel,
                   "depthwise weight size mismatch");

    out.zero();
    // One task per (sample, channel) plane: planes neither share
    // inputs nor outputs, so the fan-out is bit-exact.
    const std::size_t planes = n * c;
    const std::size_t perPlane = ho * wo * g.kernel * g.kernel;
    const auto planeTask = [&](std::size_t t) {
        const std::size_t s = t / c;
        const std::size_t ch = t % c;
        {
            const float *plane = x.data() + (s * c + ch) * h * w;
            const float *filt =
                weight.data() + ch * g.kernel * g.kernel;
            float *oplane = out.data() + (s * c + ch) * ho * wo;
            for (std::size_t oy = 0; oy < ho; ++oy) {
                for (std::size_t ox = 0; ox < wo; ++ox) {
                    float acc = 0.0f;
                    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(
                                oy * g.stride + ky) -
                            static_cast<std::ptrdiff_t>(g.pad);
                        if (iy < 0 ||
                            iy >= static_cast<std::ptrdiff_t>(h))
                            continue;
                        for (std::size_t kx = 0; kx < g.kernel; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(
                                    ox * g.stride + kx) -
                                static_cast<std::ptrdiff_t>(g.pad);
                            if (ix < 0 ||
                                ix >= static_cast<std::ptrdiff_t>(w))
                                continue;
                            acc += plane[iy * w + ix] *
                                   filt[ky * g.kernel + kx];
                        }
                    }
                    oplane[oy * wo + ox] = acc;
                }
            }
        }
    };
    ThreadPool &pool = globalThreadPool();
    if (planes > 1 && planes * perPlane >= kParConvWorkMin &&
        pool.size() > 1 && !ThreadPool::inWorkerThread()) {
        pool.parallelFor(planes, planeTask);
    } else {
        for (std::size_t t = 0; t < planes; ++t)
            planeTask(t);
    }
}

void
depthwiseConv2dBackward(const Tensor &x, const Tensor &weight,
                        const ConvGeom &g, const Tensor &grad_out,
                        Tensor *grad_x, Tensor &grad_w)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);

    if (grad_x)
        grad_x->zero();
    // Parallel over channels: each channel owns its filter-gradient
    // slice outright and walks its samples in ascending order, so
    // the per-element accumulation order matches the serial loop at
    // any thread count (loop interchange from the old s-outer form
    // is exact too -- distinct channels never share an accumulator).
    const std::size_t perChannel =
        n * ho * wo * g.kernel * g.kernel;
    const auto channelTask = [&](std::size_t ch) {
        for (std::size_t s = 0; s < n; ++s) {
            const float *plane = x.data() + (s * c + ch) * h * w;
            const float *filt =
                weight.data() + ch * g.kernel * g.kernel;
            float *gfilt = grad_w.data() + ch * g.kernel * g.kernel;
            const float *goPlane =
                grad_out.data() + (s * c + ch) * ho * wo;
            float *gxPlane =
                grad_x ? grad_x->data() + (s * c + ch) * h * w : nullptr;
            for (std::size_t oy = 0; oy < ho; ++oy) {
                for (std::size_t ox = 0; ox < wo; ++ox) {
                    const float go = goPlane[oy * wo + ox];
                    if (go == 0.0f)
                        continue;
                    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(
                                oy * g.stride + ky) -
                            static_cast<std::ptrdiff_t>(g.pad);
                        if (iy < 0 ||
                            iy >= static_cast<std::ptrdiff_t>(h))
                            continue;
                        for (std::size_t kx = 0; kx < g.kernel; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(
                                    ox * g.stride + kx) -
                                static_cast<std::ptrdiff_t>(g.pad);
                            if (ix < 0 ||
                                ix >= static_cast<std::ptrdiff_t>(w))
                                continue;
                            gfilt[ky * g.kernel + kx] +=
                                go * plane[iy * w + ix];
                            if (gxPlane) {
                                gxPlane[iy * w + ix] +=
                                    go * filt[ky * g.kernel + kx];
                            }
                        }
                    }
                }
            }
        }
    };
    ThreadPool &pool = globalThreadPool();
    if (c > 1 && c * perChannel >= kParConvWorkMin &&
        pool.size() > 1 && !ThreadPool::inWorkerThread()) {
        pool.parallelFor(c, channelTask);
    } else {
        for (std::size_t ch = 0; ch < c; ++ch)
            channelTask(ch);
    }
}

void
maxPool2dForward(const Tensor &x, std::size_t kernel, std::size_t stride,
                 Tensor &out, std::vector<std::size_t> &argmax)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t ho = convOutDim(h, kernel, stride, 0);
    const std::size_t wo = convOutDim(w, kernel, stride, 0);
    SOCFLOW_ASSERT(out.shape() == Shape({n, c, ho, wo}),
                   "maxpool output shape mismatch");
    argmax.assign(out.numel(), 0);

    const float *px = x.data();
    float *po = out.data();
    std::size_t oi = 0;
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const std::size_t base = (s * c + ch) * h * w;
            for (std::size_t oy = 0; oy < ho; ++oy) {
                for (std::size_t ox = 0; ox < wo; ++ox, ++oi) {
                    float best = -3.4e38f;
                    std::size_t bestIdx = base;
                    for (std::size_t ky = 0; ky < kernel; ++ky) {
                        const std::size_t iy = oy * stride + ky;
                        if (iy >= h)
                            continue;
                        for (std::size_t kx = 0; kx < kernel; ++kx) {
                            const std::size_t ix = ox * stride + kx;
                            if (ix >= w)
                                continue;
                            const std::size_t idx = base + iy * w + ix;
                            if (px[idx] > best) {
                                best = px[idx];
                                bestIdx = idx;
                            }
                        }
                    }
                    po[oi] = best;
                    argmax[oi] = bestIdx;
                }
            }
        }
    }
}

void
maxPool2dBackward(const Tensor &grad_out,
                  const std::vector<std::size_t> &argmax, Tensor &grad_x)
{
    SOCFLOW_ASSERT(argmax.size() == grad_out.numel(),
                   "maxpool argmax size mismatch");
    grad_x.zero();
    const float *pg = grad_out.data();
    float *px = grad_x.data();
    for (std::size_t i = 0; i < argmax.size(); ++i)
        px[argmax[i]] += pg[i];
}

void
globalAvgPoolForward(const Tensor &x, Tensor &out)
{
    const std::size_t n = x.dim(0), c = x.dim(1),
                      hw = x.dim(2) * x.dim(3);
    SOCFLOW_ASSERT(out.shape() == Shape({n, c}),
                   "avgpool output shape mismatch");
    const float *px = x.data();
    float *po = out.data();
    const float inv = 1.0f / static_cast<float>(hw);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float *plane = px + (s * c + ch) * hw;
            double acc = 0.0;
            for (std::size_t i = 0; i < hw; ++i)
                acc += plane[i];
            po[s * c + ch] = static_cast<float>(acc) * inv;
        }
    }
}

void
globalAvgPoolBackward(const Tensor &grad_out, std::size_t h,
                      std::size_t w, Tensor &grad_x)
{
    const std::size_t n = grad_out.dim(0), c = grad_out.dim(1);
    const std::size_t hw = h * w;
    SOCFLOW_ASSERT(grad_x.shape() == Shape({n, c, h, w}),
                   "avgpool grad shape mismatch");
    const float *pg = grad_out.data();
    float *px = grad_x.data();
    const float inv = 1.0f / static_cast<float>(hw);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float g = pg[s * c + ch] * inv;
            float *plane = px + (s * c + ch) * hw;
            for (std::size_t i = 0; i < hw; ++i)
                plane[i] = g;
        }
    }
}

} // namespace tensor
} // namespace socflow
