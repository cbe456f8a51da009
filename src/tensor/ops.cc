#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace tensor {

namespace {

/**
 * One 64-row block of C[m,n] += A[m,k] * B[k,n], contiguous row-major:
 * rows [i0, i1) of C stream every nonzero A[i,p] times row p of B.
 *
 * Each output element accumulates its k terms in the same (p-block, p)
 * order in every build of this loop, so the two wrappers below are
 * bit-exact with each other: vectorising the j loop only changes how
 * many independent `crow[j] += aval * brow[j]` run per instruction,
 * never the rounding of one (FMA contraction would; see the
 * -ffp-contract=off in this library's CMakeLists.txt).
 */
[[gnu::always_inline]] inline void
rowBlockBody(const float *a, const float *b, float *c, std::size_t n,
             std::size_t k, std::size_t i0, std::size_t i1)
{
    constexpr std::size_t block = 64;
    for (std::size_t p0 = 0; p0 < k; p0 += block) {
        const std::size_t p1 = std::min(k, p0 + block);
        for (std::size_t i = i0; i < i1; ++i) {
            for (std::size_t p = p0; p < p1; ++p) {
                const float aval = a[i * k + p];
                if (aval == 0.0f)
                    continue;
                const float *brow = b + p * n;
                float *crow = c + i * n;
                for (std::size_t j = 0; j < n; ++j)
                    crow[j] += aval * brow[j];
            }
        }
    }
}

using RowBlockFn = void (*)(const float *, const float *, float *,
                            std::size_t, std::size_t, std::size_t,
                            std::size_t);

/** rowBlockBody at the compiler's baseline ISA (SSE2 on x86-64). */
void
rowBlockBaseline(const float *a, const float *b, float *c, std::size_t n,
                 std::size_t k, std::size_t i0, std::size_t i1)
{
    rowBlockBody(a, b, c, n, k, i0, i1);
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * rowBlockBody with 256-bit vectors. "avx2" only: GCC's "avx512f"
 * (and "fma") would let the add contract into an FMA.
 */
[[gnu::target("avx2")]] void
rowBlockAvx2(const float *a, const float *b, float *c, std::size_t n,
             std::size_t k, std::size_t i0, std::size_t i1)
{
    rowBlockBody(a, b, c, n, k, i0, i1);
}
#endif

RowBlockFn
rowBlockFor(detail::GemmIsa isa)
{
    if (isa == detail::GemmIsa::Baseline)
        return rowBlockBaseline;
    SOCFLOW_ASSERT(isa == detail::gemmHostIsa(),
                   "gemm kernel build not supported on this host");
#if defined(__x86_64__) || defined(__i386__)
    return rowBlockAvx2;
#else
    return rowBlockBaseline; // unreachable: the assert fired
#endif
}

/**
 * C[m,n] += A[m,k] * B[k,n] in 64-row blocks of C.
 *
 * Row blocks of C are disjoint, and each output element accumulates
 * its k terms in the same order no matter which thread owns its row
 * block, so fanning the row blocks across the pool is bit-exact with
 * the serial schedule at any thread count.
 */
void
gemmNoTrans(RowBlockFn rowBlock, const float *a, const float *b,
            float *c, std::size_t m, std::size_t n, std::size_t k)
{
    constexpr std::size_t block = 64;
    const auto runBlock = [&](std::size_t bi) {
        const std::size_t i0 = bi * block;
        rowBlock(a, b, c, n, k, i0, std::min(m, i0 + block));
    };
    const std::size_t iBlocks = (m + block - 1) / block;
    // Fan out only when the product is large enough to amortize the
    // dispatch; tiny GEMMs dominate the call count but not the time.
    constexpr std::size_t kParFlopMin = std::size_t{1} << 20;
    ThreadPool &pool = globalThreadPool();
    if (iBlocks > 1 && m * n * k >= kParFlopMin && pool.size() > 1 &&
        !ThreadPool::inWorkerThread()) {
        pool.parallelFor(iBlocks, runBlock);
    } else {
        for (std::size_t bi = 0; bi < iBlocks; ++bi)
            runBlock(bi);
    }
}

/**
 * Per-thread buffer for one transposed operand: grown on demand, kept
 * across calls and never zero-filled (the transpose writes every
 * element it reads back).
 */
struct Scratch {
    std::unique_ptr<float[]> data;
    std::size_t capacity = 0;

    float *
    get(std::size_t n)
    {
        if (n > capacity) {
            data.reset(new float[n]);
            capacity = n;
        }
        return data.get();
    }
};

/** dst[cols, rows] = src[rows, cols]^T, in 16x16 tiles. */
void
transposeInto(const float *src, std::size_t rows, std::size_t cols,
              float *dst)
{
    constexpr std::size_t tile = 16;
    for (std::size_t i0 = 0; i0 < rows; i0 += tile) {
        const std::size_t i1 = std::min(rows, i0 + tile);
        for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
            const std::size_t j1 = std::min(cols, j0 + tile);
            for (std::size_t i = i0; i < i1; ++i)
                for (std::size_t j = j0; j < j1; ++j)
                    dst[j * rows + i] = src[i * cols + j];
        }
    }
}

} // namespace

namespace detail {

GemmIsa
gemmHostIsa()
{
#if defined(__x86_64__) || defined(__i386__)
    static const GemmIsa isa = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") ? GemmIsa::Avx2
                                              : GemmIsa::Baseline;
    }();
    return isa;
#else
    return GemmIsa::Baseline;
#endif
}

void
gemmWithIsa(GemmIsa isa, const Tensor &a, bool trans_a, const Tensor &b,
            bool trans_b, Tensor &c, float beta)
{
    SOCFLOW_ASSERT(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
                   "gemm operands must be rank-2");
    const std::size_t a0 = a.dim(0), a1 = a.dim(1);
    const std::size_t b0 = b.dim(0), b1 = b.dim(1);
    const std::size_t m = trans_a ? a1 : a0;
    const std::size_t ka = trans_a ? a0 : a1;
    const std::size_t kb = trans_b ? b1 : b0;
    const std::size_t n = trans_b ? b0 : b1;
    SOCFLOW_ASSERT(ka == kb, "gemm inner dimensions mismatch: ", ka,
                   " vs ", kb);
    SOCFLOW_ASSERT(c.dim(0) == m && c.dim(1) == n,
                   "gemm output shape mismatch");
    const RowBlockFn rowBlock = rowBlockFor(isa);

    if (beta == 0.0f) {
        c.zero();
    } else if (beta != 1.0f) {
        scale(c, beta);
    }

    // Materialize transposed operands once; simpler and faster than
    // strided inner loops for the sizes we use.
    thread_local Scratch scratchA, scratchB;
    const float *pa = a.data();
    const float *pb = b.data();
    if (trans_a) {
        float *ta = scratchA.get(a0 * a1);
        transposeInto(pa, a0, a1, ta);
        pa = ta;
    }
    if (trans_b) {
        float *tb = scratchB.get(b0 * b1);
        transposeInto(pb, b0, b1, tb);
        pb = tb;
    }
    gemmNoTrans(rowBlock, pa, pb, c.data(), m, n, ka);
}

} // namespace detail

void
gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
     Tensor &c, float beta)
{
    detail::gemmWithIsa(detail::gemmHostIsa(), a, trans_a, b, trans_b, c,
                        beta);
}

void
axpy(float alpha, const Tensor &x, Tensor &y)
{
    SOCFLOW_ASSERT(x.numel() == y.numel(), "axpy size mismatch");
    const float *px = x.data();
    float *py = y.data();
    for (std::size_t i = 0; i < x.numel(); ++i)
        py[i] += alpha * px[i];
}

void
scale(Tensor &x, float alpha)
{
    float *p = x.data();
    for (std::size_t i = 0; i < x.numel(); ++i)
        p[i] *= alpha;
}

void
add(const Tensor &a, const Tensor &b, Tensor &out)
{
    SOCFLOW_ASSERT(a.numel() == b.numel() && a.numel() == out.numel(),
                   "add size mismatch");
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    for (std::size_t i = 0; i < a.numel(); ++i)
        po[i] = pa[i] + pb[i];
}

void
reluForward(const Tensor &x, Tensor &out)
{
    SOCFLOW_ASSERT(x.numel() == out.numel(), "relu size mismatch");
    const float *px = x.data();
    float *po = out.data();
    for (std::size_t i = 0; i < x.numel(); ++i)
        po[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void
reluBackward(const Tensor &x, const Tensor &grad_out, Tensor &grad_in)
{
    SOCFLOW_ASSERT(x.numel() == grad_out.numel() &&
                       x.numel() == grad_in.numel(),
                   "relu backward size mismatch");
    // grad_in = x > 0 ? grad_out : +0.0f, as a branch-free select on
    // the bits so the loop vectorises: an all-ones mask keeps
    // grad_out's bits (NaN payloads and -0.0 included), an all-zeros
    // mask gives +0.0f.
    const float *px = x.data();
    const float *pg = grad_out.data();
    float *po = grad_in.data();
    const std::size_t n = x.numel();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t g;
        std::memcpy(&g, pg + i, sizeof(g));
        g &= -static_cast<std::uint32_t>(px[i] > 0.0f);
        std::memcpy(po + i, &g, sizeof(g));
    }
}

void
biasAddRows(Tensor &x, const Tensor &bias)
{
    SOCFLOW_ASSERT(x.rank() == 2 && bias.numel() == x.dim(1),
                   "biasAddRows shape mismatch");
    float *p = x.data();
    const float *pb = bias.data();
    for (std::size_t r = 0; r < x.dim(0); ++r)
        for (std::size_t c = 0; c < x.dim(1); ++c)
            p[r * x.dim(1) + c] += pb[c];
}

void
biasGradRows(const Tensor &grad_out, Tensor &grad_bias)
{
    SOCFLOW_ASSERT(grad_out.rank() == 2 &&
                       grad_bias.numel() == grad_out.dim(1),
                   "biasGradRows shape mismatch");
    const float *pg = grad_out.data();
    float *pb = grad_bias.data();
    for (std::size_t r = 0; r < grad_out.dim(0); ++r)
        for (std::size_t c = 0; c < grad_out.dim(1); ++c)
            pb[c] += pg[r * grad_out.dim(1) + c];
}

void
biasAddChannels(Tensor &x, const Tensor &bias)
{
    SOCFLOW_ASSERT(x.rank() == 4 && bias.numel() == x.dim(1),
                   "biasAddChannels expects NCHW and one bias/channel");
    const std::size_t hw = x.dim(2) * x.dim(3);
    float *p = x.data();
    const float *pb = bias.data();
    for (std::size_t nIdx = 0; nIdx < x.dim(0); ++nIdx) {
        for (std::size_t cIdx = 0; cIdx < x.dim(1); ++cIdx) {
            float *plane = p + (nIdx * x.dim(1) + cIdx) * hw;
            const float bv = pb[cIdx];
            for (std::size_t i = 0; i < hw; ++i)
                plane[i] += bv;
        }
    }
}

void
biasGradChannels(const Tensor &grad_out, Tensor &grad_bias)
{
    SOCFLOW_ASSERT(grad_out.rank() == 4 &&
                       grad_bias.numel() == grad_out.dim(1),
                   "biasGradChannels shape mismatch");
    const std::size_t hw = grad_out.dim(2) * grad_out.dim(3);
    const float *pg = grad_out.data();
    float *pb = grad_bias.data();
    for (std::size_t nIdx = 0; nIdx < grad_out.dim(0); ++nIdx) {
        for (std::size_t cIdx = 0; cIdx < grad_out.dim(1); ++cIdx) {
            const float *plane = pg + (nIdx * grad_out.dim(1) + cIdx) * hw;
            double s = 0.0;
            for (std::size_t i = 0; i < hw; ++i)
                s += plane[i];
            pb[cIdx] += static_cast<float>(s);
        }
    }
}

void
softmaxRows(const Tensor &logits, Tensor &probs)
{
    SOCFLOW_ASSERT(logits.rank() == 2 &&
                       logits.shape() == probs.shape(),
                   "softmaxRows shape mismatch");
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    const float *pl = logits.data();
    float *pp = probs.data();
    for (std::size_t r = 0; r < batch; ++r) {
        const float *row = pl + r * classes;
        float *orow = pp + r * classes;
        float mx = row[0];
        for (std::size_t c = 1; c < classes; ++c)
            mx = std::max(mx, row[c]);
        double denom = 0.0;
        for (std::size_t c = 0; c < classes; ++c) {
            orow[c] = std::exp(row[c] - mx);
            denom += orow[c];
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (std::size_t c = 0; c < classes; ++c)
            orow[c] *= inv;
    }
}

double
softmaxCrossEntropy(const Tensor &logits, const std::vector<int> &labels,
                    Tensor &probs, Tensor &grad_logits)
{
    SOCFLOW_ASSERT(logits.rank() == 2, "logits must be rank-2");
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    SOCFLOW_ASSERT(labels.size() == batch, "label count mismatch");
    SOCFLOW_ASSERT(probs.shape() == logits.shape() &&
                       grad_logits.shape() == logits.shape(),
                   "output shape mismatch");

    softmaxRows(logits, probs);

    const float *pp = probs.data();
    float *pg = grad_logits.data();
    const float invBatch = 1.0f / static_cast<float>(batch);
    double loss = 0.0;
    for (std::size_t r = 0; r < batch; ++r) {
        const int y = labels[r];
        SOCFLOW_ASSERT(y >= 0 && static_cast<std::size_t>(y) < classes,
                       "label out of range");
        const float *prow = pp + r * classes;
        float *grow = pg + r * classes;
        loss -= std::log(std::max(prow[y], 1e-12f));
        for (std::size_t c = 0; c < classes; ++c)
            grow[c] = prow[c] * invBatch;
        grow[y] -= invBatch;
    }
    return loss / static_cast<double>(batch);
}

std::vector<int>
argmaxRows(const Tensor &scores)
{
    SOCFLOW_ASSERT(scores.rank() == 2, "argmaxRows expects rank-2");
    const std::size_t batch = scores.dim(0);
    const std::size_t classes = scores.dim(1);
    std::vector<int> out(batch, 0);
    const float *p = scores.data();
    for (std::size_t r = 0; r < batch; ++r) {
        const float *row = p + r * classes;
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (row[c] > row[best])
                best = c;
        out[r] = static_cast<int>(best);
    }
    return out;
}

double
cosineSimilarity(const Tensor &a, const Tensor &b)
{
    SOCFLOW_ASSERT(a.numel() == b.numel(),
                   "cosineSimilarity size mismatch");
    double dot = 0.0, na = 0.0, nb = 0.0;
    const float *pa = a.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < a.numel(); ++i) {
        dot += static_cast<double>(pa[i]) * pb[i];
        na += static_cast<double>(pa[i]) * pa[i];
        nb += static_cast<double>(pb[i]) * pb[i];
    }
    if (na <= 0.0 || nb <= 0.0)
        return 0.0;
    return dot / (std::sqrt(na) * std::sqrt(nb));
}

} // namespace tensor
} // namespace socflow
