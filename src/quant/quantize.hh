/**
 * @file
 * Symmetric per-tensor integer quantization kernels.
 *
 * The Hexagon NPU trains in INT8; we reproduce the *numerics* of that
 * path on the host: symmetric per-tensor scales, round-to-nearest or
 * stochastic rounding, INT32 accumulation for integer GEMM. The
 * accuracy degradation the paper observes for NPU-only training
 * (Fig. 4c) emerges from these kernels rather than being injected.
 */

#ifndef SOCFLOW_QUANT_QUANTIZE_HH
#define SOCFLOW_QUANT_QUANTIZE_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace socflow {
namespace quant {

using tensor::Tensor;

/** Quantization bit-width configuration. */
struct QuantConfig {
    int bits = 8;               //!< symmetric signed: [-2^(b-1)+1, ...]
    bool stochasticRounding = true;
};

/** Largest positive quantized magnitude for a bit width. */
int quantMax(int bits);

/**
 * Symmetric per-tensor scale: max|x| / quantMax, where the max skips
 * NaNs. Returns 0 for an all-zero tensor (quantization is then a
 * no-op).
 */
float computeScale(const float *x, std::size_t n, int bits);

/**
 * Quantize to integers: q = clamp(round(x / scale)); a NaN quotient
 * gives 0.
 * @param rng used only when cfg.stochasticRounding is set.
 */
void quantize(const float *x, std::size_t n, float scale,
              const QuantConfig &cfg, Rng *rng, std::int32_t *q);

/** Dequantize integers back to floats: x = q * scale. */
void dequantize(const std::int32_t *q, std::size_t n, float scale,
                float *x);

/**
 * Fake-quantize in place: x <- dequantize(quantize(x)). This is the
 * standard way to expose quantization error to an FP32 kernel. A NaN
 * stays NaN, and so does every element whose quotient x / scale is
 * NaN (an infinity, once one makes the scale infinite).
 */
void fakeQuantize(Tensor &x, const QuantConfig &cfg, Rng *rng = nullptr);

namespace detail {

/**
 * Builds of computeScale()'s max-abs pass. Both give bit-identical
 * results, NaN rule included; Avx2 runs on 256-bit vectors and exists
 * only on x86.
 */
enum class ScaleIsa { Baseline, Avx2 };

/** The build computeScale() runs on this host: Avx2 when it has it. */
ScaleIsa scaleHostIsa();

/**
 * computeScale() with its max-abs build pinned to `isa`, so a test can
 * run both builds on one host. `isa` must be Baseline or
 * scaleHostIsa().
 */
float computeScaleWithIsa(ScaleIsa isa, const float *x, std::size_t n,
                          int bits);

/**
 * Builds of fakeQuantize()'s round-to-nearest pass. Both give
 * bit-identical results; Sse41 rounds with roundps and exists only
 * on x86.
 */
enum class RoundIsa { Baseline, Sse41 };

/** The build fakeQuantize() runs on this host: Sse41 when it has it. */
RoundIsa roundHostIsa();

/**
 * fakeQuantize() with its rounding build pinned to `isa`, so a test
 * can run both builds on one host. `isa` must be Baseline or
 * roundHostIsa().
 */
void fakeQuantizeWithIsa(RoundIsa isa, Tensor &x, const QuantConfig &cfg,
                         Rng *rng);

} // namespace detail

/**
 * Integer GEMM with INT32 accumulation: C = A[m,k] * B[k,n].
 * Inputs are already-quantized INT8 values stored widened; the caller
 * applies the combined scale afterwards. Used to validate that the
 * fake-quantized FP32 path matches true integer arithmetic.
 */
void int8Gemm(const std::int32_t *a, const std::int32_t *b,
              std::int32_t *c, std::size_t m, std::size_t n,
              std::size_t k);

/**
 * Reference check helper: run an FP32 GEMM through quantize -> int8
 * GEMM -> rescale. @return result tensor [m, n].
 */
Tensor quantizedGemmReference(const Tensor &a, const Tensor &b,
                              const QuantConfig &cfg);

} // namespace quant
} // namespace socflow

#endif // SOCFLOW_QUANT_QUANTIZE_HH
