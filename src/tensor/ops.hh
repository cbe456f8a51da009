/**
 * @file
 * Dense linear-algebra and elementwise kernels.
 *
 * All kernels are plain loops. GEMM is cache-blocked, fans its row
 * blocks out over the pool and runs an AVX2 build of its loop where
 * the CPU has one, bit-identical at any thread count and either ISA;
 * determinism matters more than peak FLOPs for a reproduction, and
 * the wall-clock of the simulated hardware comes from the compute
 * model, not from these kernels.
 */

#ifndef SOCFLOW_TENSOR_OPS_HH
#define SOCFLOW_TENSOR_OPS_HH

#include <cstddef>

#include "tensor/tensor.hh"

namespace socflow {
namespace tensor {

/**
 * General matrix multiply: C = A(opA) * B(opB) + beta * C.
 * A is [m, k] after opA; B is [k, n] after opB; C is [m, n].
 * @param trans_a treat A as transposed.
 * @param trans_b treat B as transposed.
 */
void gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
          Tensor &c, float beta = 0.0f);

namespace detail {

/**
 * Builds of gemm()'s row-streaming kernel. Both run the same loop in
 * the same order and give bit-identical results; Avx2 runs it on
 * 256-bit vectors and exists only on x86.
 */
enum class GemmIsa { Baseline, Avx2 };

/** The build gemm() runs on this host: Avx2 when the CPU has it. */
GemmIsa gemmHostIsa();

/**
 * gemm() with its kernel build pinned to `isa`, so a test can run
 * both builds on one host. `isa` must be Baseline or gemmHostIsa().
 */
void gemmWithIsa(GemmIsa isa, const Tensor &a, bool trans_a,
                 const Tensor &b, bool trans_b, Tensor &c, float beta);

} // namespace detail

/** y += alpha * x (flat, matching numel). */
void axpy(float alpha, const Tensor &x, Tensor &y);

/** x *= alpha (flat). */
void scale(Tensor &x, float alpha);

/** out = a + b elementwise (matching numel). */
void add(const Tensor &a, const Tensor &b, Tensor &out);

/** ReLU forward: out = max(x, 0). */
void reluForward(const Tensor &x, Tensor &out);

/**
 * ReLU backward: grad_in = grad_out where x > 0 else 0.
 * `x` is the forward input.
 */
void reluBackward(const Tensor &x, const Tensor &grad_out,
                  Tensor &grad_in);

/**
 * Add a bias vector to a [batch, features] matrix, one bias per
 * feature column.
 */
void biasAddRows(Tensor &x, const Tensor &bias);

/**
 * Accumulate the bias gradient of a [batch, features] gradient into
 * `grad_bias` (length features).
 */
void biasGradRows(const Tensor &grad_out, Tensor &grad_bias);

/**
 * Add a per-channel bias to an NCHW tensor.
 */
void biasAddChannels(Tensor &x, const Tensor &bias);

/** Accumulate per-channel bias gradient from an NCHW gradient. */
void biasGradChannels(const Tensor &grad_out, Tensor &grad_bias);

/**
 * Row-wise softmax of a [batch, classes] matrix into `probs`.
 */
void softmaxRows(const Tensor &logits, Tensor &probs);

/**
 * Mean cross-entropy loss of logits against integer labels; also
 * emits softmax probabilities (for accuracy and for the
 * mixed-precision confidence metric) and the logits gradient
 * (probs - onehot) / batch.
 * @return the mean loss.
 */
double softmaxCrossEntropy(const Tensor &logits,
                           const std::vector<int> &labels,
                           Tensor &probs, Tensor &grad_logits);

/** Row-wise argmax of a [batch, classes] matrix. */
std::vector<int> argmaxRows(const Tensor &scores);

/** Cosine similarity of two flat tensors (0 when either is zero). */
double cosineSimilarity(const Tensor &a, const Tensor &b);

} // namespace tensor
} // namespace socflow

#endif // SOCFLOW_TENSOR_OPS_HH
