/**
 * @file
 * Data-parallel mixed-precision controller (§3.2).
 *
 * alpha -- the INT8-model confidence -- is the cosine similarity of
 * the FP32 and INT8 logits over the validation set (Eq. 4), profiled
 * before each epoch. beta is the static compute-power ratio
 * T_NPU / (T_NPU + T_CPU) (Eq. 6). The CPU receives the
 * max{e^-alpha, 1-beta} fraction of every mini-batch, and the two
 * replicas' weights merge on-chip as
 *   w = e^-alpha * w_FP32 + (1 - e^-alpha) * w_INT8      (Eq. 5).
 */

#ifndef SOCFLOW_CORE_MIXED_PRECISION_HH
#define SOCFLOW_CORE_MIXED_PRECISION_HH

#include <vector>

#include "tensor/tensor.hh"

namespace socflow {
namespace core {

/**
 * Tracks alpha/beta and derives the batch split and weight merge.
 */
class MixedPrecisionController
{
  public:
    /**
     * @param cpu_ms_per_sample FP32 per-sample time on the CPU.
     * @param npu_ms_per_sample INT8 per-sample time on the NPU.
     */
    MixedPrecisionController(double cpu_ms_per_sample,
                             double npu_ms_per_sample);

    /**
     * beta: the NPU's share of combined compute power (Eq. 6),
     * i.e. the batch fraction that keeps CPU and NPU equally busy.
     */
    double beta() const { return beta_; }

    /** Latest profiled alpha (starts at 1: full NPU confidence). */
    double alpha() const { return alpha_; }

    /** Recompute alpha from validation logits (Eq. 4). */
    void updateAlpha(const tensor::Tensor &logits_fp32,
                     const tensor::Tensor &logits_int8);

    /** Directly set alpha (tests / the fixed-split ablation). */
    void setAlpha(double alpha);

    /** CPU share of each mini-batch: max{e^-alpha, 1-beta}. */
    double cpuFraction() const;

    /**
     * Eq. 5 merge: out = e^-alpha * fp32 + (1 - e^-alpha) * int8.
     * All vectors must have identical size; `out` may be `w_fp32`
     * itself (an in-place merge).
     */
    void mergeWeights(const std::vector<float> &w_fp32,
                      const std::vector<float> &w_int8,
                      std::vector<float> &out) const;

  private:
    double beta_;
    double alpha_ = 1.0;
};

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_MIXED_PRECISION_HH
