/**
 * @file
 * INT8 training path (the simulated NPU backend).
 *
 * Follows the NITI-style integer-training recipe the paper builds on:
 * FP32 master weights, fake-quantized weights for forward/backward,
 * and gradients quantized (with stochastic rounding) before the SGD
 * update. The accuracy gap relative to the FP32 CPU path -- and its
 * growth with distributed scale -- emerges from these numerics, which
 * is exactly the phenomenon SoCFlow's mixed-precision algorithm
 * compensates for.
 */

#ifndef SOCFLOW_QUANT_INT8_TRAINER_HH
#define SOCFLOW_QUANT_INT8_TRAINER_HH

#include <vector>

#include "nn/model.hh"
#include "nn/sgd.hh"
#include "quant/quantize.hh"

namespace socflow {
namespace quant {

/**
 * Wraps a model replica with quantized train/eval steps.
 */
class Int8Trainer
{
  public:
    /**
     * @param model replica trained in INT8 (owned by the caller).
     * @param sgd_cfg optimizer hyperparameters.
     * @param quant_cfg bit width / rounding mode.
     */
    Int8Trainer(nn::Model &model, nn::SgdConfig sgd_cfg,
                QuantConfig quant_cfg, std::uint64_t seed = 17);

    /**
     * One quantized training step: quantize weights, run
     * forward/backward, quantize gradients, apply SGD on the FP32
     * master weights.
     */
    nn::StepResult trainStep(const Tensor &x,
                             const std::vector<int> &labels);

    /** Logits under quantized weights (for the alpha metric). */
    Tensor logits(const Tensor &x);

    /**
     * Quantized-path gradients on a probe batch, without applying an
     * update. Used by the mixed-precision controller's confidence
     * metric: the cosine between FP32 and INT8 gradients decays as
     * training converges (UI8-style direction deviation).
     */
    std::vector<float> probeGradients(const Tensor &x,
                                      const std::vector<int> &labels);

    /** Underlying model (master FP32 weights). */
    nn::Model &model() { return model_; }

    /** Optimizer, exposed for LR schedules. */
    nn::Sgd &optimizer() { return sgd; }

    /** Quantization configuration. */
    const QuantConfig &quantConfig() const { return qcfg; }

  private:
    /**
     * Fake-quantize each master tensor into its shadow and swap the
     * shadow into the model, so forward/backward read the quantized
     * weights while the masters wait in `shadow`.
     */
    void pushQuantizedWeights();

    /** Swap the masters saved by pushQuantizedWeights() back in. */
    void popWeights();

    nn::Model &model_;
    nn::Sgd sgd;
    QuantConfig qcfg;
    Rng rng;
    /** One tensor per Param: quantized weights, or the masters while
     *  those are swapped out. Reused across steps. */
    std::vector<Tensor> shadow;
};

} // namespace quant
} // namespace socflow

#endif // SOCFLOW_QUANT_INT8_TRAINER_HH
