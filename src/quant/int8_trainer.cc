#include "quant/int8_trainer.hh"

#include <utility>

namespace socflow {
namespace quant {

Int8Trainer::Int8Trainer(nn::Model &model, nn::SgdConfig sgd_cfg,
                         QuantConfig quant_cfg, std::uint64_t seed)
    : model_(model), sgd(model, sgd_cfg), qcfg(quant_cfg), rng(seed)
{
}

void
Int8Trainer::pushQuantizedWeights()
{
    const std::vector<nn::Param *> ps = model_.params();
    shadow.resize(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        shadow[i] = ps[i]->value;
        fakeQuantize(shadow[i], qcfg, nullptr);
        std::swap(ps[i]->value, shadow[i]);
    }
}

void
Int8Trainer::popWeights()
{
    const std::vector<nn::Param *> ps = model_.params();
    for (std::size_t i = 0; i < ps.size(); ++i)
        std::swap(ps[i]->value, shadow[i]);
}

nn::StepResult
Int8Trainer::trainStep(const Tensor &x, const std::vector<int> &labels)
{
    // Forward/backward under quantized weights.
    pushQuantizedWeights();
    model_.zeroGrad();
    nn::StepResult r = model_.trainStep(x, labels);
    popWeights();

    // Quantize the gradients before the update. The fixed-point
    // pipeline rounds to nearest: per-tensor scales are set by the
    // largest gradient entry, so small late-training gradients fall
    // below half a grid step and vanish -- the root cause of the
    // INT8 convergence ceiling (cf. the compensation schemes in
    // Octo/UI8 that exist precisely to fight this).
    QuantConfig gradCfg = qcfg;
    gradCfg.stochasticRounding = false;
    for (nn::Param *p : model_.params())
        fakeQuantize(p->grad, gradCfg, nullptr);
    sgd.step();

    // Weights live on the integer grid too (the NPU has no FP32
    // side-store): re-quantize after the update with round-to-
    // nearest, so updates below half a grid step are lost. This is
    // the mechanism behind the INT8 accuracy ceiling the paper
    // measures (Fig. 4c).
    QuantConfig weightCfg = qcfg;
    weightCfg.stochasticRounding = false;
    for (nn::Param *p : model_.params())
        fakeQuantize(p->value, weightCfg, nullptr);
    return r;
}

std::vector<float>
Int8Trainer::probeGradients(const Tensor &x,
                            const std::vector<int> &labels)
{
    pushQuantizedWeights();
    model_.zeroGrad();
    model_.trainStep(x, labels);
    popWeights();
    for (nn::Param *p : model_.params())
        fakeQuantize(p->grad, qcfg, &rng);
    std::vector<float> grads = model_.flatGrads();
    model_.zeroGrad();
    return grads;
}

Tensor
Int8Trainer::logits(const Tensor &x)
{
    pushQuantizedWeights();
    Tensor out = model_.logits(x, false);
    popWeights();
    return out;
}

} // namespace quant
} // namespace socflow
