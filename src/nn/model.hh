/**
 * @file
 * Model wrapper: a classifier network plus loss/metrics and the flat
 * parameter view used by optimizers and collectives.
 */

#ifndef SOCFLOW_NN_MODEL_HH
#define SOCFLOW_NN_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hh"

namespace socflow {
namespace nn {

/** Result of one training step on a batch. */
struct StepResult {
    double loss = 0.0;
    double accuracy = 0.0;   //!< fraction of correct argmax
    std::size_t samples = 0;
};

/**
 * A classification model: network + softmax cross-entropy head.
 */
class Model
{
  public:
    /** Take ownership of the network; name is used in reports. */
    Model(std::string name, std::unique_ptr<Layer> net);

    Model(const Model &other);
    Model &operator=(const Model &other);
    Model(Model &&) = default;
    Model &operator=(Model &&) = default;

    /** Report name. */
    const std::string &name() const { return name_; }

    /** Forward only; returns logits [batch, classes]. */
    Tensor logits(const Tensor &x, bool train = false);

    /**
     * Forward + backward on a labeled batch; accumulates parameter
     * gradients (call zeroGrad() first for a fresh batch).
     */
    StepResult trainStep(const Tensor &x, const std::vector<int> &labels);

    /** Evaluate accuracy/mean loss without touching gradients. */
    StepResult evaluate(const Tensor &x, const std::vector<int> &labels);

    /** Zero every parameter gradient. */
    void zeroGrad();

    /** All parameters in deterministic order. */
    std::vector<Param *> params();

    /** Total trainable scalar count. */
    std::size_t paramCount();

    /** Copy all parameter values into one flat vector. */
    std::vector<float> flatParams();

    /** Copy all parameter gradients into one flat vector. */
    std::vector<float> flatGrads();

    /** Overwrite parameters from a flat vector (size must match). */
    void setFlatParams(const std::vector<float> &flat);

    /** Overwrite gradients from a flat vector (size must match). */
    void setFlatGrads(const std::vector<float> &flat);

    /**
     * Copy every parameter value of `other`, a model of the same
     * architecture, tensor by tensor (no flat vector in between).
     */
    void copyParamsFrom(Model &other);

  private:
    std::string name_;
    std::unique_ptr<Layer> net;
};

} // namespace nn
} // namespace socflow

#endif // SOCFLOW_NN_MODEL_HH
