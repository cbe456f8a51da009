/**
 * @file
 * Layer abstraction for the training substrate.
 *
 * Layers cache what they need during forward() and release gradients
 * during backward(). Parameters are exposed as (value, grad) pairs so
 * optimizers and collectives can treat a model as one flat vector.
 *
 * One backward per forward: a training forward (train = true) fills
 * the layer's cache (its input, argmax indices, a pre-activation
 * sum), and backward() or backwardParams() consumes and frees it. So
 * no replica holds activations between steps, and a second backward
 * without a fresh training forward trips a SOCFLOW_ASSERT.
 */

#ifndef SOCFLOW_NN_LAYER_HH
#define SOCFLOW_NN_LAYER_HH

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace socflow {
namespace nn {

using tensor::Tensor;

/** One trainable parameter tensor with its gradient accumulator. */
struct Param {
    std::string name;
    Tensor value;
    Tensor grad;

    Param(std::string name, Tensor v)
        : name(std::move(name)), value(std::move(v)),
          grad(value.shape())
    {
    }
};

/**
 * Base class for all network layers.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Run the layer on a batch.
     * @param x input activation.
     * @param train true during training (enables caching).
     */
    virtual Tensor forward(const Tensor &x, bool train) = 0;

    /**
     * Backpropagate through the layer, accumulating parameter
     * gradients and returning the input gradient. Consumes the cache
     * of the last training forward().
     */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /**
     * backward() for a layer whose input gradient nobody reads (the
     * network's first layer): accumulates the same parameter
     * gradients, bit for bit, and returns nothing. Layers that can
     * skip the input-gradient work override it.
     */
    virtual void backwardParams(const Tensor &grad_out)
    {
        backward(grad_out);
    }

    /** Mutable views of the layer's parameters (possibly empty). */
    virtual std::vector<Param *> params() { return {}; }

    /** Human-readable layer name for diagnostics. */
    virtual std::string name() const = 0;

    /** Deep copy with identical parameter values. */
    virtual std::unique_ptr<Layer> clone() const = 0;

  protected:
    /**
     * Hand a forward cache (a Tensor, or an index vector or Shape) to
     * backward and leave the layer without one: the moved-from cache
     * is empty, so a second backward trips a SOCFLOW_ASSERT.
     */
    static Tensor takeCache(Tensor &cache);
    static std::vector<std::size_t> takeCache(std::vector<std::size_t> &cache);
};

} // namespace nn
} // namespace socflow

#endif // SOCFLOW_NN_LAYER_HH
