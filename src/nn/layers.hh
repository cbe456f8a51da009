/**
 * @file
 * Concrete layers: Dense, Conv2D, DepthwiseConv2D, ReLU, MaxPool2D,
 * GlobalAvgPool, Flatten.
 */

#ifndef SOCFLOW_NN_LAYERS_HH
#define SOCFLOW_NN_LAYERS_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/layer.hh"
#include "tensor/conv.hh"
#include "util/rng.hh"

namespace socflow {
namespace nn {

/**
 * Fully connected layer on [batch, in] -> [batch, out] with bias.
 * Weights use He/Kaiming initialization.
 */
class Dense : public Layer
{
  public:
    Dense(std::size_t in_features, std::size_t out_features, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    /** dW and db only: skips the dX GEMM. */
    void backwardParams(const Tensor &grad_out) override;
    std::vector<Param *> params() override;
    std::string name() const override;
    std::unique_ptr<Layer> clone() const override;

    std::size_t inFeatures() const { return inF; }
    std::size_t outFeatures() const { return outF; }

  private:
    std::size_t inF, outF;
    Param weight;  //!< [out, in]
    Param bias;    //!< [out]
    Tensor cachedInput;
};

/**
 * 2-D convolution with bias (NCHW, square kernel).
 */
class Conv2D : public Layer
{
  public:
    Conv2D(tensor::ConvGeom geom, Rng &rng,
           float init_scale = 1.0f);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    /** dW and db only: skips the dX GEMM and col2im. */
    void backwardParams(const Tensor &grad_out) override;
    std::vector<Param *> params() override;
    std::string name() const override;
    std::unique_ptr<Layer> clone() const override;

    const tensor::ConvGeom &geom() const { return g; }

  private:
    tensor::ConvGeom g;
    Param weight;  //!< [outC, inC, k, k]
    Param bias;    //!< [outC]
    Tensor cachedInput;
};

/**
 * Depthwise 2-D convolution (MobileNet-style), one filter per
 * channel, with bias.
 */
class DepthwiseConv2D : public Layer
{
  public:
    DepthwiseConv2D(std::size_t channels, std::size_t kernel,
                    std::size_t stride, std::size_t pad, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override;
    std::string name() const override;
    std::unique_ptr<Layer> clone() const override;

  private:
    tensor::ConvGeom g;
    Param weight;  //!< [C, 1, k, k]
    Param bias;    //!< [C]
    Tensor cachedInput;
};

/** Elementwise rectifier. */
class ReLU : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "relu"; }
    std::unique_ptr<Layer> clone() const override;

  private:
    Tensor cachedInput;
};

/** Square max pooling. */
class MaxPool2D : public Layer
{
  public:
    MaxPool2D(std::size_t kernel, std::size_t stride);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "maxpool"; }
    std::unique_ptr<Layer> clone() const override;

  private:
    std::size_t kernel, stride;
    tensor::Shape cachedInShape;
    std::vector<std::size_t> argmax;
};

/** Global average pooling [N,C,H,W] -> [N,C]. */
class GlobalAvgPool : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "gap"; }
    std::unique_ptr<Layer> clone() const override;

  private:
    tensor::Shape cachedInShape;
};

/** Reshape [N,C,H,W] -> [N, C*H*W]. */
class Flatten : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "flatten"; }
    std::unique_ptr<Layer> clone() const override;

  private:
    tensor::Shape cachedInShape;
};

} // namespace nn
} // namespace socflow

#endif // SOCFLOW_NN_LAYERS_HH
