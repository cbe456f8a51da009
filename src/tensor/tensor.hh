/**
 * @file
 * Dense FP32 tensor used by the training substrate.
 *
 * Row-major, owning, with an NCHW convention for image batches. The
 * class is deliberately small: shape bookkeeping plus element access;
 * all math lives in free functions (ops.hh, conv.hh) so kernels can
 * be tested against naive references.
 */

#ifndef SOCFLOW_TENSOR_TENSOR_HH
#define SOCFLOW_TENSOR_TENSOR_HH

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace socflow {
namespace tensor {

/** Shape as a list of dimensions; empty means a scalar-less tensor. */
using Shape = std::vector<std::size_t>;

/** Number of elements implied by a shape. */
std::size_t shapeNumel(const Shape &shape);

/** Render a shape as "[a, b, c]" for diagnostics. */
std::string shapeStr(const Shape &shape);

/**
 * Owning dense FP32 tensor.
 */
class Tensor
{
  public:
    /** Empty tensor (no elements, empty shape). */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Tensor of the given shape filled with `value`. */
    Tensor(Shape shape, float value);

    /** Factory: zero-filled. */
    static Tensor zeros(Shape shape);

    /** Factory: i.i.d. Gaussian entries with the given stddev. */
    static Tensor randn(Shape shape, Rng &rng, float stddev = 1.0f);

    /** Factory: wrap explicit values (size must match shape). */
    static Tensor fromValues(Shape shape, std::vector<float> values);

    /** Dimensions. */
    const Shape &shape() const { return shape_; }

    /** Extent of one dimension. */
    std::size_t dim(std::size_t i) const;

    /** Number of dimensions. */
    std::size_t rank() const { return shape_.size(); }

    /** Total element count. */
    std::size_t numel() const { return data_.size(); }

    /** True when the tensor holds no elements. */
    bool empty() const { return data_.empty(); }

    /** Raw storage. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Raw storage as a vector, for APIs that take one; its size must
     *  stay numel(). */
    std::vector<float> &values() { return data_; }

    /** Flat element access with bounds checking in debug builds. */
    float &operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** 2-D access for matrices shaped [rows, cols]. */
    float &at(std::size_t r, std::size_t c);
    float at(std::size_t r, std::size_t c) const;

    /** Fill every element with `value`. */
    void fill(float value);

    /** Set all elements to zero. */
    void zero() { fill(0.0f); }

    /**
     * Reinterpret with a new shape of identical element count
     * (no copy of semantics -- data stays flat row-major).
     */
    void reshape(Shape shape);

    /** Sum of all elements. */
    double sum() const;

    /** L2 norm of all elements. */
    double norm() const;

    /** True when shapes and all elements match exactly. */
    bool equals(const Tensor &other) const;

    /** Max absolute difference; requires matching numel. */
    double maxAbsDiff(const Tensor &other) const;

  private:
    Shape shape_;
    std::vector<float> data_;
};

} // namespace tensor
} // namespace socflow

#endif // SOCFLOW_TENSOR_TENSOR_HH
