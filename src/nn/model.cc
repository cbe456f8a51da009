#include "nn/model.hh"

#include "tensor/ops.hh"
#include "util/logging.hh"

namespace socflow {
namespace nn {

Model::Model(std::string name, std::unique_ptr<Layer> network)
    : name_(std::move(name)), net(std::move(network))
{
    SOCFLOW_ASSERT(net != nullptr, "model needs a network");
}

Model::Model(const Model &other)
    : name_(other.name_), net(other.net->clone())
{
}

Model &
Model::operator=(const Model &other)
{
    if (this != &other) {
        name_ = other.name_;
        net = other.net->clone();
    }
    return *this;
}

Tensor
Model::logits(const Tensor &x, bool train)
{
    return net->forward(x, train);
}

StepResult
Model::trainStep(const Tensor &x, const std::vector<int> &labels)
{
    Tensor out = net->forward(x, true);
    Tensor probs(out.shape());
    Tensor gradLogits(out.shape());
    StepResult r;
    r.loss = tensor::softmaxCrossEntropy(out, labels, probs, gradLogits);
    r.samples = labels.size();
    const auto preds = tensor::argmaxRows(probs);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < labels.size(); ++i)
        correct += preds[i] == labels[i] ? 1 : 0;
    r.accuracy = static_cast<double>(correct) /
                 static_cast<double>(labels.size());
    // Nothing reads the network's input gradient: its first layer
    // skips that work.
    net->backwardParams(gradLogits);
    return r;
}

StepResult
Model::evaluate(const Tensor &x, const std::vector<int> &labels)
{
    Tensor out = net->forward(x, false);
    Tensor probs(out.shape());
    tensor::softmaxRows(out, probs);
    StepResult r;
    r.samples = labels.size();
    const auto preds = tensor::argmaxRows(probs);
    std::size_t correct = 0;
    double loss = 0.0;
    const float *pp = probs.data();
    const std::size_t classes = probs.dim(1);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        correct += preds[i] == labels[i] ? 1 : 0;
        loss -= std::log(std::max(
            pp[i * classes + static_cast<std::size_t>(labels[i])],
            1e-12f));
    }
    r.accuracy = static_cast<double>(correct) /
                 static_cast<double>(labels.size());
    r.loss = loss / static_cast<double>(labels.size());
    return r;
}

void
Model::zeroGrad()
{
    for (Param *p : net->params())
        p->grad.zero();
}

std::vector<Param *>
Model::params()
{
    return net->params();
}

std::size_t
Model::paramCount()
{
    std::size_t n = 0;
    for (Param *p : net->params())
        n += p->value.numel();
    return n;
}

std::vector<float>
Model::flatParams()
{
    std::vector<float> flat;
    flat.reserve(paramCount());
    for (Param *p : net->params())
        flat.insert(flat.end(), p->value.data(),
                    p->value.data() + p->value.numel());
    return flat;
}

std::vector<float>
Model::flatGrads()
{
    std::vector<float> flat;
    flat.reserve(paramCount());
    for (Param *p : net->params())
        flat.insert(flat.end(), p->grad.data(),
                    p->grad.data() + p->grad.numel());
    return flat;
}

void
Model::setFlatParams(const std::vector<float> &flat)
{
    SOCFLOW_ASSERT(flat.size() == paramCount(),
                   "flat parameter size mismatch");
    std::size_t off = 0;
    for (Param *p : net->params()) {
        std::copy(flat.begin() + off,
                  flat.begin() + off + p->value.numel(),
                  p->value.data());
        off += p->value.numel();
    }
}

void
Model::setFlatGrads(const std::vector<float> &flat)
{
    SOCFLOW_ASSERT(flat.size() == paramCount(),
                   "flat gradient size mismatch");
    std::size_t off = 0;
    for (Param *p : net->params()) {
        std::copy(flat.begin() + off,
                  flat.begin() + off + p->grad.numel(), p->grad.data());
        off += p->grad.numel();
    }
}

void
Model::copyParamsFrom(Model &other)
{
    const std::vector<Param *> mine = net->params();
    const std::vector<Param *> theirs = other.net->params();
    SOCFLOW_ASSERT(mine.size() == theirs.size(),
                   "parameter tensor count mismatch");
    for (std::size_t i = 0; i < mine.size(); ++i) {
        SOCFLOW_ASSERT(mine[i]->value.shape() == theirs[i]->value.shape(),
                       "parameter shape mismatch");
        mine[i]->value = theirs[i]->value;
    }
}

} // namespace nn
} // namespace socflow
