/**
 * @file
 * Layer/model/optimizer tests: gradient checks through whole layers,
 * clone independence, the model zoo, flat-parameter plumbing, and
 * SGD semantics (momentum, decay, clipping).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/layers.hh"
#include "nn/model.hh"
#include "nn/sequential.hh"
#include "nn/sgd.hh"
#include "nn/zoo.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

using namespace socflow;
using namespace socflow::nn;
using socflow::tensor::Shape;
using socflow::tensor::Tensor;

namespace {

/** Numeric gradient check of a layer via sum(forward(x)). */
void
checkLayerGradients(Layer &layer, const Tensor &x, double tol = 5e-2)
{
    Tensor out = layer.forward(x, true);
    Tensor gradOut(out.shape(), 1.0f);
    for (Param *p : layer.params())
        p->grad.zero();
    layer.backward(gradOut);

    const float eps = 1e-2f;
    for (Param *p : layer.params()) {
        const std::size_t stride =
            std::max<std::size_t>(1, p->value.numel() / 4);
        for (std::size_t i = 0; i < p->value.numel(); i += stride) {
            const float orig = p->value[i];
            p->value[i] = orig + eps;
            const double up = layer.forward(x, false).sum();
            p->value[i] = orig - eps;
            const double dn = layer.forward(x, false).sum();
            p->value[i] = orig;
            EXPECT_NEAR(p->grad[i], (up - dn) / (2.0 * eps), tol)
                << p->name << "[" << i << "]";
        }
    }
}

} // namespace

// ---------------------------------------------------------------- Dense

TEST(Dense, ForwardShape)
{
    Rng rng(1);
    Dense d(4, 3, rng);
    Tensor x = Tensor::randn({2, 4}, rng);
    Tensor out = d.forward(x, false);
    EXPECT_EQ(out.shape(), (Shape{2, 3}));
}

TEST(Dense, GradientCheck)
{
    Rng rng(2);
    Dense d(5, 3, rng);
    Tensor x = Tensor::randn({4, 5}, rng);
    checkLayerGradients(d, x);
}

TEST(Dense, InputGradientCheck)
{
    Rng rng(3);
    Dense d(3, 2, rng);
    Tensor x = Tensor::randn({2, 3}, rng);
    d.forward(x, true);
    Tensor gradOut({2, 2}, 1.0f);
    Tensor gradIn = d.backward(gradOut);

    const float eps = 1e-2f;
    for (std::size_t i = 0; i < x.numel(); ++i) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const double numeric =
            (d.forward(xp, false).sum() - d.forward(xm, false).sum()) /
            (2.0 * eps);
        EXPECT_NEAR(gradIn[i], numeric, 5e-2);
    }
}

TEST(Dense, CloneIsIndependent)
{
    Rng rng(4);
    Dense d(2, 2, rng);
    auto copy = d.clone();
    const float before = copy->params()[0]->value[0];
    d.params()[0]->value[0] += 100.0f;
    EXPECT_EQ(copy->params()[0]->value[0], before);
}

// ------------------------------------------------------------ Conv2D

TEST(Conv2D, GradientCheck)
{
    Rng rng(5);
    Conv2D conv(tensor::ConvGeom{2, 3, 3, 1, 1}, rng);
    Tensor x = Tensor::randn({1, 2, 5, 5}, rng, 0.5f);
    checkLayerGradients(conv, x);
}

TEST(DepthwiseConv2D, GradientCheck)
{
    Rng rng(6);
    DepthwiseConv2D conv(2, 3, 1, 1, rng);
    Tensor x = Tensor::randn({1, 2, 5, 5}, rng, 0.5f);
    checkLayerGradients(conv, x);
}

// -------------------------------------------------------- containers

TEST(Sequential, ForwardBackwardChain)
{
    Rng rng(7);
    auto seq = std::make_unique<Sequential>();
    seq->add(std::make_unique<Dense>(4, 8, rng));
    seq->add(std::make_unique<ReLU>());
    seq->add(std::make_unique<Dense>(8, 2, rng));
    Tensor x = Tensor::randn({3, 4}, rng);
    Tensor out = seq->forward(x, true);
    EXPECT_EQ(out.shape(), (Shape{3, 2}));
    Tensor gradIn = seq->backward(Tensor(out.shape(), 1.0f));
    EXPECT_EQ(gradIn.shape(), x.shape());
    EXPECT_EQ(seq->params().size(), 4u);  // two dense layers x (w, b)
}

TEST(Sequential, GradientCheckThroughStack)
{
    Rng rng(8);
    Sequential seq;
    seq.add(std::make_unique<Dense>(3, 6, rng));
    seq.add(std::make_unique<ReLU>());
    seq.add(std::make_unique<Dense>(6, 2, rng));
    Tensor x = Tensor::randn({2, 3}, rng);
    checkLayerGradients(seq, x);
}

TEST(Residual, IdentityShortcutShapes)
{
    Rng rng(9);
    auto main = std::make_unique<Sequential>();
    main->add(std::make_unique<Conv2D>(tensor::ConvGeom{2, 2, 3, 1, 1},
                                       rng));
    Residual res(std::move(main));
    Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
    Tensor out = res.forward(x, true);
    EXPECT_EQ(out.shape(), x.shape());
}

TEST(Residual, GradientCheck)
{
    Rng rng(10);
    auto main = std::make_unique<Sequential>();
    main->add(std::make_unique<Conv2D>(tensor::ConvGeom{2, 2, 3, 1, 1},
                                       rng, 0.5f));
    Residual res(std::move(main));
    Tensor x = Tensor::randn({1, 2, 4, 4}, rng, 0.5f);
    checkLayerGradients(res, x, 8e-2);
}

TEST(Residual, ProjectionShortcutChangesShape)
{
    Rng rng(11);
    auto main = std::make_unique<Sequential>();
    main->add(std::make_unique<Conv2D>(tensor::ConvGeom{2, 4, 3, 2, 1},
                                       rng));
    auto proj = std::make_unique<Conv2D>(tensor::ConvGeom{2, 4, 1, 2, 0},
                                         rng);
    Residual res(std::move(main), std::move(proj));
    Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
    Tensor out = res.forward(x, true);
    EXPECT_EQ(out.shape(), (Shape{1, 4, 3, 3}));
    Tensor gradIn = res.backward(Tensor(out.shape(), 1.0f));
    EXPECT_EQ(gradIn.shape(), x.shape());
}

// -------------------------------------------------------------- zoo

class ZooFamilies : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ZooFamilies, BuildsAndRuns)
{
    Rng rng(12);
    NetSpec spec{3, 12, 12, 10};
    Model m = buildModel(GetParam(), spec, rng);
    EXPECT_GT(m.paramCount(), 0u);
    Tensor x = Tensor::randn({2, 3, 12, 12}, rng);
    Tensor logits = m.logits(x);
    EXPECT_EQ(logits.shape(), (Shape{2, 10}));
    // One training step runs and produces finite gradients.
    m.zeroGrad();
    StepResult r = m.trainStep(x, {1, 2});
    EXPECT_TRUE(std::isfinite(r.loss));
    for (Param *p : m.params())
        for (std::size_t i = 0; i < p->grad.numel(); ++i)
            ASSERT_TRUE(std::isfinite(p->grad[i]));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ZooFamilies,
                         ::testing::Values("lenet5", "vgg11", "resnet18",
                                           "mobilenet_v1", "resnet50",
                                           "mlp"));

TEST(Zoo, GrayscaleInput)
{
    Rng rng(13);
    NetSpec spec{1, 12, 12, 10};
    Model m = buildModel("lenet5", spec, rng);
    Tensor x = Tensor::randn({1, 1, 12, 12}, rng);
    EXPECT_EQ(m.logits(x).shape(), (Shape{1, 10}));
}

TEST(Zoo, UnknownFamilyIsFatal)
{
    Rng rng(14);
    NetSpec spec;
    EXPECT_EXIT(buildModel("alexnet", spec, rng),
                ::testing::ExitedWithCode(1), "unknown model family");
}

TEST(Zoo, IsKnownFamily)
{
    EXPECT_TRUE(isKnownFamily("vgg11"));
    EXPECT_FALSE(isKnownFamily("gpt3"));
}

// ------------------------------------------------------------- Model

TEST(Model, FlatParamRoundTrip)
{
    Rng rng(15);
    Model m = buildModel("mlp", NetSpec{1, 8, 8, 4}, rng);
    std::vector<float> flat = m.flatParams();
    EXPECT_EQ(flat.size(), m.paramCount());
    for (auto &v : flat)
        v += 1.0f;
    m.setFlatParams(flat);
    EXPECT_EQ(m.flatParams(), flat);
}

TEST(Model, FlatGradRoundTrip)
{
    Rng rng(16);
    Model m = buildModel("mlp", NetSpec{1, 8, 8, 4}, rng);
    std::vector<float> g(m.paramCount(), 0.25f);
    m.setFlatGrads(g);
    EXPECT_EQ(m.flatGrads(), g);
    m.zeroGrad();
    for (float v : m.flatGrads())
        EXPECT_EQ(v, 0.0f);
}

TEST(Model, CopyIsDeep)
{
    Rng rng(17);
    Model a = buildModel("mlp", NetSpec{1, 8, 8, 4}, rng);
    Model b = a;
    auto flat = a.flatParams();
    flat[0] += 10.0f;
    a.setFlatParams(flat);
    EXPECT_NE(a.flatParams()[0], b.flatParams()[0]);
}

TEST(Model, SetFlatParamsSizeMismatchPanics)
{
    Rng rng(18);
    Model m = buildModel("mlp", NetSpec{1, 8, 8, 4}, rng);
    EXPECT_DEATH(m.setFlatParams(std::vector<float>(3)), "mismatch");
}

TEST(Model, EvaluateMatchesPerfectPredictions)
{
    Rng rng(19);
    Model m = buildModel("mlp", NetSpec{1, 4, 4, 2}, rng);
    Tensor x = Tensor::randn({8, 1, 4, 4}, rng);
    Tensor logits = m.logits(x);
    const auto preds = tensor::argmaxRows(logits);
    std::vector<int> labels(preds.begin(), preds.end());
    StepResult r = m.evaluate(x, labels);
    EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
}

// --------------------------------------------------------------- Sgd

TEST(Sgd, PlainStepMovesAgainstGradient)
{
    Rng rng(20);
    Model m = buildModel("mlp", NetSpec{1, 4, 4, 2}, rng);
    SgdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.momentum = 0.0;
    cfg.weightDecay = 0.0;
    cfg.clipNorm = 0.0;
    Sgd sgd(m, cfg);

    std::vector<float> w0 = m.flatParams();
    std::vector<float> g(m.paramCount(), 0.0f);
    g[0] = 1.0f;
    m.setFlatGrads(g);
    sgd.step();
    const auto w1 = m.flatParams();
    EXPECT_NEAR(w1[0], w0[0] - 0.1f, 1e-6);
    EXPECT_EQ(w1[1], w0[1]);
}

TEST(Sgd, MomentumAccumulates)
{
    Rng rng(21);
    Model m = buildModel("mlp", NetSpec{1, 4, 4, 2}, rng);
    SgdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.momentum = 0.9;
    cfg.weightDecay = 0.0;
    cfg.clipNorm = 0.0;
    Sgd sgd(m, cfg);

    std::vector<float> g(m.paramCount(), 0.0f);
    g[0] = 1.0f;
    const float w0 = m.flatParams()[0];
    m.setFlatGrads(g);
    sgd.step();  // v = 1, w -= 0.1
    m.setFlatGrads(g);
    sgd.step();  // v = 1.9, w -= 0.19
    EXPECT_NEAR(m.flatParams()[0], w0 - 0.1f - 0.19f, 1e-5);
}

TEST(Sgd, ClippingBoundsUpdate)
{
    Rng rng(22);
    Model m = buildModel("mlp", NetSpec{1, 4, 4, 2}, rng);
    SgdConfig cfg;
    cfg.learningRate = 1.0;
    cfg.momentum = 0.0;
    cfg.weightDecay = 0.0;
    cfg.clipNorm = 1.0;
    Sgd sgd(m, cfg);

    std::vector<float> g(m.paramCount(), 0.0f);
    g[0] = 100.0f;  // norm 100 -> scaled to 1
    const float w0 = m.flatParams()[0];
    m.setFlatGrads(g);
    sgd.step();
    EXPECT_NEAR(m.flatParams()[0], w0 - 1.0f, 1e-4);
}

TEST(Sgd, DecayShrinksLearningRate)
{
    Rng rng(23);
    Model m = buildModel("mlp", NetSpec{1, 4, 4, 2}, rng);
    SgdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.lrDecayPerEpoch = 0.5;
    Sgd sgd(m, cfg);
    sgd.decayLearningRate();
    EXPECT_NEAR(sgd.config().learningRate, 0.05, 1e-12);
}

TEST(Sgd, TrainingReducesLossOnToyProblem)
{
    Rng rng(24);
    Model m = buildModel("mlp", NetSpec{1, 4, 4, 2}, rng);
    SgdConfig cfg;
    cfg.learningRate = 0.05;
    Sgd sgd(m, cfg);

    Tensor x = Tensor::randn({16, 1, 4, 4}, rng);
    std::vector<int> y;
    for (int i = 0; i < 16; ++i)
        y.push_back(i % 2);

    m.zeroGrad();
    const double loss0 = m.trainStep(x, y).loss;
    sgd.step();
    double lossN = loss0;
    for (int iter = 0; iter < 30; ++iter) {
        m.zeroGrad();
        lossN = m.trainStep(x, y).loss;
        sgd.step();
    }
    EXPECT_LT(lossN, loss0 * 0.5);
}

// ------------------------------------------- skipped input gradient

namespace {

bool
sameGradBits(Layer &a, Layer &b)
{
    const auto pa = a.params(), pb = b.params();
    if (pa.size() != pb.size())
        return false;
    for (std::size_t i = 0; i < pa.size(); ++i)
        if (pa[i]->grad.numel() != pb[i]->grad.numel() ||
            std::memcmp(pa[i]->grad.data(), pb[i]->grad.data(),
                        sizeof(float) * pa[i]->grad.numel()) != 0)
            return false;
    return true;
}

/** LeNet-5's layer stack on 1x12x12 inputs (a Conv2D first). */
std::unique_ptr<Sequential>
lenetStack(Rng &rng)
{
    auto net = std::make_unique<Sequential>();
    net->add(std::make_unique<Conv2D>(tensor::ConvGeom{1, 6, 5, 1, 2}, rng));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<MaxPool2D>(2, 2));
    net->add(std::make_unique<Conv2D>(tensor::ConvGeom{6, 16, 5, 1, 2}, rng));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<MaxPool2D>(2, 2));
    net->add(std::make_unique<Flatten>());
    net->add(std::make_unique<Dense>(16 * 3 * 3, 10, rng));
    return net;
}

} // namespace

TEST(BackwardParams, FirstLayerGradsMatchFullBackward)
{
    // A Conv2D-first stack, a Dense-first stack, and each layer alone:
    // skipping the first layer's input gradient must leave every
    // weight and bias gradient bit-identical, accumulation included.
    Rng rng(21);
    std::vector<std::pair<std::unique_ptr<Layer>, Tensor>> cases;
    cases.emplace_back(lenetStack(rng), Tensor::randn({9, 1, 12, 12}, rng));
    auto mlp = std::make_unique<Sequential>();
    mlp->add(std::make_unique<Dense>(7, 5, rng));
    mlp->add(std::make_unique<ReLU>());
    mlp->add(std::make_unique<Dense>(5, 3, rng));
    cases.emplace_back(std::move(mlp), Tensor::randn({6, 7}, rng));
    cases.emplace_back(
        std::make_unique<Conv2D>(tensor::ConvGeom{3, 4, 3, 2, 1}, rng),
        Tensor::randn({5, 3, 7, 7}, rng));
    cases.emplace_back(std::make_unique<Dense>(4, 6, rng),
                       Tensor::randn({3, 4}, rng));
    for (std::size_t c = 0; c < cases.size(); ++c) {
        Layer &full = *cases[c].first;
        const Tensor &x = cases[c].second;
        const auto skip = full.clone();
        for (Layer *l : {&full, skip.get()})
            for (Param *p : l->params())
                p->grad.fill(0.25f); // accumulate onto nonzero grads
        const Tensor out = full.forward(x, true);
        skip->forward(x, true);
        const Tensor gradOut = Tensor::randn(out.shape(), rng);
        const Tensor gradIn = full.backward(gradOut);
        EXPECT_EQ(gradIn.shape(), x.shape());
        skip->backwardParams(gradOut);
        EXPECT_TRUE(sameGradBits(full, *skip)) << "case " << c;
    }
}

TEST(LayerContract, OneBackwardPerForward)
{
    // backward() consumes the cache of the last training forward, so
    // a second backward (or backwardParams) without a fresh one trips
    // an assert, and so does a backward after an evaluation forward.
    Rng rng(23);
    std::vector<std::pair<std::unique_ptr<Layer>, Tensor>> cases;
    cases.emplace_back(std::make_unique<Dense>(4, 3, rng),
                       Tensor::randn({2, 4}, rng));
    cases.emplace_back(
        std::make_unique<Conv2D>(tensor::ConvGeom{2, 3, 3, 1, 1}, rng),
        Tensor::randn({2, 2, 5, 5}, rng));
    cases.emplace_back(std::make_unique<DepthwiseConv2D>(2, 3, 1, 1, rng),
                       Tensor::randn({2, 2, 5, 5}, rng));
    cases.emplace_back(std::make_unique<ReLU>(), Tensor::randn({2, 6}, rng));
    cases.emplace_back(std::make_unique<MaxPool2D>(2, 2),
                       Tensor::randn({2, 2, 4, 4}, rng));
    cases.emplace_back(std::make_unique<GlobalAvgPool>(),
                       Tensor::randn({2, 2, 4, 4}, rng));
    cases.emplace_back(std::make_unique<Flatten>(),
                       Tensor::randn({2, 2, 3, 3}, rng));
    cases.emplace_back(std::make_unique<Residual>(std::make_unique<ReLU>()),
                       Tensor::randn({2, 2, 3, 3}, rng));
    cases.emplace_back(lenetStack(rng), Tensor::randn({2, 1, 12, 12}, rng));
    for (auto &[layer, x] : cases) {
        const Tensor gradOut(layer->forward(x, true).shape(), 1.0f);
        layer->backward(gradOut);
        EXPECT_DEATH(layer->backward(gradOut), "fresh forward")
            << layer->name();
        EXPECT_DEATH(layer->backwardParams(gradOut), "fresh forward")
            << layer->name();
        layer->forward(x, false);
        EXPECT_DEATH(layer->backward(gradOut), "fresh forward")
            << layer->name();
        // A fresh training forward re-arms it.
        layer->forward(x, true);
        layer->backwardParams(gradOut);
    }
}

TEST(BackwardParams, ModelTrainStepMatchesFullBackward)
{
    // Model::trainStep skips the input gradient; its parameter
    // gradients equal a forward + softmax-CE + full backward by hand.
    Rng rng(22);
    auto net = lenetStack(rng);
    Model model("lenet", net->clone());
    const Tensor x = Tensor::randn({8, 1, 12, 12}, rng);
    const std::vector<int> labels = {0, 1, 2, 3, 4, 5, 6, 7};
    model.zeroGrad();
    model.trainStep(x, labels);

    for (Param *p : net->params())
        p->grad.zero();
    const Tensor out = net->forward(x, true);
    Tensor probs(out.shape()), gradLogits(out.shape());
    tensor::softmaxCrossEntropy(out, labels, probs, gradLogits);
    net->backward(gradLogits);

    const auto mp = model.params(), np = net->params();
    ASSERT_EQ(mp.size(), np.size());
    for (std::size_t i = 0; i < mp.size(); ++i)
        EXPECT_EQ(std::memcmp(mp[i]->grad.data(), np[i]->grad.data(),
                              sizeof(float) * mp[i]->grad.numel()),
                  0)
            << mp[i]->name << " (param " << i << ")";
}
