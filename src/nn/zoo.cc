#include "nn/zoo.hh"

#include "nn/layers.hh"
#include "nn/sequential.hh"
#include "tensor/conv.hh"
#include "util/logging.hh"

namespace socflow {
namespace nn {

namespace {

using tensor::ConvGeom;

std::unique_ptr<Conv2D>
conv3x3(std::size_t in_c, std::size_t out_c, std::size_t stride,
        Rng &rng, float init_scale = 1.0f)
{
    return std::make_unique<Conv2D>(ConvGeom{in_c, out_c, 3, stride, 1},
                                    rng, init_scale);
}

std::unique_ptr<Conv2D>
conv1x1(std::size_t in_c, std::size_t out_c, std::size_t stride,
        Rng &rng, float init_scale = 1.0f)
{
    return std::make_unique<Conv2D>(ConvGeom{in_c, out_c, 1, stride, 0},
                                    rng, init_scale);
}

/** Basic two-conv residual block (ResNet-18 style). */
std::unique_ptr<Layer>
basicBlock(std::size_t in_c, std::size_t out_c, std::size_t stride,
           Rng &rng)
{
    auto main = std::make_unique<Sequential>();
    main->add(conv3x3(in_c, out_c, stride, rng));
    main->add(std::make_unique<ReLU>());
    // Down-weighting the last conv keeps the pre-BN-free network
    // stable at initialization (acts like a zero-init residual).
    main->add(conv3x3(out_c, out_c, 1, rng, 0.4f));
    std::unique_ptr<Layer> shortcut;
    if (stride != 1 || in_c != out_c)
        shortcut = conv1x1(in_c, out_c, stride, rng);
    return std::make_unique<Residual>(std::move(main),
                                      std::move(shortcut));
}

/** Bottleneck residual block (ResNet-50 style). */
std::unique_ptr<Layer>
bottleneckBlock(std::size_t in_c, std::size_t out_c, std::size_t stride,
                Rng &rng)
{
    const std::size_t mid = out_c / 2;
    auto main = std::make_unique<Sequential>();
    main->add(conv1x1(in_c, mid, 1, rng));
    main->add(std::make_unique<ReLU>());
    main->add(conv3x3(mid, mid, stride, rng));
    main->add(std::make_unique<ReLU>());
    main->add(conv1x1(mid, out_c, 1, rng, 0.4f));
    std::unique_ptr<Layer> shortcut;
    if (stride != 1 || in_c != out_c)
        shortcut = conv1x1(in_c, out_c, stride, rng);
    return std::make_unique<Residual>(std::move(main),
                                      std::move(shortcut));
}

/** Depthwise-separable block (MobileNet style). */
void
addSeparable(Sequential &net, std::size_t in_c, std::size_t out_c,
             std::size_t stride, Rng &rng)
{
    net.add(std::make_unique<DepthwiseConv2D>(in_c, 3, stride, 1, rng));
    net.add(std::make_unique<ReLU>());
    net.add(conv1x1(in_c, out_c, 1, rng));
    net.add(std::make_unique<ReLU>());
}

Model
buildLeNet5(const NetSpec &s, Rng &rng)
{
    auto net = std::make_unique<Sequential>();
    net->add(std::make_unique<Conv2D>(
        ConvGeom{s.inChannels, 6, 5, 1, 2}, rng));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<MaxPool2D>(2, 2));
    net->add(std::make_unique<Conv2D>(ConvGeom{6, 16, 5, 1, 2}, rng));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<MaxPool2D>(2, 2));
    net->add(std::make_unique<Flatten>());
    const std::size_t feat = 16 * (s.inHeight / 4) * (s.inWidth / 4);
    net->add(std::make_unique<Dense>(feat, 120, rng));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<Dense>(120, 84, rng));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<Dense>(84, s.classes, rng));
    return Model("lenet5", std::move(net));
}

Model
buildVgg11(const NetSpec &s, Rng &rng)
{
    auto net = std::make_unique<Sequential>();
    std::size_t c = s.inChannels;
    std::size_t hw = s.inHeight;
    // Scaled VGG-11 plan: conv widths /8; three pooling stages so the
    // receptive field matches the reduced 12x12 inputs.
    const struct { std::size_t channels; bool pool; } plan[] = {
        {8, true}, {16, true}, {32, false}, {32, true},
        {64, false}, {64, false},
    };
    for (const auto &step : plan) {
        net->add(conv3x3(c, step.channels, 1, rng));
        net->add(std::make_unique<ReLU>());
        c = step.channels;
        if (step.pool) {
            net->add(std::make_unique<MaxPool2D>(2, 2));
            hw /= 2;
        }
    }
    net->add(std::make_unique<Flatten>());
    const std::size_t feat = c * hw * hw;
    net->add(std::make_unique<Dense>(feat, 64, rng));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<Dense>(64, s.classes, rng));
    return Model("vgg11", std::move(net));
}

/** Three stages of two residual blocks each (16/32/64 channels,
 *  stride 2 entering the later two), then pool and classify. */
Model
buildResNet(const NetSpec &s, Rng &rng, const char *name,
            std::unique_ptr<Layer> (*block)(std::size_t, std::size_t,
                                            std::size_t, Rng &))
{
    auto net = std::make_unique<Sequential>();
    net->add(conv3x3(s.inChannels, 16, 1, rng));
    net->add(std::make_unique<ReLU>());
    const std::size_t stages[] = {16, 32, 64};
    std::size_t c = 16;
    for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t out = stages[k];
        const std::size_t stride = k == 0 ? 1 : 2;
        net->add(block(c, out, stride, rng));
        net->add(block(out, out, 1, rng));
        c = out;
    }
    net->add(std::make_unique<GlobalAvgPool>());
    net->add(std::make_unique<Dense>(c, s.classes, rng));
    return Model(name, std::move(net));
}

Model
buildMobileNetV1(const NetSpec &s, Rng &rng)
{
    auto net = std::make_unique<Sequential>();
    net->add(conv3x3(s.inChannels, 16, 1, rng));
    net->add(std::make_unique<ReLU>());
    addSeparable(*net, 16, 32, 1, rng);
    addSeparable(*net, 32, 64, 2, rng);
    addSeparable(*net, 64, 64, 1, rng);
    addSeparable(*net, 64, 128, 2, rng);
    net->add(std::make_unique<GlobalAvgPool>());
    net->add(std::make_unique<Dense>(128, s.classes, rng));
    return Model("mobilenet_v1", std::move(net));
}

Model
buildMlp(const NetSpec &s, Rng &rng)
{
    auto net = std::make_unique<Sequential>();
    net->add(std::make_unique<Flatten>());
    const std::size_t feat = s.inChannels * s.inHeight * s.inWidth;
    net->add(std::make_unique<Dense>(feat, 64, rng));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<Dense>(64, s.classes, rng));
    return Model("mlp", std::move(net));
}

} // namespace

bool
isKnownFamily(const std::string &family)
{
    return family == "lenet5" || family == "vgg11" ||
           family == "resnet18" || family == "mobilenet_v1" ||
           family == "resnet50" || family == "mlp";
}

Model
buildModel(const std::string &family, const NetSpec &spec, Rng &rng)
{
    if (family == "lenet5")
        return buildLeNet5(spec, rng);
    if (family == "vgg11")
        return buildVgg11(spec, rng);
    if (family == "resnet18")
        return buildResNet(spec, rng, "resnet18", basicBlock);
    if (family == "resnet50")
        return buildResNet(spec, rng, "resnet50", bottleneckBlock);
    if (family == "mobilenet_v1")
        return buildMobileNetV1(spec, rng);
    if (family == "mlp")
        return buildMlp(spec, rng);
    fatal("unknown model family: ", family);
}

} // namespace nn
} // namespace socflow
