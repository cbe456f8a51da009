/**
 * @file
 * google-benchmark microbenchmarks of the numerical kernels behind
 * the training substrate: GEMM, im2col convolution, ReLU backward,
 * quantization, and full model steps.
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hh"

#include "nn/zoo.hh"
#include "quant/quantize.hh"
#include "tensor/conv.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

using namespace socflow;
using tensor::Tensor;

/**
 * GEMM shapes {m, k, n, trans_b, percent of A that is zero}: the
 * squares, then the LeNet calls that dominate a harvest day's GEMM
 * time. The dW calls multiply a ReLU-sparse grad_out (A) by a
 * transposed im2col matrix.
 */
static void
gemmShapes(benchmark::internal::Benchmark *b)
{
    b->ArgNames({"m", "k", "n", "tb", "zero%"});
    for (long n : {32, 64, 128, 256})
        b->Args({n, n, n, 0, 0});
    b->Args({16, 150, 252, 0, 0});  // conv2 forward
    b->Args({150, 16, 252, 0, 0});  // conv2 dX
    b->Args({16, 252, 150, 1, 89}); // conv2 dW
    b->Args({6, 144, 25, 1, 0});    // conv1 dW
    b->Args({20, 144, 120, 1, 0});  // dense forward
}

/** Runs one gemmShapes entry through `run(a, trans_b, b, c)`. */
template <typename Run>
static void
gemmBench(benchmark::State &state, Run run)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    const bool tb = state.range(3) != 0;
    Rng rng(1);
    Tensor a = Tensor::randn({m, k}, rng);
    for (std::size_t i = 0; i < a.numel(); ++i)
        if (rng.uniform() * 100.0 < static_cast<double>(state.range(4)))
            a[i] = 0.0f;
    Tensor b = Tensor::randn(tb ? tensor::Shape{n, k} : tensor::Shape{k, n},
                             rng);
    Tensor c({m, n});
    for (auto _ : state) {
        run(a, tb, b, c);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}

/** gemm() as the trainers call it: the widest kernel build the host has. */
static void
BM_Gemm(benchmark::State &state)
{
    gemmBench(state, [](const Tensor &a, bool tb, const Tensor &b,
                        Tensor &c) { tensor::gemm(a, false, b, tb, c); });
}
BENCHMARK(BM_Gemm)->Apply(gemmShapes);

/** The same shapes on the baseline-ISA kernel build, for comparison. */
static void
BM_GemmBaseline(benchmark::State &state)
{
    gemmBench(state, [](const Tensor &a, bool tb, const Tensor &b,
                        Tensor &c) {
        tensor::detail::gemmWithIsa(tensor::detail::GemmIsa::Baseline, a,
                                    false, b, tb, c, 0.0f);
    });
}
BENCHMARK(BM_GemmBaseline)->Apply(gemmShapes);

/**
 * 3x3, pad-1 conv shapes {channels, map side, batch}: the 12x12 sweep,
 * then VGG-11's tails (32 channels on 3x3 maps, 64 on 1x1) at batch 4
 * and 32, where one sample's GEMM has only 9 or 1 output columns.
 */
static void
convShapes(benchmark::internal::Benchmark *b)
{
    b->ArgNames({"c", "side", "n"});
    for (long c : {8, 16, 32})
        b->Args({c, 12, 8});
    for (long n : {4, 32}) {
        b->Args({32, 3, n});
        b->Args({64, 1, n});
    }
}

/** Input, weight and output-sized tensors for one convShapes entry. */
struct ConvFixture {
    explicit ConvFixture(const benchmark::State &state)
        : c(static_cast<std::size_t>(state.range(0))),
          side(static_cast<std::size_t>(state.range(1))),
          n(static_cast<std::size_t>(state.range(2))), g{c, c, 3, 1, 1},
          rng(2), x(Tensor::randn({n, c, side, side}, rng)),
          w(Tensor::randn({c, c, 3, 3}, rng)),
          y(Tensor::randn({n, c, side, side}, rng))
    {
    }
    std::size_t c, side, n;
    tensor::ConvGeom g;
    Rng rng;
    Tensor x, w, y;
};

static void
BM_Conv2dForward(benchmark::State &state)
{
    ConvFixture f(state);
    for (auto _ : state) {
        tensor::conv2dForward(f.x, f.w, f.g, f.y);
        benchmark::DoNotOptimize(f.y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * f.n);
}
BENCHMARK(BM_Conv2dForward)->Apply(convShapes);

static void
BM_Conv2dBackward(benchmark::State &state)
{
    // y is the output gradient; grad_w accumulates across iterations.
    ConvFixture f(state);
    Tensor gradX(f.x.shape()), gradW(f.w.shape());
    for (auto _ : state) {
        tensor::conv2dBackward(f.x, f.w, f.g, f.y, &gradX, gradW);
        benchmark::DoNotOptimize(gradX.data());
        benchmark::DoNotOptimize(gradW.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * f.n);
}
BENCHMARK(BM_Conv2dBackward)->Apply(convShapes);

/**
 * im2col of one sample on the LeNet census shapes {channels, map
 * side}: conv1 (1x12x12) and conv2 (6x6x6), both 5x5 with pad 2.
 */
static void
BM_Im2col(benchmark::State &state)
{
    const auto c = static_cast<std::size_t>(state.range(0));
    const auto side = static_cast<std::size_t>(state.range(1));
    const tensor::ConvGeom g{c, 1, 5, 1, 2};
    Rng rng(8);
    Tensor x = Tensor::randn({c, side, side}, rng);
    std::vector<float> cols(c * 25 * side * side);
    for (auto _ : state) {
        tensor::im2col(x.data(), c, side, side, g, cols.data());
        benchmark::DoNotOptimize(cols.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Im2col)->ArgNames({"c", "side"})->Args({1, 12})->Args({6, 6});

/**
 * ReLU backward over the LeNet activations of a 16-sample batch:
 * conv1's 6x12x12 and conv2's 16x6x6 maps. Half the inputs are
 * negative, so a per-element branch would mispredict.
 */
static void
BM_ReluBackward(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(9);
    Tensor x = Tensor::randn({n}, rng);
    Tensor g = Tensor::randn({n}, rng);
    Tensor out({n});
    for (auto _ : state) {
        tensor::reluBackward(x, g, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReluBackward)->Arg(16 * 6 * 12 * 12)->Arg(16 * 16 * 6 * 6);

static void
BM_DepthwiseConv(benchmark::State &state)
{
    const std::size_t c = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    tensor::ConvGeom g{c, c, 3, 1, 1};
    Tensor x = Tensor::randn({8, c, 12, 12}, rng);
    Tensor w = Tensor::randn({c, 1, 3, 3}, rng);
    Tensor out({8, c, 12, 12});
    for (auto _ : state) {
        tensor::depthwiseConv2dForward(x, w, g, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_DepthwiseConv)->Arg(16)->Arg(64);

static void
BM_FakeQuantize(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(4);
    Tensor t = Tensor::randn({n}, rng);
    quant::QuantConfig cfg;
    cfg.stochasticRounding = true;
    Rng qrng(5);
    for (auto _ : state) {
        Tensor copy = t;
        quant::fakeQuantize(copy, cfg, &qrng);
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FakeQuantize)->Arg(1 << 12)->Arg(1 << 16);

/**
 * The round-to-nearest fakeQuantize the INT8 trainer runs on every
 * weight and gradient, on LeNet's conv2 weight size and a larger
 * tensor: isa 0 is the baseline build, 1 the host's (SSE4.1 on x86).
 */
static void
BM_FakeQuantizeNearest(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto isa = state.range(1) == 0 ? quant::detail::RoundIsa::Baseline
                                         : quant::detail::roundHostIsa();
    Rng rng(4);
    const Tensor t = Tensor::randn({n}, rng);
    quant::QuantConfig cfg;
    cfg.stochasticRounding = false;
    Tensor copy = t;
    for (auto _ : state) {
        copy = t;
        quant::detail::fakeQuantizeWithIsa(isa, copy, cfg, nullptr);
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FakeQuantizeNearest)
    ->ArgNames({"n", "isa"})
    ->ArgsProduct({{2400, 1 << 16}, {0, 1}});

/**
 * computeScale's max-abs pass, which leads every fakeQuantize sweep,
 * over LeNet-5's 30,986 weights: isa 0 is the baseline build, 1 the
 * host's (AVX2 on x86).
 */
static void
BM_ComputeScale(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto isa = state.range(1) == 0 ? quant::detail::ScaleIsa::Baseline
                                         : quant::detail::scaleHostIsa();
    Rng rng(4);
    const Tensor t = Tensor::randn({n}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            quant::detail::computeScaleWithIsa(isa, t.data(), n, 8));
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ComputeScale)
    ->ArgNames({"n", "isa"})
    ->ArgsProduct({{30986}, {0, 1}});

static void
BM_Int8Gemm(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    std::vector<std::int32_t> a(n * n), b(n * n), c(n * n);
    for (auto &v : a)
        v = static_cast<std::int32_t>(rng.uniformInt(255)) - 127;
    for (auto &v : b)
        v = static_cast<std::int32_t>(rng.uniformInt(255)) - 127;
    for (auto _ : state) {
        quant::int8Gemm(a.data(), b.data(), c.data(), n, n, n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Int8Gemm)->Arg(64)->Arg(128);

static void
BM_ModelTrainStep(benchmark::State &state)
{
    static const char *families[] = {"lenet5", "vgg11", "resnet18",
                                     "mobilenet_v1", "resnet50"};
    const char *family = families[state.range(0)];
    Rng rng(7);
    nn::Model model =
        nn::buildModel(family, nn::NetSpec{3, 12, 12, 10}, rng);
    Tensor x = Tensor::randn({16, 3, 12, 12}, rng);
    std::vector<int> y(16);
    for (int i = 0; i < 16; ++i)
        y[i] = i % 10;
    for (auto _ : state) {
        model.zeroGrad();
        auto r = model.trainStep(x, y);
        benchmark::DoNotOptimize(r.loss);
    }
    state.SetLabel(family);
}
BENCHMARK(BM_ModelTrainStep)->DenseRange(0, 4);

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    // The smoke tier translates --smoke into a near-zero measurement
    // budget so every benchmark still registers, builds its fixtures,
    // and runs at least one iteration under ctest.
    std::vector<char *> args(argv, argv + argc);
    static char smokeMinTime[] = "--benchmark_min_time=0.001";
    if (bench::options().smoke)
        args.push_back(smokeMinTime);
    args.push_back(nullptr);
    int benchArgc = static_cast<int>(args.size()) - 1;
    benchmark::Initialize(&benchArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(benchArgc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
