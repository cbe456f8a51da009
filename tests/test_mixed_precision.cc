/**
 * @file
 * Mixed-precision controller tests: alpha/beta semantics, the
 * max{e^-alpha, 1-beta} split rule, and the Eq. 5 weight merge.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/mixed_precision.hh"
#include "core/train_common.hh"
#include "nn/zoo.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

using namespace socflow;
using namespace socflow::core;
using socflow::tensor::Tensor;

TEST(MixedPrecision, BetaFromThroughputRatio)
{
    // NPU 4x faster (per-sample 2.5 ms vs 10 ms) -> it should take
    // 80% of the batch.
    MixedPrecisionController mpc(10.0, 2.5);
    EXPECT_NEAR(mpc.beta(), 0.8, 1e-9);
}

TEST(MixedPrecision, EqualSpeedsSplitEvenly)
{
    MixedPrecisionController mpc(5.0, 5.0);
    EXPECT_NEAR(mpc.beta(), 0.5, 1e-9);
}

TEST(MixedPrecision, AlphaStartsAtFullConfidence)
{
    MixedPrecisionController mpc(10.0, 2.5);
    EXPECT_EQ(mpc.alpha(), 1.0);
}

TEST(MixedPrecision, CpuFractionIsMaxRule)
{
    MixedPrecisionController mpc(10.0, 2.5);  // 1-beta = 0.2
    mpc.setAlpha(1.0);  // e^-1 = 0.368 > 0.2
    EXPECT_NEAR(mpc.cpuFraction(), std::exp(-1.0), 1e-9);
    mpc.setAlpha(0.0);  // e^0 = 1 -> all CPU
    EXPECT_NEAR(mpc.cpuFraction(), 1.0, 1e-9);
}

TEST(MixedPrecision, ComputeBoundWinsWhenAlphaHigh)
{
    // Very slow NPU: 1-beta large, dominates e^-alpha.
    MixedPrecisionController mpc(1.0, 9.0);  // beta = 0.1
    mpc.setAlpha(1.0);  // e^-1 = 0.368 < 0.9
    EXPECT_NEAR(mpc.cpuFraction(), 0.9, 1e-9);
}

TEST(MixedPrecision, UpdateAlphaFromIdenticalLogits)
{
    MixedPrecisionController mpc(10.0, 2.5);
    Rng rng(1);
    Tensor l = Tensor::randn({8, 10}, rng);
    mpc.updateAlpha(l, l);
    EXPECT_NEAR(mpc.alpha(), 1.0, 1e-6);
}

TEST(MixedPrecision, UpdateAlphaClampsNegativeCosine)
{
    MixedPrecisionController mpc(10.0, 2.5);
    Tensor a = Tensor::fromValues({2}, {1.0f, 0.0f});
    Tensor b = Tensor::fromValues({2}, {-1.0f, 0.0f});
    mpc.updateAlpha(a, b);
    EXPECT_EQ(mpc.alpha(), 0.0);
}

TEST(MixedPrecision, UpdateAlphaPartialAgreement)
{
    MixedPrecisionController mpc(10.0, 2.5);
    Tensor a = Tensor::fromValues({2}, {1.0f, 0.0f});
    Tensor b = Tensor::fromValues({2}, {1.0f, 1.0f});
    mpc.updateAlpha(a, b);
    EXPECT_NEAR(mpc.alpha(), 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(MixedPrecision, SetAlphaValidatesRange)
{
    MixedPrecisionController mpc(10.0, 2.5);
    EXPECT_DEATH(mpc.setAlpha(1.5), "range");
    EXPECT_DEATH(mpc.setAlpha(-0.1), "range");
}

TEST(MixedPrecision, MergeWeightsEq5)
{
    MixedPrecisionController mpc(10.0, 2.5);
    mpc.setAlpha(0.5);
    const double a = std::exp(-0.5);
    std::vector<float> fp32 = {1.0f, 2.0f};
    std::vector<float> int8 = {3.0f, 6.0f};
    std::vector<float> out;
    mpc.mergeWeights(fp32, int8, out);
    EXPECT_NEAR(out[0], a * 1.0 + (1 - a) * 3.0, 1e-6);
    EXPECT_NEAR(out[1], a * 2.0 + (1 - a) * 6.0, 1e-6);
}

TEST(MixedPrecision, MergeAtAlphaZeroIsAllFp32)
{
    MixedPrecisionController mpc(10.0, 2.5);
    mpc.setAlpha(0.0);
    std::vector<float> fp32 = {5.0f}, int8 = {-5.0f}, out;
    mpc.mergeWeights(fp32, int8, out);
    EXPECT_NEAR(out[0], 5.0f, 1e-6);  // e^0 = 1
}

TEST(MixedPrecision, MergeSizeMismatchPanics)
{
    MixedPrecisionController mpc(10.0, 2.5);
    std::vector<float> a = {1.0f}, b = {1.0f, 2.0f}, out;
    EXPECT_DEATH(mpc.mergeWeights(a, b, out), "mismatch");
}

TEST(MixedPrecision, MergeWeightsInPlaceMatchesSeparateOut)
{
    MixedPrecisionController mpc(10.0, 2.5);
    mpc.setAlpha(0.37);
    Rng rng(5);
    std::vector<float> fp32(1000), int8(1000), want;
    for (std::size_t i = 0; i < fp32.size(); ++i) {
        fp32[i] = static_cast<float>(rng.gaussian());
        int8[i] = static_cast<float>(rng.gaussian());
    }
    mpc.mergeWeights(fp32, int8, want);
    mpc.mergeWeights(fp32, int8, fp32);
    EXPECT_EQ(std::memcmp(fp32.data(), want.data(),
                          sizeof(float) * want.size()),
              0);
}

TEST(MixedPrecision, MergeReplicasMatchesFlatMerge)
{
    // The group step's tensor-by-tensor Eq. 5 merge equals merging the
    // flat parameter vectors and setting both replicas from the
    // result, bit for bit, on a conv net and an MLP.
    for (const char *family : {"lenet5", "mlp"}) {
        Rng rng(11);
        const nn::NetSpec spec{1, 12, 12, 4};
        nn::Model fp32 = nn::buildModel(family, spec, rng);
        nn::Model int8 = nn::buildModel(family, spec, rng);
        nn::Model wantFp32 = fp32, wantInt8 = int8;
        MixedPrecisionController mpc(10.0, 2.5);
        mpc.setAlpha(0.61);

        std::vector<float> merged;
        mpc.mergeWeights(wantFp32.flatParams(), wantInt8.flatParams(),
                         merged);
        wantFp32.setFlatParams(merged);
        wantInt8.setFlatParams(merged);
        mergeReplicas(mpc, fp32, int8);

        const std::vector<float> got32 = fp32.flatParams();
        const std::vector<float> got8 = int8.flatParams();
        ASSERT_EQ(got32.size(), merged.size()) << family;
        EXPECT_EQ(std::memcmp(got32.data(), merged.data(),
                              sizeof(float) * merged.size()),
                  0)
            << family;
        EXPECT_EQ(std::memcmp(got8.data(), merged.data(),
                              sizeof(float) * merged.size()),
                  0)
            << family;
    }
}

TEST(MixedPrecision, InvalidTimesPanic)
{
    EXPECT_DEATH(MixedPrecisionController(0.0, 1.0), "positive");
}

// Sweep: the CPU fraction is monotonically non-increasing in alpha.
class AlphaSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(AlphaSweep, FractionWithinBounds)
{
    MixedPrecisionController mpc(15.0, 3.85);
    mpc.setAlpha(GetParam());
    const double f = mpc.cpuFraction();
    EXPECT_GE(f, 1.0 - mpc.beta());
    EXPECT_LE(f, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75,
                                           0.9, 1.0));
