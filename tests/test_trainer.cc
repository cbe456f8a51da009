/**
 * @file
 * SoCFlow engine tests: learning progress, timing/energy accounting,
 * checkpointing, preemption, ablation toggles.
 */

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/socflow_trainer.hh"
#include "core/train_common.hh"
#include "data/synthetic.hh"

using namespace socflow;
using namespace socflow::core;

namespace {

data::DataBundle
tinyBundle(std::uint64_t seed = 77)
{
    data::SyntheticParams p;
    p.name = "tiny";
    p.classes = 4;
    p.channels = 1;
    p.height = 8;
    p.width = 8;
    p.trainSamples = 256;
    p.testSamples = 96;
    p.noise = 0.3;
    p.seed = seed;
    return data::makeSynthetic(p);
}

SoCFlowConfig
tinyConfig()
{
    SoCFlowConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = 8;
    cfg.numGroups = 2;
    cfg.groupBatch = 16;
    cfg.sgd.learningRate = 0.05;
    return cfg;
}

} // namespace

TEST(SoCFlowTrainer, AccuracyImprovesOverEpochs)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowTrainer trainer(tinyConfig(), bundle);
    const double acc0 = trainer.testAccuracy();
    for (int e = 0; e < 4; ++e)
        trainer.runEpoch();
    EXPECT_GT(trainer.testAccuracy(), acc0 + 0.2);
}

TEST(SoCFlowTrainer, EpochRecordFieldsSane)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowTrainer trainer(tinyConfig(), bundle);
    const EpochRecord rec = trainer.runEpoch();
    EXPECT_GT(rec.simSeconds, 0.0);
    EXPECT_GT(rec.energyJoules, 0.0);
    EXPECT_GT(rec.computeSeconds, 0.0);
    EXPECT_GT(rec.syncSeconds, 0.0);
    EXPECT_GE(rec.trainAcc, 0.0);
    EXPECT_LE(rec.trainAcc, 1.0);
    // With overlap, wall-clock cannot exceed the sum of parts.
    EXPECT_LE(rec.simSeconds, rec.computeSeconds + rec.syncSeconds +
                                  rec.updateSeconds + 1e-9);
}

TEST(SoCFlowTrainer, OverlapReducesWallClock)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig a = tinyConfig();
    a.overlapCommCompute = true;
    SoCFlowConfig b = tinyConfig();
    b.overlapCommCompute = false;
    SoCFlowTrainer ta(a, bundle), tb(b, bundle);
    EXPECT_LT(ta.runEpoch().simSeconds, tb.runEpoch().simSeconds);
}

TEST(SoCFlowTrainer, MoreGroupsLessEpochTime)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig one = tinyConfig();
    one.numGroups = 1;
    SoCFlowConfig four = tinyConfig();
    four.numGroups = 4;
    SoCFlowTrainer t1(one, bundle), t4(four, bundle);
    EXPECT_GT(t1.runEpoch().simSeconds, t4.runEpoch().simSeconds);
}

TEST(SoCFlowTrainer, MixedPrecisionFasterThanCpuOnly)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig mixed = tinyConfig();
    SoCFlowConfig cpuOnly = tinyConfig();
    cpuOnly.useMixedPrecision = false;
    SoCFlowTrainer tm(mixed, bundle), tc(cpuOnly, bundle);
    EXPECT_LT(tm.runEpoch().computeSeconds,
              tc.runEpoch().computeSeconds);
}

TEST(SoCFlowTrainer, AlphaBetaExposed)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowTrainer trainer(tinyConfig(), bundle);
    EXPECT_GT(trainer.beta(), 0.5);  // NPU takes the larger share
    trainer.runEpoch();
    EXPECT_GE(trainer.alpha(), 0.0);
    EXPECT_LE(trainer.alpha(), 1.0);
    EXPECT_GE(trainer.cpuFraction(), 1.0 - trainer.beta());
}

TEST(SoCFlowTrainer, FixedFractionOverridesController)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    cfg.fixedCpuFraction = 0.5;
    SoCFlowTrainer trainer(cfg, bundle);
    EXPECT_EQ(trainer.cpuFraction(), 0.5);
}

TEST(SoCFlowTrainer, NpuOnlyAndCpuOnlyFractions)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig npu = tinyConfig();
    npu.npuOnly = true;
    SoCFlowConfig cpu = tinyConfig();
    cpu.useMixedPrecision = false;
    SoCFlowTrainer tn(npu, bundle), tc(cpu, bundle);
    EXPECT_EQ(tn.cpuFraction(), 0.0);
    EXPECT_EQ(tc.cpuFraction(), 1.0);
    // Both still learn.
    for (int e = 0; e < 3; ++e) {
        tn.runEpoch();
        tc.runEpoch();
    }
    EXPECT_GT(tn.testAccuracy(), 0.3);
    EXPECT_GT(tc.testAccuracy(), 0.3);
}

TEST(SoCFlowTrainer, CheckpointRoundTrip)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowTrainer trainer(tinyConfig(), bundle);
    trainer.runEpoch();
    trainer.runEpoch();
    const auto blob = trainer.saveCheckpoint();
    const auto weights = trainer.globalWeights();
    const double acc = trainer.testAccuracy();

    SoCFlowTrainer fresh(tinyConfig(), bundle);
    fresh.loadCheckpoint(blob);
    EXPECT_EQ(fresh.globalWeights(), weights);
    EXPECT_EQ(fresh.epochsDone(), 2u);
    EXPECT_NEAR(fresh.testAccuracy(), acc, 1e-9);
}

TEST(SoCFlowTrainer, CorruptCheckpointThrowsAndTrainerSurvives)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowTrainer trainer(tinyConfig(), bundle);
    trainer.runEpoch();
    const auto weightsBefore = trainer.globalWeights();

    std::vector<std::uint8_t> junk(7, 0);
    EXPECT_THROW(trainer.loadCheckpoint(junk), CheckpointError);

    // The failed load left the trainer fully usable.
    EXPECT_EQ(trainer.globalWeights(), weightsBefore);
    EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
}

TEST(SoCFlowTrainer, SetActiveGroupsGrowAndShrink)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    cfg.numGroups = 4;
    SoCFlowTrainer trainer(cfg, bundle);
    trainer.runEpoch();
    trainer.setActiveGroups(1);
    EXPECT_EQ(trainer.activeGroups(), 1u);
    trainer.runEpoch();
    trainer.setActiveGroups(4);
    EXPECT_EQ(trainer.activeGroups(), 4u);
    trainer.runEpoch();
    EXPECT_GT(trainer.testAccuracy(), 0.25);
}

// --------------------------------------------------------- elasticity

TEST(SoCFlowTrainer, ShrinkGrowRoundTripPreservesConsensusWeights)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    cfg.numGroups = 4;
    SoCFlowTrainer trainer(cfg, bundle);
    trainer.runEpoch();
    const auto consensus = trainer.globalWeights();

    trainer.setActiveGroups(2);
    trainer.setActiveGroups(4);

    // Resizing alone must not perturb the consensus model: every
    // group (survivor or re-admitted) carries the consensus weights.
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        EXPECT_EQ(trainer.groupWeights(g), consensus)
            << "group " << g;
}

TEST(SoCFlowTrainer, ReadmittedGroupsHaveResetMomentum)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    cfg.numGroups = 4;
    SoCFlowTrainer trainer(cfg, bundle);
    trainer.runEpoch();

    // Survivors keep training momentum; a fresh epoch guarantees the
    // survivor's buffers are non-zero at the moment of regrowth.
    trainer.setActiveGroups(2);
    trainer.runEpoch();
    EXPECT_GT(trainer.groupMomentumNorm(0), 0.0);

    trainer.setActiveGroups(4);
    EXPECT_GT(trainer.groupMomentumNorm(0), 0.0);
    EXPECT_EQ(trainer.groupMomentumNorm(2), 0.0);
    EXPECT_EQ(trainer.groupMomentumNorm(3), 0.0);
}

TEST(SoCFlowTrainer, PreemptToOneGroupStillTrains)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    cfg.numGroups = 4;
    SoCFlowTrainer trainer(cfg, bundle);
    trainer.runEpoch();
    trainer.setActiveGroups(1);
    EXPECT_EQ(trainer.activeGroups(), 1u);

    const double accBefore = trainer.testAccuracy();
    for (int e = 0; e < 3; ++e) {
        const EpochRecord rec = trainer.runEpoch();
        EXPECT_GT(rec.simSeconds, 0.0);
    }
    EXPECT_GT(trainer.testAccuracy(), accBefore - 0.05);
    EXPECT_GT(trainer.testAccuracy(), 0.3);
}

TEST(SoCFlowTrainer, SetActiveGroupsBoundsAreFatal)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    cfg.numGroups = 2;
    SoCFlowTrainer trainer(cfg, bundle);
    EXPECT_EXIT(trainer.setActiveGroups(0),
                ::testing::ExitedWithCode(1), "active group");
    EXPECT_EXIT(trainer.setActiveGroups(3),
                ::testing::ExitedWithCode(1), "active group");
}

TEST(SoCFlowTrainer, MappingMetadataExposed)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    cfg.numSocs = 30;
    cfg.numGroups = 10;  // size-3 groups on size-5 boards -> splits
    SoCFlowTrainer trainer(cfg, bundle);
    EXPECT_GE(trainer.mappingConflictC(), 1u);
    EXPECT_GE(trainer.numCommGroups(), 1u);
    EXPECT_LE(trainer.numCommGroups(), 2u);
}

TEST(SoCFlowTrainer, DvfsRebalancingReducesComputeTime)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig with = tinyConfig();
    with.dvfsEnabled = true;
    with.rebalanceUnderclock = true;
    with.dvfs.throttleProb = 1.0;  // throttle everything immediately
    with.dvfs.recoverProb = 0.0;
    with.dvfs.throttledFactor = 0.5;
    SoCFlowConfig without = with;
    without.rebalanceUnderclock = false;

    SoCFlowTrainer ta(with, bundle), tb(without, bundle);
    const double a = ta.runEpoch().computeSeconds;
    const double b = tb.runEpoch().computeSeconds;
    // All SoCs throttled equally -> rebalancing matches, never hurts.
    EXPECT_LE(a, b * 1.001);
}

TEST(SoCFlowTrainer, InvalidGroupCountIsFatal)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    cfg.numGroups = 16;  // more groups than the 8 SoCs
    EXPECT_EXIT(SoCFlowTrainer(cfg, bundle),
                ::testing::ExitedWithCode(1), "group");
}

TEST(SoCFlowTrainer, TransferLearningInitialWeights)
{
    data::DataBundle bundle = tinyBundle();
    SoCFlowConfig cfg = tinyConfig();
    SoCFlowTrainer base(cfg, bundle);
    for (int e = 0; e < 3; ++e)
        base.runEpoch();
    const auto pretrained = base.globalWeights();

    SoCFlowTrainer warm(cfg, bundle, &pretrained);
    SoCFlowTrainer cold(cfg, bundle);
    EXPECT_GT(warm.testAccuracy(), cold.testAccuracy());
}

// ------------------------------------------------------ training loop

namespace {

/** Deterministic fake trainer for the driver-loop tests. */
class FakeTrainer : public DistTrainer
{
  public:
    explicit FakeTrainer(std::vector<double> accs)
        : accs(std::move(accs))
    {
    }

    EpochRecord
    runEpoch() override
    {
        EpochRecord r;
        r.simSeconds = 10.0;
        r.energyJoules = 100.0;
        ++epoch;
        return r;
    }

    double
    testAccuracy() override
    {
        return accs[std::min(epoch - 1, accs.size() - 1)];
    }

    std::string methodName() const override { return "fake"; }

  private:
    std::vector<double> accs;
    std::size_t epoch = 0;
};

} // namespace

TEST(RunTraining, StopsAtTargetAccuracy)
{
    FakeTrainer t({0.3, 0.5, 0.8, 0.9});
    const TrainResult r = runTraining(t, 10, 0.75);
    EXPECT_EQ(r.epochs.size(), 3u);
    EXPECT_NEAR(r.totalSeconds(), 30.0, 1e-9);
    EXPECT_TRUE(r.reached(0.75));
    EXPECT_NEAR(r.secondsToAccuracy(0.75), 30.0, 1e-9);
    EXPECT_NEAR(r.joulesToAccuracy(0.75), 300.0, 1e-9);
}

TEST(RunTraining, PatiencePlateauStops)
{
    FakeTrainer t({0.5, 0.5, 0.5, 0.5, 0.5, 0.5});
    const TrainResult r = runTraining(t, 10, 0.0, 2);
    EXPECT_EQ(r.epochs.size(), 3u);  // first + 2 non-improving
}

TEST(RunTraining, RunsToCapWithoutTarget)
{
    FakeTrainer t({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7});
    const TrainResult r = runTraining(t, 5);
    EXPECT_EQ(r.epochs.size(), 5u);
    EXPECT_EQ(r.finalTestAcc(), 0.5);
    EXPECT_EQ(r.bestTestAcc(), 0.5);
    EXPECT_FALSE(r.reached(0.9));
}
