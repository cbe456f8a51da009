/**
 * @file
 * Baseline trainer tests: learning progress, relative timing
 * ordering (PS vs RING vs HiPress), FedAvg semantics, local/GPU
 * devices, the factory, and per-trainer numeric pins.
 */

#include <gtest/gtest.h>

#include "baselines/exact_sync.hh"
#include "baselines/fedavg.hh"
#include "baselines/local.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "ps/sharded_ps.hh"
#include "util/hash.hh"

using namespace socflow;
using namespace socflow::baselines;

namespace {

data::DataBundle
tinyBundle(std::uint64_t seed = 88)
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

BaselineConfig
tinyConfig()
{
    BaselineConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = 8;
    cfg.globalBatch = 16;
    cfg.sgd.learningRate = 0.05;
    return cfg;
}

} // namespace

class MethodSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MethodSweep, RunsAndLearns)
{
    data::DataBundle bundle = tinyBundle();
    auto trainer = makeBaseline(GetParam(), tinyConfig(), bundle);
    EXPECT_EQ(trainer->methodName(), GetParam());
    const double acc0 = trainer->testAccuracy();
    core::EpochRecord rec;
    for (int e = 0; e < 4; ++e)
        rec = trainer->runEpoch();
    EXPECT_GT(trainer->testAccuracy(), acc0 + 0.15) << GetParam();
    EXPECT_GT(rec.simSeconds, 0.0);
    EXPECT_GT(rec.energyJoules, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodSweep,
                         ::testing::Values("PS", "RING", "HiPress",
                                           "2D-Paral", "FedAvg",
                                           "T-FedAvg", "SSP",
                                           "Local-CPU", "Local-NPU",
                                           "V100", "A100"));

TEST(Factory, UnknownMethodIsFatal)
{
    data::DataBundle bundle = tinyBundle();
    EXPECT_EXIT(makeBaseline("AllReduceX", tinyConfig(), bundle),
                ::testing::ExitedWithCode(1), "unknown baseline");
}

TEST(Timing, PsSlowerThanRingForPaperScalePayloads)
{
    // The paper's models carry 37-94 MB of gradients; incast at the
    // server then dominates. (Tiny payloads can invert this: a ring
    // pays 2(N-1) per-round latencies, which is why the comparison
    // pins a paper-scale profile.)
    data::DataBundle bundle = tinyBundle();
    BaselineConfig cfg = tinyConfig();
    cfg.modelFamily = "vgg11";
    cfg.numSocs = 32;
    auto ps = makeBaseline("PS", cfg, bundle);
    auto ring = makeBaseline("RING", cfg, bundle);
    EXPECT_GT(ps->runEpoch().syncSeconds,
              ring->runEpoch().syncSeconds);
}

TEST(Timing, HiPressSyncCheaperThanRing)
{
    data::DataBundle bundle = tinyBundle();
    BaselineConfig cfg = tinyConfig();
    cfg.modelFamily = "vgg11";
    cfg.numSocs = 32;
    cfg.compressionRatio = 0.05;
    auto hp = makeBaseline("HiPress", cfg, bundle);
    auto ring = makeBaseline("RING", cfg, bundle);
    EXPECT_LT(hp->runEpoch().syncSeconds,
              ring->runEpoch().syncSeconds * 0.5);
}

TEST(Timing, FedAvgSyncsOncePerEpoch)
{
    data::DataBundle bundle = tinyBundle();
    BaselineConfig cfg = tinyConfig();
    cfg.numSocs = 32;
    auto fed = makeBaseline("FedAvg", cfg, bundle);
    auto ring = makeBaseline("RING", cfg, bundle);
    // Per-epoch sync time of FedAvg (one aggregation) is far below
    // RING (one all-reduce per batch).
    EXPECT_LT(fed->runEpoch().syncSeconds,
              ring->runEpoch().syncSeconds);
}

TEST(Timing, TreeFedAvgFasterSyncThanStar)
{
    data::DataBundle bundle = tinyBundle();
    BaselineConfig cfg = tinyConfig();
    cfg.numSocs = 32;
    cfg.modelFamily = "vgg11";
    auto star = makeBaseline("FedAvg", cfg, bundle);
    auto tree = makeBaseline("T-FedAvg", cfg, bundle);
    EXPECT_LT(tree->runEpoch().syncSeconds,
              star->runEpoch().syncSeconds);
}

TEST(Timing, GpuEpochFasterThanSocButHungrier)
{
    data::DataBundle bundle = tinyBundle();
    BaselineConfig cfg = tinyConfig();
    auto gpu = makeBaseline("V100", cfg, bundle);
    auto soc = makeBaseline("Local-CPU", cfg, bundle);
    const auto g = gpu->runEpoch();
    const auto s = soc->runEpoch();
    EXPECT_LT(g.simSeconds, s.simSeconds);
    // Power: V100+host draws ~2 orders of magnitude more than a SoC.
    const double gpuPower = g.energyJoules / g.simSeconds;
    const double socPower = s.energyJoules / s.simSeconds;
    EXPECT_GT(gpuPower, 50.0 * socPower);
}

TEST(Timing, LocalNpuFasterThanLocalCpu)
{
    data::DataBundle bundle = tinyBundle();
    BaselineConfig cfg = tinyConfig();
    auto cpu = makeBaseline("Local-CPU", cfg, bundle);
    auto npu = makeBaseline("Local-NPU", cfg, bundle);
    EXPECT_GT(cpu->runEpoch().simSeconds,
              npu->runEpoch().simSeconds * 2.0);
}

TEST(ExactSync, SameMathAcrossTopologies)
{
    // PS/RING/2D-Paral share the SGD math: same seeds -> identical
    // weights after an epoch (HiPress differs: sparsification).
    data::DataBundle bundle = tinyBundle();
    PsTrainer ps(tinyConfig(), bundle);
    RingTrainer ring(tinyConfig(), bundle);
    TwoDParTrainer twod(tinyConfig(), bundle);
    ps.runEpoch();
    ring.runEpoch();
    twod.runEpoch();
    EXPECT_EQ(ps.weights(), ring.weights());
    EXPECT_EQ(ps.weights(), twod.weights());
}

TEST(ExactSync, HiPressMathDiffersButConverges)
{
    data::DataBundle bundle = tinyBundle();
    RingTrainer ring(tinyConfig(), bundle);
    HiPressTrainer hp(tinyConfig(), bundle);
    ring.runEpoch();
    hp.runEpoch();
    EXPECT_NE(ring.weights(), hp.weights());
}

TEST(FedAvg, AccuracyLagsExactSyncEarly)
{
    // Gradient staleness: after equal epochs FedAvg should not beat
    // exact sync (usually trails it).
    data::DataBundle bundle = tinyBundle();
    auto ring = makeBaseline("RING", tinyConfig(), bundle);
    auto fed = makeBaseline("FedAvg", tinyConfig(), bundle);
    for (int e = 0; e < 3; ++e) {
        ring->runEpoch();
        fed->runEpoch();
    }
    EXPECT_GE(ring->testAccuracy() + 0.05, fed->testAccuracy());
}

TEST(FedAvg, NonIidShardsHurtAccuracy)
{
    data::DataBundle bundle = tinyBundle();
    BaselineConfig iid = tinyConfig();
    iid.numSocs = 16;
    BaselineConfig skew = iid;
    skew.fedLabelSkew = 1.0;  // each client dominated by one class
    auto a = makeBaseline("FedAvg", iid, bundle);
    auto b = makeBaseline("FedAvg", skew, bundle);
    for (int e = 0; e < 5; ++e) {
        a->runEpoch();
        b->runEpoch();
    }
    // Direction check only: at this miniature scale the effect is
    // noisy, so allow a generous margin.
    EXPECT_GE(a->testAccuracy() + 0.15, b->testAccuracy());
}

TEST(Local, TransferLearningHandoff)
{
    data::DataBundle bundle = tinyBundle();
    BaselineConfig cfg = tinyConfig();
    LocalTrainer pre(cfg, bundle, sim::Device::GpuV100);
    for (int e = 0; e < 3; ++e)
        pre.runEpoch();
    const auto w = pre.weights();

    LocalTrainer warm(cfg, bundle, sim::Device::SocCpu, &w);
    LocalTrainer cold(cfg, bundle, sim::Device::SocCpu);
    EXPECT_GT(warm.testAccuracy(), cold.testAccuracy());
}

// ------------------------------------------------------------- pins
//
// Every trainer's numerics, pinned (the baselines and SoCFlow): two epochs on the tiny bundle,
// one FNV-1a digest over the bit patterns of every EpochRecord field
// and of testAccuracy() after each epoch. A refactor of the shared
// training scaffold (model init, cluster sizing, test accuracy, idle
// energy) must leave each digest unchanged; a 1-ulp change to any
// trainer's loss or energy fails its row.

namespace {

void
mixRecord(Fnv1a64 &h, const core::EpochRecord &r)
{
    h.mix(static_cast<std::uint64_t>(r.epoch));
    h.mix(r.simSeconds);
    h.mix(r.energyJoules);
    h.mix(r.computeSeconds);
    h.mix(r.syncSeconds);
    h.mix(r.updateSeconds);
    h.mix(r.trainLoss);
    h.mix(r.trainAcc);
    h.mix(r.testAcc);
    h.mix(static_cast<std::uint64_t>(r.crashes));
    h.mix(r.recoverySeconds);
    h.mix(static_cast<std::uint64_t>(r.waveResumes));
    h.mix(static_cast<std::uint64_t>(r.leaderElections));
    h.mix(static_cast<std::uint64_t>(r.gradCorruptDetected));
    h.mix(static_cast<std::uint64_t>(r.chunksRetransmitted));
    h.mix(static_cast<std::uint64_t>(r.syncFailures));
    h.mix(static_cast<std::uint64_t>(r.partitions));
    h.mix(static_cast<std::uint64_t>(r.rejoins));
    h.mix(static_cast<std::uint64_t>(r.fencedStaleMsgs));
    h.mix(static_cast<std::uint64_t>(r.paused));
    h.mix(static_cast<std::uint64_t>(r.powerLost));
}

std::uint64_t
twoEpochDigest(core::DistTrainer &trainer)
{
    Fnv1a64 h;
    for (std::size_t e = 0; e < 2; ++e) {
        core::EpochRecord rec = trainer.runEpoch();
        rec.epoch = e;
        rec.testAcc = trainer.testAccuracy();
        mixRecord(h, rec);
    }
    return h.value();
}

std::unique_ptr<core::DistTrainer>
makePinned(const std::string &method, const data::DataBundle &bundle)
{
    if (method == "Ours") {
        core::SoCFlowConfig cfg;
        cfg.modelFamily = "mlp";
        cfg.numSocs = 8;
        cfg.numGroups = 4;
        cfg.groupBatch = 16;
        cfg.sgd.learningRate = 0.05;
        return std::make_unique<core::SoCFlowTrainer>(cfg, bundle);
    }
    if (method == "ShardedPs") {
        ps::ShardedPsConfig cfg;
        cfg.modelFamily = "mlp";
        cfg.numSocs = 8;
        cfg.numShards = 2;
        cfg.staleness = 2;
        cfg.globalBatch = 16;
        cfg.sgd.learningRate = 0.05;
        return std::make_unique<ps::ShardedPsTrainer>(cfg, bundle);
    }
    BaselineConfig cfg = tinyConfig();
    cfg.sspStaleness = 4;
    return makeBaseline(method, cfg, bundle);
}

struct TrainerPin {
    const char *method;
    std::uint64_t digest;
};

const TrainerPin kTrainerPins[] = {
    {"PS", 0x21e9f070f4ebd0c6ULL},
    {"RING", 0x9d575e72e54c6922ULL},
    {"HiPress", 0x0b6dbcb44668bdd7ULL},
    {"2D-Paral", 0xccf3d40ae6c5a70aULL},
    {"FedAvg", 0x2c97fc4024c161e0ULL},
    {"T-FedAvg", 0x0a86c3f68b873994ULL},
    {"Local-CPU", 0x66d280cb8eaaa226ULL},
    {"Local-NPU", 0x4d49c12a4a96fb4eULL},
    {"V100", 0xa23dca50a4d0ffbeULL},
    {"A100", 0x513460c18dfceb82ULL},
    {"SSP", 0x247267e54ba57181ULL},
    {"ShardedPs", 0xa757f7670d8b425dULL},
    {"Ours", 0x55e7b0e37508e54dULL},
};

} // namespace

TEST(TrainerPins, TwoEpochDigestsUnchanged)
{
    const data::DataBundle bundle = tinyBundle();
    for (const TrainerPin &pin : kTrainerPins) {
        auto trainer = makePinned(pin.method, bundle);
        const std::uint64_t got = twoEpochDigest(*trainer);
        EXPECT_EQ(got, pin.digest)
            << pin.method << ": two-epoch digest 0x" << std::hex << got
            << " differs from the pin";
    }
}
