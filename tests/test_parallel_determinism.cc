/**
 * @file
 * Serial-vs-parallel bit-exactness of the simulation core.
 *
 * Determinism is the load-bearing invariant of this repo: replay
 * checking, the chaos suite, and every timeline hash depend on a
 * seeded run producing identical results no matter how many worker
 * threads execute it. These tests run the same seeded scenario at
 * 1/2/5/8 threads (util::setGlobalThreads) and require the timeline
 * hash, the final consensus weights (exact float equality -- not
 * approximate), and the full HarvestReport to be identical to the
 * serial run:
 *
 *  - a clean multi-epoch run, plus clean LeNet-5 and VGG-11 runs so
 *    the convolution kernels are covered (every other run is an MLP);
 *  - one scenario per fault kind (crash, link degrade, straggler,
 *    checkpoint failure, mid-wave crash, grad corruption, leader
 *    crash, board partition, switch partition, rejoin);
 *  - seeded partition/heal/rejoin churn (FaultPlan::random with the
 *    chaos seed, so run_all.sh --chaos varies it); this run and the
 *    seeded crash-restart run also check liveness after every epoch
 *    (expectLiveMembership);
 *  - a faulted harvest day, comparing every HarvestReport counter.
 *
 * The chaos harness (run_all.sh --chaos) re-runs this binary with
 * SOCFLOW_CHAOS_SEED varying; run_all.sh --tsan runs it under
 * -DSANITIZE=thread. Every test must hold for any seed.
 *
 * Thread sweeps alone cannot catch a change that shifts behaviour the
 * same way at every thread count. The clean run, every fault kind and
 * the default-seed harvest day are therefore also pinned: the serial
 * run must reproduce a timeline hash and a weights digest recorded
 * before the trainer was decomposed into phases. The two conv runs
 * are pinned to the per-sample im2col lowering that the chunked one
 * replaced. A pin changes only with a deliberate, documented
 * behaviour change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/replicated_store.hh"
#include "core/checkpoint.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "obs/profiler.hh"
#include "ps/sharded_ps.hh"
#include "trace/harvest.hh"
#include "trace/tidal.hh"
#include "util/hash.hh"
#include "util/thread_pool.hh"

using namespace socflow;
using namespace socflow::fault;

namespace {

/** Thread counts the serial reference is compared against. */
const std::size_t kThreadSweep[] = {2, 5, 8};

data::DataBundle
tinyBundle(std::uint64_t seed = 77, std::size_t side = 8)
{
    data::SyntheticParams p;
    p.name = "tiny";
    p.classes = 4;
    p.channels = 1;
    p.height = side;
    p.width = side;
    p.trainSamples = 256;
    p.testSamples = 96;
    p.noise = 0.3;
    p.seed = seed;
    return data::makeSynthetic(p);
}

core::SoCFlowConfig
tinyConfig(std::size_t socs = 10, std::size_t groups = 5)
{
    core::SoCFlowConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = socs;
    cfg.numGroups = groups;
    cfg.groupBatch = 16;
    cfg.sgd.learningRate = 0.05;
    return cfg;
}

/** Chaos-harness seed (SOCFLOW_CHAOS_SEED), or a fixed default. */
std::uint64_t
chaosSeed()
{
    const char *env = std::getenv("SOCFLOW_CHAOS_SEED");
    return env ? std::strtoull(env, nullptr, 10) : 2024ULL;
}

/** FNV-1a digest over the bit patterns of a weight vector. */
std::uint64_t
weightsDigest(const std::vector<float> &w)
{
    Fnv1a64 h;
    h.mixBytes(w.data(), w.size() * sizeof(float));
    return h.value();
}

/** A serial run's recorded fingerprint (see the file comment). */
struct Pinned {
    std::uint64_t timelineHash;
    std::uint64_t weightsDigest;
};

void
expectPinned(std::uint64_t timeline_hash, const std::vector<float> &w,
             const Pinned &pin, const char *label)
{
    EXPECT_EQ(timeline_hash, pin.timelineHash)
        << label << ": timeline hash 0x" << std::hex << timeline_hash
        << " differs from the pinned 0x" << pin.timelineHash;
    EXPECT_EQ(weightsDigest(w), pin.weightsDigest)
        << label << ": weights digest 0x" << std::hex << weightsDigest(w)
        << " differs from the pinned 0x" << pin.weightsDigest;
}

/** Everything a scenario must reproduce bit-exactly. */
struct RunResult {
    std::uint64_t timelineHash = 0;
    std::vector<float> weights;
    std::size_t epochsDone = 0;
};

/** Called after every epoch of a run (after any power-loss restore). */
using EpochHook = std::function<void(const core::SoCFlowTrainer &,
                                     const FaultInjector &)>;

/**
 * Liveness oracle for the seeded churn runs: no active-group member
 * is dead per the injector; and once no SoC's board is cut (so the
 * epoch that just ran opened with a heal sweep over the whole fleet),
 * every SoC the injector reports alive is an active member. Skipped
 * while the fleet is dark.
 */
void
expectLiveMembership(const core::SoCFlowTrainer &trainer,
                     const FaultInjector &inj)
{
    if (trainer.powerLost())
        return;
    const std::size_t epoch = trainer.epochsDone();
    std::set<sim::SocId> members;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g) {
        for (sim::SocId s : trainer.groupMembers(g)) {
            EXPECT_TRUE(inj.socAlive(s)) << "dead SoC " << s << " in group "
                                         << g << " after epoch " << epoch;
            members.insert(s);
        }
    }
    const sim::Cluster &cluster = trainer.clusterModel();
    const std::size_t socs = cluster.config().numSocs;
    for (sim::SocId s = 0; s < socs; ++s)
        if (!inj.boardReachable(cluster.board(s)))
            return;
    for (sim::SocId s = 0; s < socs; ++s) {
        if (inj.socAlive(s))
            EXPECT_EQ(members.count(s), 1u)
                << "live SoC " << s << " is in no group after epoch "
                << epoch;
    }
}

/**
 * Train `epochs` epochs with an optional attached fault plan. The
 * conv families run on 12x12 inputs, so LeNet-5 convolves 12x12 and
 * 6x6 maps and VGG-11 reaches its 3x3 and 1x1 tails.
 */
RunResult
runTrainer(const FaultPlan *plan, int epochs, const char *family = "mlp",
           const EpochHook &on_epoch = {})
{
    const bool conv = std::string(family) != "mlp";
    data::DataBundle bundle = tinyBundle(77, conv ? 12 : 8);
    core::SoCFlowConfig cfg = tinyConfig();
    cfg.modelFamily = family;
    core::SoCFlowTrainer trainer(cfg, bundle);
    FaultInjector inj(plan ? *plan : FaultPlan{});
    if (plan)
        trainer.attachFaultInjector(&inj);
    for (int e = 0; e < epochs; ++e) {
        trainer.runEpoch();
        if (on_epoch)
            on_epoch(trainer, inj);
    }
    RunResult r;
    r.timelineHash = trainer.timelineHash();
    r.weights = trainer.globalWeights();
    r.epochsDone = trainer.epochsDone();
    return r;
}

/** Sharded-PS variant: same bit-exactness bar for the PS mode. */
RunResult
runShardedPs(const FaultPlan *plan, int epochs,
             const sim::ClusterConfig *fleet = nullptr)
{
    data::DataBundle bundle = tinyBundle();
    ps::ShardedPsConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = 10;
    cfg.numShards = 2;
    cfg.staleness = 2;
    cfg.globalBatch = 16;
    cfg.sgd.learningRate = 0.05;
    if (fleet) {
        cfg.clusterTemplate = *fleet;
        cfg.numSocs = fleet->numSocs;
    }
    ps::ShardedPsTrainer trainer(cfg, bundle);
    FaultInjector inj(plan ? *plan : FaultPlan{});
    if (plan)
        trainer.attachFaultInjector(&inj);
    for (int e = 0; e < epochs; ++e)
        trainer.runEpoch();
    RunResult r;
    r.timelineHash = trainer.timelineHash();
    r.weights = trainer.globalWeights();
    r.epochsDone = trainer.epochsDone();
    return r;
}

/** Fleet variant: same scenario shape on a multi-rack topology. */
RunResult
runFleetTrainer(const sim::FleetTopology &topo, std::size_t groups,
                const FaultPlan *plan, int epochs)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig cfg = tinyConfig(topo.numSocs(), groups);
    cfg.clusterTemplate = sim::fleetClusterConfig(topo);
    core::SoCFlowTrainer trainer(cfg, bundle);
    FaultInjector inj(plan ? *plan : FaultPlan{});
    if (plan)
        trainer.attachFaultInjector(&inj);
    for (int e = 0; e < epochs; ++e)
        trainer.runEpoch();
    RunResult r;
    r.timelineHash = trainer.timelineHash();
    r.weights = trainer.globalWeights();
    r.epochsDone = trainer.epochsDone();
    return r;
}

/**
 * Run the scenario serially, then at each sweep thread count, and
 * require bit-exact equality. Float comparison is ==, deliberately:
 * the parallel core must preserve the exact accumulation order.
 */
template <typename Fn>
void
expectBitExactAcrossThreads(Fn &&scenario, const char *label,
                            const Pinned *pin = nullptr)
{
    setGlobalThreads(1);
    const RunResult ref = scenario();
    EXPECT_NE(ref.timelineHash, 0u) << label;
    if (pin)
        expectPinned(ref.timelineHash, ref.weights, *pin, label);
    for (std::size_t t : kThreadSweep) {
        setGlobalThreads(t);
        const RunResult got = scenario();
        EXPECT_EQ(got.timelineHash, ref.timelineHash)
            << label << ": timeline hash diverged at " << t
            << " threads";
        EXPECT_EQ(got.epochsDone, ref.epochsDone)
            << label << " at " << t << " threads";
        ASSERT_EQ(got.weights.size(), ref.weights.size())
            << label << " at " << t << " threads";
        for (std::size_t i = 0; i < ref.weights.size(); ++i) {
            ASSERT_EQ(got.weights[i], ref.weights[i])
                << label << ": weight " << i << " diverged at " << t
                << " threads";
        }
    }
    setGlobalThreads(0);
}

} // namespace

// ------------------------------------------------------ clean runs

TEST(ParallelDeterminism, CleanRunBitExact)
{
    const Pinned pin{0x82d26538afcd3181ULL, 0x7658a47cd15fa2c6ULL};
    expectBitExactAcrossThreads([] { return runTrainer(nullptr, 4); },
                                "clean", &pin);
}

TEST(ParallelDeterminism, CleanLeNet5BitExact)
{
    const Pinned pin{0xf7798640b241dbe2ULL, 0x8aa3439e7815ac73ULL};
    expectBitExactAcrossThreads(
        [] { return runTrainer(nullptr, 2, "lenet5"); }, "clean-lenet5",
        &pin);
}

TEST(ParallelDeterminism, CleanVgg11BitExact)
{
    const Pinned pin{0x58747481003c3576ULL, 0xc06a7c98307f0becULL};
    expectBitExactAcrossThreads(
        [] { return runTrainer(nullptr, 2, "vgg11"); }, "clean-vgg11",
        &pin);
}

TEST(ParallelDeterminism, SingleGroupDegeneratesCleanly)
{
    // One group: the parallel loop has nothing to fan out; must still
    // match the serial timeline.
    expectBitExactAcrossThreads(
        [] {
            data::DataBundle bundle = tinyBundle();
            core::SoCFlowTrainer trainer(tinyConfig(10, 1), bundle);
            for (int e = 0; e < 3; ++e)
                trainer.runEpoch();
            RunResult r;
            r.timelineHash = trainer.timelineHash();
            r.weights = trainer.globalWeights();
            r.epochsDone = trainer.epochsDone();
            return r;
        },
        "single-group");
}

// ------------------------------------------------- every fault kind

namespace {

/** One targeted spec of the given kind, firing early. */
FaultPlan
planForKind(FaultKind kind)
{
    FaultSpec s;
    s.kind = kind;
    s.epoch = 1;
    s.step = 1;
    s.soc = 3;
    s.board = 0;
    s.factor = 0.4;
    s.durationEpochs = 2;
    s.count = kind == FaultKind::SwitchPartition ? 1 : 2;
    s.progress = 0.5;
    switch (kind) {
    case FaultKind::LeaderCrash:
        s.phase = FaultPhase::LeaderRing;
        break;
    case FaultKind::SocCrashMidWave:
    case FaultKind::GradCorrupt:
    case FaultKind::RackPowerLoss:
        // Mid-epoch: the outage must abort an epoch in flight, not
        // land on a tidy epoch boundary.
        s.phase = FaultPhase::Wave1;
        break;
    case FaultKind::CheckpointFail:
        s.phase = FaultPhase::Checkpoint;
        break;
    default:
        s.phase = FaultPhase::Compute;
        break;
    }
    FaultPlan plan;
    plan.add(s);
    return plan;
}

/** Pinned serial fingerprint of runTrainer(planForKind(kind), 5). */
Pinned
pinnedForKind(FaultKind kind)
{
    switch (kind) {
    case FaultKind::SocCrash:
        return {0x86beff9aa5d41aa5ULL, 0x5be164aa5f8faf50ULL};
    case FaultKind::LinkDegrade:
        return {0x37d7270a60d8656bULL, 0x3f9157726f8c6430ULL};
    case FaultKind::Straggler:
        return {0x5ad1074d37ae2f36ULL, 0x3f9157726f8c6430ULL};
    case FaultKind::CheckpointFail:
        return {0x1c3a8bd06dff6c93ULL, 0x3f9157726f8c6430ULL};
    case FaultKind::SocCrashMidWave:
        return {0x902c1d437820f20cULL, 0x3f9157726f8c6430ULL};
    case FaultKind::GradCorrupt:
        return {0xb4927222147720c6ULL, 0x3f9157726f8c6430ULL};
    case FaultKind::LeaderCrash:
        return {0xf0bc3441c786b80dULL, 0x3f9157726f8c6430ULL};
    case FaultKind::BoardPartition:
        return {0x6adf7946a26bec1aULL, 0x7658a47cd15fa2c6ULL};
    case FaultKind::SwitchPartition:
        return {0xc25f14b602437395ULL, 0x7658a47cd15fa2c6ULL};
    case FaultKind::SocRejoin:
        return {0x0c12d3cdd9b76b5dULL, 0x3f9157726f8c6430ULL};
    case FaultKind::PsServerCrash:
        return {0x5b55bc7090cc9fbbULL, 0x5be164aa5f8faf50ULL};
    case FaultKind::RackPowerLoss:
        return {0x3ea2529a6317e0feULL, 0xcf2594b51ee9721cULL};
    case FaultKind::CkptReplicaLoss:
        return {0x16137286f386df58ULL, 0x3f9157726f8c6430ULL};
    default:
        ADD_FAILURE() << "no pin for " << faultKindName(kind);
        return {0, 0};
    }
}

} // namespace

class ParallelDeterminismFaultKinds
    : public ::testing::TestWithParam<FaultKind>
{
};

TEST_P(ParallelDeterminismFaultKinds, FaultedRunBitExact)
{
    const FaultPlan plan = planForKind(GetParam());
    const Pinned pin = pinnedForKind(GetParam());
    expectBitExactAcrossThreads(
        [&plan] { return runTrainer(&plan, 5); },
        faultKindName(GetParam()), &pin);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ParallelDeterminismFaultKinds,
    ::testing::Values(FaultKind::SocCrash, FaultKind::LinkDegrade,
                      FaultKind::Straggler, FaultKind::CheckpointFail,
                      FaultKind::SocCrashMidWave,
                      FaultKind::GradCorrupt, FaultKind::LeaderCrash,
                      FaultKind::BoardPartition,
                      FaultKind::SwitchPartition,
                      FaultKind::SocRejoin,
                      FaultKind::PsServerCrash,
                      FaultKind::RackPowerLoss,
                      FaultKind::CkptReplicaLoss),
    [](const ::testing::TestParamInfo<FaultKind> &info) {
        std::string name = faultKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ------------------------------------- partition/heal/rejoin churn

TEST(ParallelDeterminism, SeededChurnBitExact)
{
    FaultPlanConfig fcfg;
    fcfg.horizonEpochs = 5;
    fcfg.stepsPerEpoch = 8;
    fcfg.numSocs = 10;
    fcfg.crashes = 1;
    fcfg.linkDegrades = 1;
    fcfg.stragglers = 1;
    fcfg.checkpointFailures = 0;
    fcfg.midWaveCrashes = 1;
    fcfg.gradCorrupts = 1;
    fcfg.leaderCrashes = 1;
    fcfg.boardPartitions = 1;
    fcfg.switchPartitions = 1;
    fcfg.rejoins = 1;
    fcfg.partitionWindowEpochs = 2;
    fcfg.seed = chaosSeed();
    const FaultPlan plan = FaultPlan::random(fcfg);
    expectBitExactAcrossThreads(
        [&plan] {
            return runTrainer(&plan, 6, "mlp", expectLiveMembership);
        },
        "seeded-churn");
}

// ------------------------- whole-fleet crash-restart (DESIGN ch.13)

namespace {

/** A RackPowerLoss spec: racks [rack, rack+count) go dark mid-epoch. */
FaultSpec
powerLossSpec(std::size_t epoch, std::size_t rack, std::size_t count)
{
    FaultSpec s;
    s.kind = FaultKind::RackPowerLoss;
    s.epoch = epoch;
    s.step = 1;
    s.phase = FaultPhase::Wave1;
    s.board = rack;
    s.count = count;
    return s;
}

/**
 * The full recovery loop the harvest driver runs: checkpoint every
 * epoch through a ReplicatedCkptStore, and when a power loss kills
 * the fleet mid-epoch, restore from the nearest surviving replica
 * and keep training. The crashed-and-recovered timeline -- hash,
 * weights, epoch count -- must replay bit-exactly at every thread
 * count, or replay checking cannot audit restarted fleets.
 */
RunResult
runCrashRestart(const FaultPlan &plan, int epochs, std::size_t replicas,
                const sim::ClusterConfig *fleet = nullptr,
                const EpochHook &on_epoch = {})
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig cfg =
        fleet ? tinyConfig(fleet->numSocs, 4) : tinyConfig();
    if (fleet)
        cfg.clusterTemplate = *fleet;
    core::SoCFlowTrainer trainer(cfg, bundle);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    ckpt::CkptStoreConfig sc;
    sc.replicas = replicas;
    sc.faults = &inj;
    ckpt::ReplicatedCkptStore store(trainer.clusterModel(), sc);

    for (int e = 0; e < epochs; ++e) {
        const core::EpochRecord rec = trainer.runEpoch();
        if (rec.powerLost) {
            try {
                trainer.restoreAfterPowerLoss(store.restore(0).bytes);
            } catch (const core::CheckpointError &) {
                // Nothing durable yet (outage before the first write):
                // the fleet stays dark. Still a deterministic outcome
                // the thread sweep must reproduce.
            }
        } else {
            store.write(trainer.epochsDone(), trainer.saveCheckpoint());
        }
        if (on_epoch)
            on_epoch(trainer, inj);
    }
    RunResult r;
    r.timelineHash = trainer.timelineHash();
    r.weights = trainer.globalWeights();
    r.epochsDone = trainer.epochsDone();
    return r;
}

} // namespace

TEST(ParallelDeterminism, CrashRestartBitExact)
{
    FaultPlan plan;
    plan.add(powerLossSpec(3, 0, 1));
    expectBitExactAcrossThreads(
        [&plan] { return runCrashRestart(plan, 6, 2); },
        "crash-restart");
}

TEST(ParallelDeterminism, CrashRestartFleetWideBitExact)
{
    // Multi-rack fleet, ALL racks lose power at once: restore pulls
    // from durable replica storage (which survives a power cycle,
    // unlike volatile training state).
    const sim::FleetTopology topo{4, 2, 2};
    const sim::ClusterConfig fleet = sim::fleetClusterConfig(topo);
    FaultPlan plan;
    plan.add(powerLossSpec(2, 0, 4));
    expectBitExactAcrossThreads(
        [&] { return runCrashRestart(plan, 5, 2, &fleet); },
        "crash-restart-fleet");
}

TEST(ParallelDeterminism, SeededCrashRestartChurnBitExact)
{
    // Seeded power losses + at-rest replica destruction on top of
    // ordinary churn; run_all.sh --chaos varies SOCFLOW_CHAOS_SEED.
    FaultPlanConfig fcfg;
    fcfg.horizonEpochs = 5;
    fcfg.stepsPerEpoch = 8;
    fcfg.numSocs = 10;
    fcfg.crashes = 1;
    fcfg.rejoins = 1;
    fcfg.rackPowerLosses = 1;
    fcfg.ckptReplicaLosses = 1;
    fcfg.seed = chaosSeed();
    const FaultPlan plan = FaultPlan::random(fcfg);
    expectBitExactAcrossThreads(
        [&plan] {
            return runCrashRestart(plan, 6, 3, nullptr,
                                   expectLiveMembership);
        },
        "seeded-crash-restart");
}

TEST(ParallelDeterminism, ResumedRunMatchesUninterruptedFromCheckpoint)
{
    // The restart invariant the store's ack promises: a run resumed
    // from the replicated store after losing the primary's whole rack
    // is bit-exact -- timeline hash AND weights -- with an
    // uninterrupted run resumed from the original blob. Checked at
    // every thread count.
    auto scenario = [] {
        const sim::FleetTopology topo{4, 2, 2};
        data::DataBundle bundle = tinyBundle();
        core::SoCFlowConfig cfg = tinyConfig(topo.numSocs(), 4);
        cfg.clusterTemplate = sim::fleetClusterConfig(topo);

        core::SoCFlowTrainer writer(cfg, bundle);
        for (int e = 0; e < 2; ++e)
            writer.runEpoch();
        const std::vector<std::uint8_t> blob = writer.saveCheckpoint();

        ckpt::CkptStoreConfig sc;
        sc.replicas = 2;
        ckpt::ReplicatedCkptStore store(writer.clusterModel(), sc);
        EXPECT_TRUE(store.write(writer.epochsDone(), blob).acked);
        store.loseRack(store.placement().front().rack);
        const ckpt::RestoreResult restored = store.restore(0);
        EXPECT_EQ(restored.bytes, blob)
            << "surviving replica is not bit-identical";

        auto finish = [&cfg](const std::vector<std::uint8_t> &bytes) {
            data::DataBundle b = tinyBundle();
            core::SoCFlowTrainer t(cfg, b);
            t.loadCheckpoint(bytes);
            for (int e = 0; e < 3; ++e)
                t.runEpoch();
            RunResult r;
            r.timelineHash = t.timelineHash();
            r.weights = t.globalWeights();
            r.epochsDone = t.epochsDone();
            return r;
        };
        const RunResult resumed = finish(restored.bytes);
        const RunResult uninterrupted = finish(blob);
        EXPECT_EQ(resumed.timelineHash, uninterrupted.timelineHash)
            << "resumed run diverged from uninterrupted run";
        EXPECT_EQ(resumed.weights, uninterrupted.weights);
        EXPECT_EQ(resumed.epochsDone, uninterrupted.epochsDone);
        return resumed;
    };
    expectBitExactAcrossThreads(scenario, "resumed-vs-uninterrupted");
}

// ------------------------------------------- sharded-PS scenarios

// The sharded parameter-server mode (src/ps) must clear the same bar
// as the group-wise trainer: identical timeline hash and exact final
// weights at every thread count, through every recovery path.

TEST(ParallelDeterminism, ShardedPsCleanBitExact)
{
    expectBitExactAcrossThreads(
        [] { return runShardedPs(nullptr, 4); }, "sharded-ps-clean");
}

TEST(ParallelDeterminism, ShardedPsServerCrashBitExact)
{
    // Crash a shard host (SoC 0 owns a shard on the 10-SoC / 2-shard
    // layout) mid-epoch: failover + fencing must replay bit-exactly.
    FaultSpec s;
    s.kind = FaultKind::PsServerCrash;
    s.epoch = 1;
    s.step = 2;
    s.soc = 0;
    FaultPlan plan;
    plan.add(s);
    expectBitExactAcrossThreads(
        [&plan] { return runShardedPs(&plan, 5); },
        "sharded-ps-server-crash");
}

TEST(ParallelDeterminism, ShardedPsPartitionBitExact)
{
    // Board 0 hosts shard server SoC 0; partitioning it forces the
    // quorum/failover path rather than a plain crash.
    const FaultPlan plan = planForKind(FaultKind::BoardPartition);
    expectBitExactAcrossThreads(
        [&plan] { return runShardedPs(&plan, 5); },
        "sharded-ps-partition");
}

TEST(ParallelDeterminism, ShardedPsRackCutBitExact)
{
    // Multi-rack fleet: cutting rack 1 parks worker boards while the
    // shard hosts (rack 0) survive; heal + rejoin must be bit-exact.
    const sim::FleetTopology topo{4, 2, 2};
    const sim::ClusterConfig fleet = sim::fleetClusterConfig(topo);
    FaultPlan plan;
    plan.add(rackCut(1, topo.boardsPerRack, 1, 2));
    expectBitExactAcrossThreads(
        [&] { return runShardedPs(&plan, 5, &fleet); },
        "sharded-ps-rack-cut");
}

TEST(ParallelDeterminism, ShardedPsSeededChurnBitExact)
{
    // Seeded churn including PS-server crashes; run_all.sh --chaos
    // varies SOCFLOW_CHAOS_SEED across re-runs.
    FaultPlanConfig fcfg;
    fcfg.horizonEpochs = 5;
    fcfg.stepsPerEpoch = 8;
    fcfg.numSocs = 10;
    fcfg.psServerCrashes = 1;
    fcfg.psShards = 2;
    fcfg.boardPartitions = 1;
    fcfg.gradCorrupts = 1;
    fcfg.rejoins = 1;
    fcfg.partitionWindowEpochs = 2;
    fcfg.seed = chaosSeed();
    const FaultPlan plan = FaultPlan::random(fcfg);
    expectBitExactAcrossThreads(
        [&plan] { return runShardedPs(&plan, 6); },
        "sharded-ps-seeded-churn");
}

// ------------------------------------------- harvest-day reports

TEST(ParallelDeterminism, HarvestReportBitExact)
{
    FaultPlanConfig fcfg;
    fcfg.horizonEpochs = 24;
    fcfg.numSocs = 10;
    fcfg.crashes = 1;
    fcfg.linkDegrades = 1;
    fcfg.stragglers = 1;
    fcfg.checkpointFailures = 1;
    fcfg.boardPartitions = 1;
    fcfg.rejoins = 1;
    fcfg.seed = chaosSeed();

    std::vector<float> weights;
    auto runDay = [&fcfg, &weights] {
        data::DataBundle bundle = tinyBundle();
        core::SoCFlowConfig cfg = tinyConfig();
        core::SoCFlowTrainer trainer(cfg, bundle);
        FaultInjector inj(FaultPlan::random(fcfg));
        trace::TidalConfig tcfg;
        tcfg.numSocs = 10;
        tcfg.slotMinutes = 60.0;
        trace::TidalTrace tidal(tcfg);
        trace::HarvestConfig hcfg;
        hcfg.socsPerGroup = 2;
        hcfg.faults = &inj;
        trace::HarvestReport report =
            trace::runHarvestDay(trainer, cfg, tidal, hcfg);
        weights = trainer.globalWeights();
        return report;
    };

    setGlobalThreads(1);
    const trace::HarvestReport ref = runDay();
    EXPECT_NE(ref.timelineHash, 0u);
    // Pinned at the default chaos seed only; the chaos harness varies
    // the fault plan through SOCFLOW_CHAOS_SEED.
    if (!std::getenv("SOCFLOW_CHAOS_SEED")) {
        const Pinned pin{0xc1ff2114fb73efbfULL, 0x7cfc8e061e3082e9ULL};
        expectPinned(ref.timelineHash, weights, pin, "harvest-day");
    }
    for (std::size_t t : kThreadSweep) {
        setGlobalThreads(t);
        const trace::HarvestReport got = runDay();
        EXPECT_EQ(got.timelineHash, ref.timelineHash) << t;
        EXPECT_EQ(got.epochsTrained, ref.epochsTrained) << t;
        EXPECT_EQ(got.preemptions, ref.preemptions) << t;
        EXPECT_EQ(got.suspensions, ref.suspensions) << t;
        EXPECT_EQ(got.checkpointsTaken, ref.checkpointsTaken) << t;
        EXPECT_EQ(got.finalTestAcc, ref.finalTestAcc) << t;
        EXPECT_EQ(got.trainingHours, ref.trainingHours) << t;
        EXPECT_EQ(got.crashRecoveries, ref.crashRecoveries) << t;
        EXPECT_EQ(got.checkpointRetries, ref.checkpointRetries) << t;
        EXPECT_EQ(got.checkpointsLost, ref.checkpointsLost) << t;
        EXPECT_EQ(got.recoverySeconds, ref.recoverySeconds) << t;
        EXPECT_EQ(got.waveResumes, ref.waveResumes) << t;
        EXPECT_EQ(got.leaderElections, ref.leaderElections) << t;
        EXPECT_EQ(got.gradCorruptDetected, ref.gradCorruptDetected)
            << t;
        EXPECT_EQ(got.chunksRetransmitted, ref.chunksRetransmitted)
            << t;
        EXPECT_EQ(got.syncFailures, ref.syncFailures) << t;
        EXPECT_EQ(got.partitions, ref.partitions) << t;
        EXPECT_EQ(got.rejoins, ref.rejoins) << t;
        EXPECT_EQ(got.fencedStaleMsgs, ref.fencedStaleMsgs) << t;
        EXPECT_EQ(got.pausedEpochs, ref.pausedEpochs) << t;
        EXPECT_EQ(got.timeline.size(), ref.timeline.size()) << t;
    }
    setGlobalThreads(0);
}

// ------------------------------------------------- fleet topologies

TEST(ParallelDeterminism, FourRackFleetBitExact)
{
    // 4 racks x 2 boards x 2 SoCs: the three-tier hierarchy plus a
    // rack cut (whole rack parked, healed two epochs later) must
    // replay bit-exactly under threading.
    const sim::FleetTopology topo{4, 2, 2};
    FaultPlan plan;
    plan.add(rackCut(1, topo.boardsPerRack, 1, 2));
    expectBitExactAcrossThreads(
        [&] { return runFleetTrainer(topo, 4, &plan, 5); },
        "four-rack-fleet");
}

TEST(ParallelDeterminism, SeededFleetChurnBitExact)
{
    // Seeded rack cuts + crash/rejoin churn across the fleet; the
    // chaos harness (run_all.sh --chaos) varies SOCFLOW_CHAOS_SEED.
    const sim::FleetTopology topo{4, 2, 2};
    FaultPlanConfig fcfg;
    fcfg.horizonEpochs = 5;
    fcfg.stepsPerEpoch = 8;
    fcfg.numSocs = topo.numSocs();
    fcfg.socsPerBoard = topo.socsPerBoard;
    fcfg.crashes = 1;
    fcfg.rejoins = 1;
    fcfg.rackCuts = 1;
    fcfg.boardsPerRack = topo.boardsPerRack;
    fcfg.partitionWindowEpochs = 2;
    fcfg.seed = chaosSeed();
    const FaultPlan plan = FaultPlan::random(fcfg);
    expectBitExactAcrossThreads(
        [&] { return runFleetTrainer(topo, 4, &plan, 6); },
        "seeded-fleet-churn");
}

// ------------------------------------- profiler zero perturbation

namespace {

/**
 * The critical-path profiler must be a pure observer: running the
 * same seeded scenario with profiling ON must reproduce the
 * profiling-OFF timeline hash, weights, and epoch count bit-exactly
 * at every thread count -- and the profiled run must still satisfy
 * the wall-time conservation invariant.
 */
template <typename Fn>
void
expectProfilerTransparent(Fn &&scenario, const char *label)
{
    obs::Profiler &prof = obs::profiler();
    const bool wasEnabled = prof.enabled();

    setGlobalThreads(1);
    prof.setEnabled(false);
    const RunResult ref = scenario();
    EXPECT_NE(ref.timelineHash, 0u) << label;

    for (std::size_t t : {std::size_t{1}, std::size_t{2},
                          std::size_t{5}, std::size_t{8}}) {
        setGlobalThreads(t);
        prof.reset();
        prof.setEnabled(true);
        const RunResult got = scenario();
        prof.setEnabled(false);
        EXPECT_EQ(got.timelineHash, ref.timelineHash)
            << label << ": profiling perturbed the timeline at " << t
            << " threads";
        EXPECT_EQ(got.epochsDone, ref.epochsDone)
            << label << " at " << t << " threads";
        ASSERT_EQ(got.weights.size(), ref.weights.size())
            << label << " at " << t << " threads";
        for (std::size_t i = 0; i < ref.weights.size(); ++i)
            ASSERT_EQ(got.weights[i], ref.weights[i])
                << label << ": weight " << i
                << " perturbed by profiling at " << t << " threads";
        const obs::PerfReport r = prof.report();
        EXPECT_GT(r.epochs, 0u) << label << " at " << t << " threads";
        EXPECT_TRUE(r.conservationOk)
            << label << " at " << t << " threads (worst error "
            << r.worstConservationError << ")";
        EXPECT_EQ(r.timelineHash, ref.timelineHash)
            << label << " at " << t << " threads";
    }
    prof.reset();
    prof.setEnabled(wasEnabled);
    setGlobalThreads(0);
}

} // namespace

TEST(ParallelDeterminism, ProfilerTransparentCleanRun)
{
    expectProfilerTransparent(
        [] { return runTrainer(nullptr, 4); }, "profiled-clean");
}

TEST(ParallelDeterminism, ProfilerTransparentSeededChurn)
{
    FaultPlanConfig fcfg;
    fcfg.horizonEpochs = 5;
    fcfg.stepsPerEpoch = 8;
    fcfg.numSocs = 10;
    fcfg.crashes = 1;
    fcfg.linkDegrades = 1;
    fcfg.stragglers = 1;
    fcfg.midWaveCrashes = 1;
    fcfg.gradCorrupts = 1;
    fcfg.leaderCrashes = 1;
    fcfg.boardPartitions = 1;
    fcfg.rejoins = 1;
    fcfg.partitionWindowEpochs = 2;
    fcfg.seed = chaosSeed();
    const FaultPlan plan = FaultPlan::random(fcfg);
    expectProfilerTransparent(
        [&plan] { return runTrainer(&plan, 6); }, "profiled-churn");
}

TEST(ParallelDeterminism, ProfilerTransparentFleetRun)
{
    const sim::FleetTopology topo{4, 2, 2};
    FaultPlan plan;
    plan.add(rackCut(1, topo.boardsPerRack, 1, 2));
    expectProfilerTransparent(
        [&] { return runFleetTrainer(topo, 4, &plan, 5); },
        "profiled-fleet");
}

TEST(ParallelDeterminism, ProfilerTransparentShardedPs)
{
    FaultSpec s;
    s.kind = FaultKind::PsServerCrash;
    s.epoch = 1;
    s.step = 2;
    s.soc = 0;
    FaultPlan plan;
    plan.add(s);
    expectProfilerTransparent(
        [&plan] { return runShardedPs(&plan, 5); },
        "profiled-sharded-ps");
}

TEST(ParallelDeterminism, ProfilerTransparentHarvestDay)
{
    FaultPlanConfig fcfg;
    fcfg.horizonEpochs = 24;
    fcfg.numSocs = 10;
    fcfg.crashes = 1;
    fcfg.linkDegrades = 1;
    fcfg.stragglers = 1;
    fcfg.checkpointFailures = 1;
    fcfg.boardPartitions = 1;
    fcfg.rejoins = 1;
    fcfg.seed = chaosSeed();
    expectProfilerTransparent(
        [&fcfg] {
            data::DataBundle bundle = tinyBundle();
            core::SoCFlowConfig cfg = tinyConfig();
            core::SoCFlowTrainer trainer(cfg, bundle);
            FaultInjector inj(FaultPlan::random(fcfg));
            trace::TidalConfig tcfg;
            tcfg.numSocs = 10;
            tcfg.slotMinutes = 60.0;
            trace::TidalTrace tidal(tcfg);
            trace::HarvestConfig hcfg;
            hcfg.socsPerGroup = 2;
            hcfg.faults = &inj;
            const trace::HarvestReport report =
                trace::runHarvestDay(trainer, cfg, tidal, hcfg);
            RunResult r;
            r.timelineHash = report.timelineHash;
            r.weights = trainer.globalWeights();
            r.epochsDone = report.epochsTrained;
            return r;
        },
        "profiled-harvest-day");
}

// -------------------------------------------- pool reconfiguration

TEST(ParallelDeterminism, RepeatedResizeIsStable)
{
    // Back-to-back resizes between runs must not leak state between
    // configurations (the global pool is recreated on demand).
    setGlobalThreads(1);
    const RunResult a = runTrainer(nullptr, 2);
    setGlobalThreads(8);
    setGlobalThreads(2);
    const RunResult b = runTrainer(nullptr, 2);
    EXPECT_EQ(a.timelineHash, b.timelineHash);
    setGlobalThreads(0);
}
