/**
 * @file
 * Step-granular fault injection tests: the {epoch, step, phase}
 * clock, mid-wave crash recovery via chunk resume, CRC-backed
 * gradient-integrity checking (typed failure on budget exhaustion,
 * never a silent wrong sum), deterministic leader re-election, and
 * seed-deterministic replay (timeline hash).
 *
 * The chaos harness (run_all.sh --chaos) re-runs this binary under
 * sanitizers with SOCFLOW_CHAOS_SEED varying; every test must hold
 * for any seed.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "collectives/engine.hh"
#include "collectives/reduce.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "sim/cluster.hh"

using namespace socflow;
using namespace socflow::fault;
using socflow::sim::Cluster;
using socflow::sim::ClusterConfig;
using socflow::sim::SocId;

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

core::SoCFlowConfig
tinyConfig()
{
    core::SoCFlowConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = 8;
    cfg.numGroups = 2;
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

} // namespace

// ----------------------------------------------------- step clock

TEST(FaultClock, PointOrderingIsLexicographic)
{
    const FaultPoint a{1, 0, FaultPhase::Compute};
    const FaultPoint b{1, 0, FaultPhase::Wave1};
    const FaultPoint c{1, 0, FaultPhase::LeaderRing};
    const FaultPoint d{1, 1, FaultPhase::Compute};
    const FaultPoint e{2, 0, FaultPhase::Compute};
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_LT(c, d);
    EXPECT_LT(d, e);
    EXPECT_LT(d, FaultPoint::epochEnd(1));
    EXPECT_LT(FaultPoint::epochEnd(1), e);
}

TEST(FaultClock, StepGranularAdvanceFiresInPhaseOrder)
{
    FaultPlan plan;
    FaultSpec corrupt;
    corrupt.kind = FaultKind::GradCorrupt;
    corrupt.epoch = 2;
    corrupt.step = 1;
    corrupt.phase = FaultPhase::Wave1;
    corrupt.count = 3;
    plan.add(corrupt);
    FaultSpec crash;
    crash.kind = FaultKind::SocCrashMidWave;
    crash.epoch = 2;
    crash.step = 3;
    crash.phase = FaultPhase::Wave2;
    crash.soc = 5;
    crash.progress = 0.5;
    plan.add(crash);

    FaultInjector inj(plan);
    EXPECT_TRUE(
        inj.advanceTo(FaultPoint{2, 1, FaultPhase::Compute}).empty());
    EXPECT_EQ(inj.pendingGradCorrupt(), 0u);

    const auto f1 = inj.advanceTo(FaultPoint{2, 1, FaultPhase::Wave1});
    ASSERT_EQ(f1.size(), 1u);
    EXPECT_EQ(f1[0].kind, FaultKind::GradCorrupt);
    EXPECT_EQ(inj.pendingGradCorrupt(), 3u);
    EXPECT_TRUE(inj.corruptNextChunk());
    EXPECT_EQ(inj.drainGradCorrupt(), 2u);
    EXPECT_FALSE(inj.corruptNextChunk());

    EXPECT_TRUE(inj.socAlive(5));
    const auto f2 = inj.advanceTo(FaultPoint{2, 3, FaultPhase::Wave2});
    ASSERT_EQ(f2.size(), 1u);
    EXPECT_EQ(f2[0].kind, FaultKind::SocCrashMidWave);
    EXPECT_FALSE(inj.socAlive(5));
    EXPECT_EQ(inj.now().epoch, 2u);
    EXPECT_EQ(inj.now().step, 3u);

    // The legacy epoch-granular sweep fires both in one call.
    FaultInjector sweep(plan);
    EXPECT_EQ(sweep.advanceTo(2).size(), 2u);
}

TEST(FaultPlan, GeneratesStepGranularKinds)
{
    FaultPlanConfig cfg;
    cfg.crashes = 0;
    cfg.linkDegrades = 0;
    cfg.stragglers = 0;
    cfg.checkpointFailures = 0;
    cfg.midWaveCrashes = 3;
    cfg.gradCorrupts = 2;
    cfg.leaderCrashes = 2;
    cfg.gradCorruptBurst = 4;
    cfg.stepsPerEpoch = 8;
    cfg.seed = chaosSeed();
    const FaultPlan plan = FaultPlan::random(cfg);
    EXPECT_EQ(plan.countKind(FaultKind::SocCrashMidWave), 3u);
    EXPECT_EQ(plan.countKind(FaultKind::GradCorrupt), 2u);
    EXPECT_EQ(plan.countKind(FaultKind::LeaderCrash), 2u);
    for (const FaultSpec &s : plan.specs()) {
        EXPECT_LT(s.step, cfg.stepsPerEpoch);
        switch (s.kind) {
          case FaultKind::SocCrashMidWave:
            EXPECT_TRUE(s.phase == FaultPhase::Wave1 ||
                        s.phase == FaultPhase::Wave2);
            EXPECT_GE(s.progress, 0.0);
            EXPECT_LE(s.progress, 1.0);
            break;
          case FaultKind::GradCorrupt:
            EXPECT_TRUE(s.phase == FaultPhase::Wave1 ||
                        s.phase == FaultPhase::Wave2);
            EXPECT_EQ(s.count, 4u);
            break;
          case FaultKind::LeaderCrash:
            EXPECT_EQ(s.phase, FaultPhase::LeaderRing);
            break;
          default:
            ADD_FAILURE() << "unexpected kind in plan";
        }
    }
}

// ------------------------------------------------- chunk integrity

TEST(ChunkIntegrity, BurstWithinBudgetRetransmits)
{
    ClusterConfig ccfg;
    ccfg.numSocs = 60;
    Cluster cluster(ccfg);
    collectives::CollectiveEngine eng(cluster);
    const std::vector<SocId> ring{0, 1, 2, 3};

    const auto ok = eng.ringAllReduceChecked(ring, 1e6, 2);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.corruptDetected, 2u);
    EXPECT_EQ(ok.chunksRetransmitted, 2u);
    EXPECT_GT(ok.stats.seconds, eng.ringAllReduce(ring, 1e6).seconds);

    const auto bad = eng.ringAllReduceChecked(
        ring, 1e6, eng.syncPolicy().maxRetries + 1);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error, collectives::SyncError::CorruptRetryExhausted);
    EXPECT_EQ(bad.chunksRetransmitted, eng.syncPolicy().maxRetries);
    EXPECT_STREQ(collectives::syncErrorName(bad.error),
                 "corrupt-retry-exhausted");
}

TEST(ChunkIntegrity, VerifiedReduceDropsInsteadOfCorrupting)
{
    std::vector<float> a{1.0f, 2.0f, 3.0f, 4.0f};
    std::vector<float> b{3.0f, 4.0f, 5.0f, 6.0f};
    const std::vector<float> aOrig = a, bOrig = b;
    std::vector<std::vector<float> *> ptrs{&a, &b};

    // Every transfer corrupted: the retry budget exhausts and NO
    // vector is modified -- dropped, not silently wrong.
    const auto dropped = collectives::verifiedAllReduceAverage(
        ptrs, 2, [] { return true; }, 3);
    EXPECT_FALSE(dropped.applied);
    EXPECT_GT(dropped.corruptDetected, 3u);
    EXPECT_EQ(a, aOrig);
    EXPECT_EQ(b, bOrig);

    // A burst within the budget: retransmissions deliver clean chunks
    // and the reduce applies the exact mean.
    int burst = 2;
    const auto applied = collectives::verifiedAllReduceAverage(
        ptrs, 2, [&burst] { return burst-- > 0; }, 3);
    EXPECT_TRUE(applied.applied);
    EXPECT_EQ(applied.corruptDetected, 2u);
    EXPECT_EQ(applied.retransmitted, 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(a[i], (aOrig[i] + bOrig[i]) / 2.0f);
        EXPECT_FLOAT_EQ(b[i], a[i]);
    }
}

TEST(ChunkIntegrity, ResumeCheaperThanFullDegradedRestart)
{
    ClusterConfig ccfg;
    ccfg.numSocs = 60;
    Cluster cluster(ccfg);
    collectives::CollectiveEngine eng(cluster);

    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::SocCrashMidWave;
    crash.epoch = 0;
    crash.soc = 2;
    plan.add(crash);
    FaultInjector inj(plan);
    inj.advanceTo(FaultPoint::epochEnd(0));
    eng.setFaultModel(&inj);

    const std::vector<SocId> ring{0, 1, 2, 3};
    // Half the 2(N-1) = 6 rounds were acked before the crash.
    const auto resume = eng.resumeFromChunk(ring, 8e6, 3);
    const auto full = eng.ringAllReduceResilient(ring, 8e6);
    EXPECT_TRUE(resume.degraded);
    EXPECT_GT(resume.chunksResumed, 0u);
    const std::vector<SocId> survivors{0, 1, 3};
    EXPECT_EQ(resume.survivors, survivors);
    // Chunk resume charges one timeout + one backoff and re-runs only
    // the un-acked share; the coarse path burns the whole envelope
    // and restarts from round zero.
    EXPECT_LT(resume.stats.seconds, full.stats.seconds);

    // With nobody dead, resuming is just the tail of the ring.
    eng.setFaultModel(nullptr);
    const auto tail = eng.resumeFromChunk(ring, 8e6, 3);
    EXPECT_FALSE(tail.degraded);
    EXPECT_DOUBLE_EQ(tail.stats.seconds,
                     eng.ringAllReduceFrom(ring, 8e6, 3).seconds);
}

// ------------------------------------------- mid-wave crash recovery

TEST(MidWaveCrash, EveryPhaseRecoversWithoutEpochRestart)
{
    const FaultPhase phases[] = {
        FaultPhase::Compute, FaultPhase::Wave1, FaultPhase::Wave2,
        FaultPhase::LeaderRing, FaultPhase::Checkpoint};
    for (const FaultPhase phase : phases) {
        data::DataBundle bundle = tinyBundle();
        core::SoCFlowTrainer trainer(tinyConfig(), bundle);
        FaultPlan plan;
        FaultSpec s;
        s.kind = FaultKind::SocCrashMidWave;
        s.epoch = 1;
        s.step = 2;
        s.phase = phase;
        s.soc = 1;
        s.progress = 0.5;
        plan.add(s);
        FaultInjector inj(plan);
        trainer.attachFaultInjector(&inj);

        EXPECT_EQ(trainer.runEpoch().waveResumes, 0u);
        const core::EpochRecord rec = trainer.runEpoch();
        EXPECT_EQ(rec.waveResumes, 1u)
            << "phase " << faultPhaseName(phase);
        EXPECT_EQ(rec.crashes, 1u);
        EXPECT_GT(rec.recoverySeconds, 0.0);
        // The epoch completed in place: no restart, no group loss.
        EXPECT_EQ(trainer.epochsDone(), 2u);
        EXPECT_EQ(trainer.activeGroups(), 2u);
        // Group replica state survives -- momentum included (a full
        // crash would have reset one group's momentum to zero).
        EXPECT_GT(trainer.groupMomentumNorm(0), 0.0);
        EXPECT_GT(trainer.groupMomentumNorm(1), 0.0);
        EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
    }
}

TEST(MidWaveCrash, GroupSurvivesDownToOneMember)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);
    const std::vector<SocId> members = trainer.groupMembers(0);
    ASSERT_EQ(members.size(), 4u);

    // Epoch 1 kills 3 of the group's 4 members mid-wave, its leader
    // at each of steps 0-2: the group keeps training on the shrinking
    // survivor ring with its replica state intact. Epoch 2 kills the
    // last one.
    FaultPlan plan;
    for (std::size_t k = 0; k < members.size(); ++k) {
        FaultSpec s;
        s.kind = FaultKind::SocCrashMidWave;
        s.epoch = k < 3 ? 1 : 2;
        s.step = k < 3 ? k : 0;
        s.phase = FaultPhase::Wave1;
        s.soc = members[k];
        s.progress = 0.5;
        plan.add(s);
    }
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    trainer.runEpoch();

    const core::EpochRecord rec = trainer.runEpoch();
    EXPECT_EQ(rec.waveResumes, 3u);
    EXPECT_GT(rec.recoverySeconds, 0.0);
    EXPECT_GT(rec.simSeconds, 0.0);
    EXPECT_EQ(trainer.activeGroups(), 2u);
    EXPECT_EQ(trainer.groupMembers(0), std::vector<SocId>{members[3]});
    EXPECT_GT(trainer.groupMomentumNorm(0), 0.0);

    // The last member dying empties the group: it is dropped and
    // training continues on the remaining group.
    EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
    EXPECT_EQ(trainer.activeGroups(), 1u);
    EXPECT_GT(trainer.testAccuracy(), 0.2);
}

// --------------------------------------------- leader re-election

TEST(LeaderCrash, DeterministicReElection)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);

    // Every leader crashes in epoch 1's leader ring; each group elects
    // its highest surviving SoC id and the leader ring re-forms.
    const SocId l0 = trainer.groupLeader(0);
    const SocId l1 = trainer.groupLeader(1);
    FaultPlan plan;
    for (SocId leader : {l0, l1}) {
        FaultSpec s;
        s.kind = FaultKind::LeaderCrash;
        s.epoch = 1;
        s.step = 1000;
        s.phase = FaultPhase::LeaderRing;
        s.soc = leader;
        plan.add(s);
    }
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    trainer.runEpoch();

    const core::EpochRecord rec = trainer.runEpoch();
    EXPECT_EQ(trainer.activeGroups(), 2u);
    EXPECT_NE(trainer.groupLeader(0), l0);
    EXPECT_NE(trainer.groupLeader(1), l1);
    EXPECT_TRUE(inj.socAlive(trainer.groupLeader(0)));
    EXPECT_TRUE(inj.socAlive(trainer.groupLeader(1)));
    EXPECT_EQ(rec.leaderElections, 2u);
    EXPECT_EQ(rec.crashes, 2u);
    EXPECT_GT(rec.recoverySeconds, 0.0);
    // Group replica state survived the leader loss.
    EXPECT_GT(trainer.groupMomentumNorm(0), 0.0);
    EXPECT_GT(trainer.groupMomentumNorm(1), 0.0);
}

TEST(LeaderCrash, InjectorDrivenElectionMidEpoch)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);
    const SocId leader = trainer.groupLeader(0);

    FaultPlan plan;
    FaultSpec s;
    s.kind = FaultKind::LeaderCrash;
    s.epoch = 1;
    s.step = 1000;  // past any real step: fires in the epoch's
    s.phase = FaultPhase::LeaderRing;  // end-of-epoch sweep
    s.soc = leader;
    plan.add(s);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    EXPECT_EQ(trainer.runEpoch().leaderElections, 0u);
    const core::EpochRecord rec = trainer.runEpoch();
    EXPECT_EQ(rec.leaderElections, 1u);
    EXPECT_EQ(rec.crashes, 1u);
    EXPECT_NE(trainer.groupLeader(0), leader);
    EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
}

// ------------------------------------------- gradient corruption

TEST(GradIntegrity, WaveBurstWithinBudgetRecovers)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);
    FaultPlan plan;
    FaultSpec s;
    s.kind = FaultKind::GradCorrupt;
    s.epoch = 1;
    s.step = 3;
    s.phase = FaultPhase::Wave1;
    s.soc = 1;
    s.count = 2;  // within the default 3-retry budget
    plan.add(s);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    trainer.runEpoch();
    const core::EpochRecord rec = trainer.runEpoch();
    EXPECT_EQ(rec.gradCorruptDetected, 2u);
    EXPECT_EQ(rec.chunksRetransmitted, 2u);
    EXPECT_EQ(rec.syncFailures, 0u);
    EXPECT_GT(rec.recoverySeconds, 0.0);
    EXPECT_EQ(rec.crashes, 0u);
}

TEST(GradIntegrity, ExhaustedBurstIsTypedFailureNotSilentSum)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);
    FaultPlan plan;
    FaultSpec s;
    s.kind = FaultKind::GradCorrupt;
    s.epoch = 1;
    s.step = 0;
    s.phase = FaultPhase::LeaderRing;  // hits the epoch aggregation
    s.count = 64;  // outlasts any retry budget
    plan.add(s);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    EXPECT_EQ(trainer.runEpoch().syncFailures, 0u);
    const core::EpochRecord rec = trainer.runEpoch();
    // The burst exhausts the budget during the verified cross-group
    // reduce: a typed sync failure, the aggregation is dropped for
    // the epoch, and training continues on per-group weights.
    EXPECT_EQ(rec.syncFailures, 1u);
    EXPECT_GT(rec.gradCorruptDetected, 3u);
    EXPECT_EQ(trainer.activeGroups(), 2u);
    EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
    EXPECT_GT(trainer.testAccuracy(), 0.2);
}

// ------------------------------------------------ replay determinism

namespace {

std::uint64_t
runChaosOnce(std::uint64_t seed)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);
    FaultPlanConfig fcfg;
    fcfg.horizonEpochs = 5;
    fcfg.stepsPerEpoch = 8;
    fcfg.numSocs = 8;
    fcfg.crashes = 1;
    fcfg.linkDegrades = 1;
    fcfg.stragglers = 1;
    fcfg.checkpointFailures = 0;
    fcfg.midWaveCrashes = 2;
    fcfg.gradCorrupts = 2;
    fcfg.leaderCrashes = 1;
    fcfg.seed = seed;
    FaultInjector inj(FaultPlan::random(fcfg));
    trainer.attachFaultInjector(&inj);
    for (int e = 0; e < 6; ++e)
        trainer.runEpoch();
    return trainer.timelineHash();
}

} // namespace

TEST(ChaosReplay, SameSeedSameTimelineHash)
{
    const std::uint64_t seed = chaosSeed();
    const std::uint64_t h1 = runChaosOnce(seed);
    const std::uint64_t h2 = runChaosOnce(seed);
    EXPECT_EQ(h1, h2) << "replay diverged for seed " << seed;
    EXPECT_NE(h1, 0u);
}

TEST(ChaosReplay, DifferentSeedDifferentTimeline)
{
    const std::uint64_t seed = chaosSeed();
    EXPECT_NE(runChaosOnce(seed), runChaosOnce(seed + 1));
}
