/**
 * @file
 * Fault-injection tests: plan determinism, injector mechanics, the
 * collective retry/degrade envelope, crash recovery in the trainer,
 * and checkpoint-write retries in the harvesting scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "collectives/engine.hh"
#include "core/mapping.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "sim/cluster.hh"
#include "trace/harvest.hh"
#include "trace/tidal.hh"

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

/** True when `soc` is a member of one of the trainer's active groups. */
bool
isMember(const core::SoCFlowTrainer &trainer, SocId soc)
{
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g) {
        const std::vector<SocId> m = trainer.groupMembers(g);
        if (std::find(m.begin(), m.end(), soc) != m.end())
            return true;
    }
    return false;
}

} // namespace

// --------------------------------------------------------------- plan

TEST(FaultPlan, SameSeedSamePlan)
{
    FaultPlanConfig cfg;
    cfg.crashes = 2;
    cfg.linkDegrades = 2;
    cfg.stragglers = 2;
    cfg.checkpointFailures = 2;
    const FaultPlan a = FaultPlan::random(cfg);
    const FaultPlan b = FaultPlan::random(cfg);
    ASSERT_EQ(a.specs().size(), b.specs().size());
    ASSERT_EQ(a.specs().size(), 8u);
    for (std::size_t i = 0; i < a.specs().size(); ++i) {
        EXPECT_EQ(a.specs()[i].kind, b.specs()[i].kind);
        EXPECT_EQ(a.specs()[i].epoch, b.specs()[i].epoch);
        EXPECT_EQ(a.specs()[i].soc, b.specs()[i].soc);
        EXPECT_EQ(a.specs()[i].board, b.specs()[i].board);
    }
}

TEST(FaultPlan, DifferentSeedDifferentPlan)
{
    FaultPlanConfig cfg;
    cfg.crashes = 3;
    cfg.stragglers = 3;
    FaultPlanConfig other = cfg;
    other.seed = cfg.seed + 1;
    const FaultPlan a = FaultPlan::random(cfg);
    const FaultPlan b = FaultPlan::random(other);
    bool differs = false;
    for (std::size_t i = 0; i < a.specs().size(); ++i) {
        if (a.specs()[i].epoch != b.specs()[i].epoch ||
            a.specs()[i].soc != b.specs()[i].soc) {
            differs = true;
        }
    }
    EXPECT_TRUE(differs);
}

TEST(FaultPlan, AddKeepsEpochOrder)
{
    FaultPlan plan;
    FaultSpec s;
    s.kind = FaultKind::Straggler;
    s.factor = 0.5;
    s.epoch = 9;
    plan.add(s);
    s.epoch = 3;
    plan.add(s);
    s.epoch = 6;
    plan.add(s);
    ASSERT_EQ(plan.specs().size(), 3u);
    EXPECT_EQ(plan.specs()[0].epoch, 3u);
    EXPECT_EQ(plan.specs()[1].epoch, 6u);
    EXPECT_EQ(plan.specs()[2].epoch, 9u);
    EXPECT_EQ(plan.countKind(FaultKind::Straggler), 3u);
    EXPECT_EQ(plan.countKind(FaultKind::SocCrash), 0u);
}

// ----------------------------------------------------------- injector

TEST(FaultInjector, WindowsFireAndExpire)
{
    FaultPlan plan;
    FaultSpec slow;
    slow.kind = FaultKind::Straggler;
    slow.epoch = 2;
    slow.soc = 4;
    slow.factor = 0.5;
    slow.durationEpochs = 2;
    plan.add(slow);
    FaultSpec nic;
    nic.kind = FaultKind::LinkDegrade;
    nic.epoch = 3;
    nic.board = 1;
    nic.factor = 0.25;
    nic.durationEpochs = 1;
    plan.add(nic);

    FaultInjector inj(plan);
    EXPECT_TRUE(inj.advanceTo(1).empty());
    EXPECT_EQ(inj.computeFactor(4), 1.0);

    const auto fired = inj.advanceTo(2);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].kind, FaultKind::Straggler);
    EXPECT_EQ(inj.computeFactor(4), 0.5);
    EXPECT_EQ(inj.computeFactor(5), 1.0);
    EXPECT_EQ(inj.linkFactor(1), 1.0);

    inj.advanceTo(3);  // straggler still active, NIC degrade fires
    EXPECT_EQ(inj.computeFactor(4), 0.5);
    EXPECT_EQ(inj.linkFactor(1), 0.25);
    EXPECT_EQ(inj.linkFactor(0), 1.0);

    inj.advanceTo(4);  // both windows expired
    EXPECT_EQ(inj.computeFactor(4), 1.0);
    EXPECT_EQ(inj.linkFactor(1), 1.0);
    EXPECT_EQ(inj.firedCount(), 2u);
}

TEST(FaultInjector, CrashIsPermanent)
{
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 1;
    crash.soc = 7;
    plan.add(crash);
    FaultInjector inj(plan);
    EXPECT_TRUE(inj.socAlive(7));
    inj.advanceTo(1);
    EXPECT_FALSE(inj.socAlive(7));
    inj.advanceTo(40);
    EXPECT_FALSE(inj.socAlive(7));
    for (SocId s = 0; s < 32; ++s)
        EXPECT_EQ(inj.socAlive(s), s != 7) << "SoC " << s;
}

TEST(FaultInjector, CheckpointBudgetConsumedPerAttempt)
{
    FaultPlan plan;
    FaultSpec ckpt;
    ckpt.kind = FaultKind::CheckpointFail;
    ckpt.epoch = 1;
    ckpt.count = 2;
    plan.add(ckpt);
    FaultInjector inj(plan);
    EXPECT_FALSE(inj.checkpointWriteFails());  // nothing pending yet
    inj.advanceTo(1);
    EXPECT_EQ(inj.pendingCheckpointFailures(), 2u);
    EXPECT_TRUE(inj.checkpointWriteFails());
    EXPECT_TRUE(inj.checkpointWriteFails());
    EXPECT_FALSE(inj.checkpointWriteFails());  // budget exhausted
    EXPECT_EQ(inj.pendingCheckpointFailures(), 0u);
}

TEST(FaultInjector, FirstInjectionRegistersEveryKindSeries)
{
    // The first injection registers one fault_injected_total series
    // per fault kind, so the metrics dump always lists all 13.
    FaultPlan plan;
    FaultSpec slow;
    slow.kind = FaultKind::Straggler;
    slow.epoch = 1;
    slow.soc = 2;
    slow.factor = 0.5;
    plan.add(slow);
    FaultInjector inj(plan);
    inj.advanceTo(1);

    std::vector<std::string> keys;
    for (const auto &[key, value] : obs::metrics().snapshotValues())
        if (key.rfind("fault_injected_total", 0) == 0)
            keys.push_back(key);
    const std::vector<std::string> expected = {
        "fault_injected_total{kind=\"board_partition\"}",
        "fault_injected_total{kind=\"checkpoint_fail\"}",
        "fault_injected_total{kind=\"ckpt_replica_loss\"}",
        "fault_injected_total{kind=\"grad_corrupt\"}",
        "fault_injected_total{kind=\"leader_crash\"}",
        "fault_injected_total{kind=\"link_degrade\"}",
        "fault_injected_total{kind=\"ps_server_crash\"}",
        "fault_injected_total{kind=\"rack_power_loss\"}",
        "fault_injected_total{kind=\"soc_crash\"}",
        "fault_injected_total{kind=\"soc_crash_mid_wave\"}",
        "fault_injected_total{kind=\"soc_rejoin\"}",
        "fault_injected_total{kind=\"straggler\"}",
        "fault_injected_total{kind=\"switch_partition\"}",
    };
    EXPECT_EQ(keys, expected);
}

// ------------------------------------------------- resilient sync

TEST(ResilientSync, HealthyRingMatchesPlainAllReduce)
{
    ClusterConfig ccfg;
    ccfg.numSocs = 60;
    Cluster cluster(ccfg);
    collectives::CollectiveEngine eng(cluster);
    const std::vector<SocId> ring{0, 1, 2, 3};
    const auto out = eng.ringAllReduceResilient(ring, 1e6);
    EXPECT_FALSE(out.degraded);
    EXPECT_EQ(out.retries, 0u);
    EXPECT_EQ(out.survivors, ring);
    EXPECT_DOUBLE_EQ(out.stats.seconds,
                     eng.ringAllReduce(ring, 1e6).seconds);
}

TEST(ResilientSync, DeadMemberBurnsEnvelopeThenDegrades)
{
    ClusterConfig ccfg;
    ccfg.numSocs = 60;
    Cluster cluster(ccfg);
    collectives::CollectiveEngine eng(cluster);

    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 0;
    crash.soc = 2;
    plan.add(crash);
    FaultInjector inj(plan);
    inj.advanceTo(0);
    eng.setFaultModel(&inj);

    const std::vector<SocId> ring{0, 1, 2, 3};
    const auto out = eng.ringAllReduceResilient(ring, 1e6);
    EXPECT_TRUE(out.degraded);
    EXPECT_EQ(out.retries, eng.syncPolicy().maxRetries);
    const std::vector<SocId> survivors{0, 1, 3};
    EXPECT_EQ(out.survivors, survivors);

    // Cost = full timeout/backoff envelope + the survivor ring.
    const double fallback = eng.ringAllReduce(survivors, 1e6).seconds;
    EXPECT_GT(out.stats.seconds, fallback);
    const auto &p = eng.syncPolicy();
    EXPECT_GE(out.stats.seconds,
              fallback +
                  p.timeoutS * static_cast<double>(out.retries + 1));
}

TEST(ResilientSync, DegradedNicInflatesInterBoardSync)
{
    ClusterConfig ccfg;
    ccfg.numSocs = 60;
    Cluster cluster(ccfg);
    collectives::CollectiveEngine eng(cluster);
    std::vector<SocId> ring;
    for (SocId s = 0; s < 10; ++s)
        ring.push_back(s);  // spans at least two boards
    const double healthy = eng.ringAllReduce(ring, 8e6).seconds;

    FaultPlan plan;
    FaultSpec nic;
    nic.kind = FaultKind::LinkDegrade;
    nic.epoch = 0;
    nic.board = 0;
    nic.factor = 0.25;
    nic.durationEpochs = 4;
    plan.add(nic);
    FaultInjector inj(plan);
    inj.advanceTo(0);
    eng.setFaultModel(&inj);
    const double degraded = eng.ringAllReduce(ring, 8e6).seconds;
    EXPECT_GT(degraded, healthy * 1.5);

    inj.advanceTo(4);  // window expires, cost returns to healthy
    EXPECT_DOUBLE_EQ(eng.ringAllReduce(ring, 8e6).seconds, healthy);
}

// -------------------------------------------------- survivor mapping

TEST(SurvivorMapping, PartitionsSurvivorsEvenly)
{
    std::vector<SocId> socs;
    for (SocId s = 0; s < 30; ++s)
        if (s != 7)
            socs.push_back(s);
    const core::Mapping m = core::mapGroupsOnto(
        socs, 5, 10, core::MapStrategy::IntegrityGreedy);
    ASSERT_EQ(m.numGroups(), 10u);
    std::set<SocId> seen;
    for (const auto &grp : m.members) {
        EXPECT_GE(grp.size(), 2u);
        EXPECT_LE(grp.size(), 3u);
        for (SocId s : grp) {
            EXPECT_TRUE(seen.insert(s).second) << "SoC " << s
                                               << " placed twice";
        }
    }
    EXPECT_EQ(seen.size(), socs.size());
    EXPECT_EQ(seen.count(7), 0u);
}

TEST(SurvivorMapping, IntegrityGreedyNoWorseThanRoundRobin)
{
    std::vector<SocId> socs;
    for (SocId s = 0; s < 20; ++s)
        if (s != 3 && s != 11)
            socs.push_back(s);
    const auto greedy = core::mapGroupsOnto(
        socs, 5, 6, core::MapStrategy::IntegrityGreedy);
    const auto rr = core::mapGroupsOnto(
        socs, 5, 6, core::MapStrategy::RoundRobin);
    EXPECT_LE(core::conflictC(greedy, 5, 4),
              core::conflictC(rr, 5, 4));
}

// -------------------------------------------------- trainer recovery

TEST(CrashRecovery, ConsensusPreservedMomentumReset)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);

    // SoC 0 dies at the close of epoch 0, after the delayed averaging
    // has synchronized every group.
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 0;
    crash.step = 1000;
    crash.phase = FaultPhase::Checkpoint;
    crash.soc = 0;
    plan.add(crash);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    const core::EpochRecord first = trainer.runEpoch();
    EXPECT_EQ(first.crashes, 1u);
    EXPECT_GT(first.recoverySeconds, 0.0);
    EXPECT_FALSE(isMember(trainer, 0));
    EXPECT_EQ(trainer.activeGroups(), 2u);

    // The rebuilt group carries the consensus weights; so does the
    // survivor (delayed averaging had just synchronized them).
    // Momentum survives only on the group that did not crash.
    const auto consensus = trainer.globalWeights();
    std::size_t zeroMomentum = 0;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g) {
        EXPECT_EQ(trainer.groupWeights(g), consensus) << "group " << g;
        if (trainer.groupMomentumNorm(g) == 0.0)
            ++zeroMomentum;
    }
    EXPECT_EQ(zeroMomentum, 1u);

    // Training continues on the survivor topology.
    const core::EpochRecord rec = trainer.runEpoch();
    EXPECT_GT(rec.simSeconds, 0.0);
    EXPECT_GT(trainer.testAccuracy(), 0.2);
}

TEST(CrashRecovery, InjectorCrashFiresDuringEpoch)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);

    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 1;
    crash.soc = 1;
    plan.add(crash);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    const core::EpochRecord first = trainer.runEpoch();
    EXPECT_EQ(first.crashes, 0u);
    const core::EpochRecord second = trainer.runEpoch();
    EXPECT_EQ(second.crashes, 1u);
    EXPECT_GT(second.recoverySeconds, 0.0);
    EXPECT_GE(second.simSeconds, second.recoverySeconds);
    EXPECT_FALSE(isMember(trainer, 1));
    EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
}

TEST(CrashRecovery, StragglerSlowsComputeWindow)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig cfg = tinyConfig();
    cfg.rebalanceUnderclock = false;  // expose the slow SoC directly
    core::SoCFlowTrainer baseline(cfg, bundle);
    const double healthy = baseline.runEpoch().computeSeconds;

    FaultPlan plan;
    FaultSpec slow;
    slow.kind = FaultKind::Straggler;
    slow.epoch = 0;
    slow.soc = 0;
    slow.factor = 0.5;
    slow.durationEpochs = 8;
    plan.add(slow);
    FaultInjector inj(plan);
    core::SoCFlowTrainer faulted(cfg, bundle);
    faulted.attachFaultInjector(&inj);
    EXPECT_GT(faulted.runEpoch().computeSeconds, healthy * 1.2);
}

// ------------------------------------------------- harvest scheduler

TEST(HarvestFaults, CheckpointRetriesAndCrashInTimeline)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig cfg = tinyConfig();
    core::SoCFlowTrainer trainer(cfg, bundle);

    trace::TidalConfig tcfg;
    tcfg.numSocs = 8;
    tcfg.slotMinutes = 60.0;
    tcfg.peakBusy = 1.0;   // guarantees a mid-day suspension
    tcfg.troughBusy = 0.0;
    trace::TidalTrace tidal(tcfg);

    FaultPlan plan;
    FaultSpec ckpt;
    ckpt.kind = FaultKind::CheckpointFail;
    ckpt.epoch = 0;
    ckpt.count = 2;  // shorter than the retry budget -> recovered
    plan.add(ckpt);
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 2;
    crash.soc = 0;
    plan.add(crash);
    FaultInjector inj(plan);

    trace::HarvestConfig hcfg;
    hcfg.socsPerGroup = 4;
    hcfg.faults = &inj;
    const trace::HarvestReport report =
        trace::runHarvestDay(trainer, cfg, tidal, hcfg);

    EXPECT_GT(report.epochsTrained, 2u);
    EXPECT_EQ(report.checkpointRetries, 2u);
    EXPECT_EQ(report.checkpointsLost, 0u);
    EXPECT_GE(report.checkpointsTaken, 1u);
    EXPECT_EQ(report.crashRecoveries, 1u);
    EXPECT_GT(report.recoverySeconds, 0.0);
    const bool hasCrashEvent = std::any_of(
        report.timeline.begin(), report.timeline.end(),
        [](const trace::HarvestEvent &ev) {
            return ev.kind == trace::HarvestEvent::Kind::Crash;
        });
    EXPECT_TRUE(hasCrashEvent);
    EXPECT_GT(report.finalTestAcc, 0.3);
}

TEST(HarvestFaults, ExhaustedRetryBudgetLosesCheckpoint)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig cfg = tinyConfig();
    core::SoCFlowTrainer trainer(cfg, bundle);

    trace::TidalConfig tcfg;
    tcfg.numSocs = 8;
    tcfg.slotMinutes = 60.0;
    tcfg.peakBusy = 1.0;
    tcfg.troughBusy = 0.0;
    trace::TidalTrace tidal(tcfg);

    FaultPlan plan;
    FaultSpec ckpt;
    ckpt.kind = FaultKind::CheckpointFail;
    ckpt.epoch = 0;
    ckpt.count = 10;  // outlasts every retry budget of the day
    plan.add(ckpt);
    FaultInjector inj(plan);

    trace::HarvestConfig hcfg;
    hcfg.socsPerGroup = 4;
    hcfg.faults = &inj;
    hcfg.checkpointMaxRetries = 2;
    const trace::HarvestReport report =
        trace::runHarvestDay(trainer, cfg, tidal, hcfg);

    EXPECT_GE(report.checkpointsLost, 1u);
    // A lost checkpoint never aborts the day.
    EXPECT_GT(report.epochsTrained, 2u);
    EXPECT_GT(report.finalTestAcc, 0.3);
}
