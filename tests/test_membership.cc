/**
 * @file
 * Partition-tolerant membership tests: phi-accrual failure detection
 * (no false positive on stragglers), monotonic-generation fencing
 * (a healed minority can never commit weights -- no split-brain
 * double-aggregation), the quorum rule (majority trains on, minority
 * pauses and preserves state), elastic SoC rejoin with live
 * re-mapping (Theorem 1 optimality and the <= 2-wave CG schedule
 * must survive re-partitioning), and seed-deterministic replay of
 * partition/heal/rejoin timelines.
 *
 * The chaos harness (run_all.sh --chaos) re-runs this binary under
 * sanitizers with SOCFLOW_CHAOS_SEED varying; every test must hold
 * for any seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "collectives/engine.hh"
#include "core/comm_plan.hh"
#include "core/mapping.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "membership/membership.hh"
#include "sim/calibration.hh"
#include "sim/cluster.hh"

using namespace socflow;
using namespace socflow::fault;
using namespace socflow::membership;
using socflow::core::Mapping;
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
tinyConfig(std::size_t socs = 8, std::size_t groups = 2)
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

} // namespace

// ------------------------------------------- phi-accrual detector

TEST(PhiAccrual, SteadyHeartbeatsStayUnsuspicious)
{
    PhiAccrualDetector det;
    for (int i = 0; i < 10; ++i)
        det.heartbeat(3, 1.0 * i);
    // One interval after the last arrival: phi = 1/ln10, well below
    // any sane threshold.
    EXPECT_NEAR(det.meanIntervalS(3), 1.0, 1e-9);
    EXPECT_LT(det.phi(3, 10.0), 0.5);
    EXPECT_FALSE(det.suspect(3, 10.0));
}

TEST(PhiAccrual, StragglerRaisesPhiGraduallyNotFatally)
{
    PhiAccrualDetector det;
    double t = 0.0;
    for (int i = 0; i < 8; ++i)
        det.heartbeat(1, t += 1.0);
    // Heartbeats slow to 2x the fitted mean: suspicion rises but
    // stays far below the phi = 8 kill threshold, and the window
    // adapts to the new cadence instead of accumulating suspicion.
    double worst = 0.0;
    for (int i = 0; i < 8; ++i) {
        worst = std::max(worst, det.phi(1, t + 2.0));
        det.heartbeat(1, t += 2.0);
    }
    EXPECT_GT(worst, 0.5);
    EXPECT_LT(worst, det.config().threshold);
    EXPECT_GT(det.meanIntervalS(1), 1.0);
}

TEST(PhiAccrual, SilenceCrossesThresholdAtDetectionLatency)
{
    PhiAccrualDetector det;
    double t = 0.0;
    for (int i = 0; i < 8; ++i)
        det.heartbeat(7, t += 1.0);
    const double latency = det.detectionLatencyS(7);
    // threshold * mean * ln 10, with mean ~= 1 s.
    EXPECT_NEAR(latency, det.config().threshold * 2.302585, 0.1);
    EXPECT_FALSE(det.suspect(7, t + 0.99 * latency));
    EXPECT_TRUE(det.suspect(7, t + 1.01 * latency));
}

TEST(PhiAccrual, UnknownSocIsNotSuspected)
{
    PhiAccrualDetector det;
    EXPECT_EQ(det.phi(42, 100.0), 0.0);
    EXPECT_FALSE(det.suspect(42, 100.0));
    EXPECT_EQ(det.trackedSocs(), 0u);
}

TEST(PhiAccrual, ForgetDropsState)
{
    PhiAccrualDetector det;
    det.heartbeat(5, 1.0);
    det.heartbeat(5, 2.0);
    EXPECT_EQ(det.trackedSocs(), 1u);
    det.forget(5);
    EXPECT_EQ(det.trackedSocs(), 0u);
    EXPECT_EQ(det.phi(5, 100.0), 0.0);
}

// --------------------------------------------- generation fencing

TEST(GenerationGate, StaleMessagesAreFencedCurrentAdmitted)
{
    GenerationGate gate;
    EXPECT_EQ(gate.current(), 0u);
    EXPECT_TRUE(gate.admit(0));
    gate.bump();
    gate.bump();
    EXPECT_EQ(gate.current(), 2u);
    EXPECT_FALSE(gate.admit(0)) << "pre-partition stamp must fence";
    EXPECT_FALSE(gate.admit(1));
    EXPECT_TRUE(gate.admit(2));
    EXPECT_TRUE(gate.admit(3)) << "newer-than-current is not stale";
    EXPECT_EQ(gate.fencedCount(), 2u);
}

// -------------------------------------------------- quorum rule

TEST(Quorum, StrictMajorityWins)
{
    EXPECT_TRUE(hasQuorum({0, 1, 2}, 5, 0));
    EXPECT_FALSE(hasQuorum({3, 4}, 5, 0));
    EXPECT_FALSE(hasQuorum({}, 5, 0));
}

TEST(Quorum, ExactTieWonByLowestLiveId)
{
    EXPECT_TRUE(hasQuorum({0, 1}, 4, 0));
    EXPECT_FALSE(hasQuorum({2, 3}, 4, 0));
}

// ------------------------------------- straggler: no false positive

TEST(MembershipTrainer, StragglerIsNeverFalselyKilled)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);
    FaultPlan plan;
    FaultSpec s;
    s.kind = FaultKind::Straggler;
    s.epoch = 1;
    s.soc = 3;
    s.factor = 0.25;  // 4x slower heartbeats
    s.durationEpochs = 3;
    plan.add(s);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    for (int e = 0; e < 5; ++e)
        trainer.runEpoch();
    // The slowdown raises suspicion but never crosses the threshold:
    // the sliding window adapts to the new cadence (this is the whole
    // point of accrual over a binary timeout).
    EXPECT_GT(trainer.peakSuspicion(), 0.0);
    EXPECT_LT(trainer.peakSuspicion(), trainer.failureDetector()
                                           .config()
                                           .threshold);
    EXPECT_EQ(trainer.activeGroups(), 2u);
    std::size_t members = 0;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        members += trainer.groupMembers(g).size();
    EXPECT_EQ(members, 8u);
}

// --------------------------- partition: minority parks, fence holds

TEST(MembershipTrainer, MinorityPartitionPreservesStateAndIsFenced)
{
    // 10 SoCs on two boards of five; group 1 lives entirely on board
    // 1. Cutting board 1 is an exact 5/5 tie, won by the side holding
    // SoC 0, so the trainer parks group 1 and trains on.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(10, 2), bundle);
    FaultPlan plan;
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 2;
    cut.board = 1;
    cut.durationEpochs = 2;
    plan.add(cut);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    trainer.runEpoch();
    trainer.runEpoch();
    const std::uint64_t genBefore = trainer.generation();

    // Epoch 2: the cut fires; the majority re-maps and trains.
    core::EpochRecord rec = trainer.runEpoch();
    EXPECT_EQ(rec.partitions, 1u);
    EXPECT_FALSE(rec.paused);
    EXPECT_FALSE(trainer.quorumPaused());
    ASSERT_EQ(trainer.pausedGroupCount(), 1u);
    EXPECT_EQ(trainer.activeGroups(), 1u);
    EXPECT_GT(trainer.generation(), genBefore);
    EXPECT_GT(rec.recoverySeconds, 0.0);

    // The parked minority never mutates: its weights are bit-stable
    // across the whole partition window while the majority trains.
    const std::vector<float> parked = trainer.pausedGroupWeights(0);
    trainer.runEpoch();  // epoch 3: still cut
    ASSERT_EQ(trainer.pausedGroupCount(), 1u);
    EXPECT_EQ(trainer.pausedGroupWeights(0), parked)
        << "minority side mutated weights during the partition";

    // Epoch 4: the cut heals. The returning side's replayed traffic
    // is stamped with the stale generation and fenced -- it can never
    // commit into the majority's aggregate -- then the group rejoins
    // from the majority's consensus.
    const std::size_t fencedBefore = trainer.fencedStaleTotal();
    rec = trainer.runEpoch();
    EXPECT_EQ(trainer.pausedGroupCount(), 0u);
    EXPECT_EQ(trainer.activeGroups(), 2u);
    EXPECT_GT(trainer.fencedStaleTotal(), fencedBefore)
        << "the stale-generation replay must be fenced";
    EXPECT_GE(rec.rejoins, 5u) << "all five cut SoCs fold back in";

    // Live membership is whole again and training continues.
    std::set<SocId> live;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        for (SocId s : trainer.groupMembers(g))
            live.insert(s);
    EXPECT_EQ(live.size(), 10u);
    EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
}

TEST(MembershipTrainer, NoQuorumPausesEverythingUntilHeal)
{
    // Cutting board 0 leaves the reachable side {5..9}: an exact tie
    // WITHOUT the lowest live SoC, so no side trains. Every epoch
    // under the cut pauses in place; nothing is lost.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(10, 2), bundle);
    FaultPlan plan;
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 1;
    cut.board = 0;
    cut.durationEpochs = 2;
    plan.add(cut);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    trainer.runEpoch();
    const std::vector<float> before = trainer.groupWeights(0);

    core::EpochRecord rec = trainer.runEpoch();  // epoch 1: cut fires
    EXPECT_TRUE(rec.paused);
    EXPECT_TRUE(trainer.quorumPaused());
    EXPECT_EQ(rec.partitions, 1u);
    EXPECT_EQ(trainer.activeGroups(), 2u) << "groups stay in place";

    rec = trainer.runEpoch();  // epoch 2: still cut
    EXPECT_TRUE(rec.paused);
    EXPECT_EQ(trainer.groupWeights(0), before)
        << "a paused epoch must not mutate weights";

    rec = trainer.runEpoch();  // epoch 3: healed, trains again
    EXPECT_FALSE(rec.paused);
    EXPECT_FALSE(trainer.quorumPaused());
    EXPECT_NE(trainer.groupWeights(0), before);
}

TEST(MembershipTrainer, PausedEpochRecordKeepsEveryRecoveryCounter)
{
    // A mid-wave crash scheduled inside a no-quorum window cannot fire
    // at its wave (nothing trains), so it fires as a leftover at the
    // next paused epoch's open. That paused record must carry the
    // whole recovery tally: the crash AND its wave resume.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(10, 2), bundle);
    FaultPlan plan;
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 1;
    cut.board = 0;
    cut.durationEpochs = 2;
    plan.add(cut);
    FaultSpec crash;
    crash.kind = FaultKind::SocCrashMidWave;
    crash.epoch = 1;
    crash.step = 0;
    crash.phase = FaultPhase::Wave1;
    crash.soc = 6;
    plan.add(crash);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    trainer.runEpoch();
    ASSERT_TRUE(trainer.runEpoch().paused);  // epoch 1: cut fires
    const core::EpochRecord rec = trainer.runEpoch();  // epoch 2
    ASSERT_TRUE(rec.paused);
    EXPECT_EQ(rec.crashes, 1u);
    EXPECT_EQ(rec.waveResumes, 1u)
        << "the paused record dropped the leftover wave resume";
    EXPECT_GT(rec.recoverySeconds, 0.0);
}

// ------------------------- rejoin: live re-map keeps the theorems

namespace {

std::size_t
liveBoards(const std::vector<SocId> &socs, std::size_t per_board)
{
    std::size_t boards = 0;
    for (SocId s : socs)
        boards = std::max(boards, s / per_board + 1);
    return boards;
}

/**
 * Exhaustive minimum of C over all partitions of the live SoC set
 * whose group-size multiset matches `sizes`. Groups are created in
 * order of their smallest member; members join in increasing order;
 * each new group tries every distinct remaining size.
 */
std::size_t
bruteForceMinC(const std::vector<SocId> &live, std::size_t per_board,
               std::vector<std::size_t> sizes)
{
    const std::size_t boards = liveBoards(live, per_board);
    std::vector<std::vector<SocId>> partial;
    std::vector<bool> used(live.size(), false);
    std::size_t best = std::numeric_limits<std::size_t>::max();

    std::function<void()> nextGroup = [&]() {
        std::size_t first = 0;
        while (first < live.size() && used[first])
            ++first;
        if (first == live.size()) {
            Mapping m;
            m.members = partial;
            best = std::min(best, conflictC(m, per_board, boards));
            return;
        }
        std::set<std::size_t> tried;
        for (std::size_t si = 0; si < sizes.size(); ++si) {
            const std::size_t gsize = sizes[si];
            if (gsize == 0 || !tried.insert(gsize).second)
                continue;
            sizes[si] = 0;  // consumed
            used[first] = true;
            std::vector<SocId> cur{live[first]};
            std::function<void(std::size_t)> pickMates =
                [&](std::size_t start) {
                    if (cur.size() == gsize) {
                        partial.push_back(cur);
                        nextGroup();
                        partial.pop_back();
                        return;
                    }
                    for (std::size_t s = start; s < live.size(); ++s) {
                        if (used[s])
                            continue;
                        used[s] = true;
                        cur.push_back(live[s]);
                        pickMates(s + 1);
                        cur.pop_back();
                        used[s] = false;
                    }
                };
            pickMates(first + 1);
            used[first] = false;
            sizes[si] = gsize;
        }
    };
    nextGroup();
    return best;
}

/** Assert Theorem 1/2 on the trainer's current live mapping. */
void
expectLiveMappingOptimal(const core::SoCFlowTrainer &trainer,
                         std::size_t per_board)
{
    Mapping m;
    std::vector<SocId> live;
    std::vector<std::size_t> sizes;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g) {
        std::vector<SocId> members = trainer.groupMembers(g);
        std::sort(members.begin(), members.end());
        sizes.push_back(members.size());
        live.insert(live.end(), members.begin(), members.end());
        m.members.push_back(std::move(members));
    }
    std::sort(live.begin(), live.end());
    const std::size_t boards = liveBoards(live, per_board);

    // Theorem 1: the re-mapped conflict count C is the optimum over
    // every same-shape partition of the live membership.
    EXPECT_EQ(conflictC(m, per_board, boards),
              bruteForceMinC(live, per_board, sizes));

    // Theorem 2: the conflict graph stays a union of chains, so the
    // CG schedule still needs at most two waves.
    const auto adj = core::conflictGraph(m, per_board);
    for (const auto &neighbours : adj)
        EXPECT_LE(neighbours.size(), 2u);
    EXPECT_LE(trainer.numCommGroups(), 2u);
}

} // namespace

TEST(MembershipTrainer, RejoinQueuedWhileParkedIsCaughtUpOnce)
{
    // Board 1 (SoCs 5-9, all of group 1) is cut at epoch 1 for two
    // epochs, and a SocRejoin of SoC 7 lands at epoch 2 while its group
    // is parked, so it queues for the heal. At the heal (epoch 3) the
    // parked group returns with SoC 7 in it: five SoCs rejoin, each
    // caught up once, exactly as without the queued rejoin.
    core::EpochRecord heal[2];
    for (const bool queueRejoin : {false, true}) {
        data::DataBundle bundle = tinyBundle();
        core::SoCFlowTrainer trainer(tinyConfig(10, 2), bundle);
        FaultPlan plan;
        FaultSpec cut;
        cut.kind = FaultKind::BoardPartition;
        cut.epoch = 1;
        cut.board = 1;
        cut.durationEpochs = 2;
        plan.add(cut);
        if (queueRejoin) {
            FaultSpec rejoin;
            rejoin.kind = FaultKind::SocRejoin;
            rejoin.epoch = 2;
            rejoin.soc = 7;
            plan.add(rejoin);
        }
        FaultInjector inj(plan);
        trainer.attachFaultInjector(&inj);
        for (int e = 0; e < 3; ++e)
            trainer.runEpoch();
        ASSERT_EQ(trainer.pausedGroupCount(), 1u);
        heal[queueRejoin] = trainer.runEpoch();
        EXPECT_EQ(trainer.pausedGroupCount(), 0u);
        std::size_t members = 0;
        std::set<SocId> live;
        for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
            for (SocId s : trainer.groupMembers(g)) {
                live.insert(s);
                ++members;
            }
        EXPECT_EQ(live.size(), 10u);
        EXPECT_EQ(members, 10u);
    }
    EXPECT_EQ(heal[0].rejoins, 5u);
    EXPECT_EQ(heal[1].rejoins, 5u) << "SoC 7 counted twice";
    EXPECT_EQ(heal[1].recoverySeconds, heal[0].recoverySeconds)
        << "SoC 7 caught up twice";
}

TEST(MembershipTrainer, RejoinBehindCutOfCrashedSocIsHealedIn)
{
    // SoC 6 (board 1) crashes at epoch 1; board 1 is cut at epoch 2
    // for two epochs, parking group 1; SoC 6's SocRejoin lands at
    // epoch 3, behind the cut, so it queues for the heal. At the heal
    // (epoch 4) the parked group's four SoCs and SoC 6 rejoin.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(10, 2), bundle);
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 1;
    crash.soc = 6;
    plan.add(crash);
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 2;
    cut.board = 1;
    cut.durationEpochs = 2;
    plan.add(cut);
    FaultSpec rejoin;
    rejoin.kind = FaultKind::SocRejoin;
    rejoin.epoch = 3;
    rejoin.soc = 6;
    plan.add(rejoin);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    for (int e = 0; e < 4; ++e)
        trainer.runEpoch();
    ASSERT_TRUE(inj.socAlive(6));

    const core::EpochRecord heal = trainer.runEpoch();
    std::set<SocId> live;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        for (SocId s : trainer.groupMembers(g))
            live.insert(s);
    EXPECT_EQ(live.size(), 10u);
    EXPECT_EQ(live.count(6), 1u) << "SoC 6's rejoin was lost";
    EXPECT_EQ(heal.rejoins, 5u);
}

TEST(MembershipTrainer, PowerLossRestoreKeepsCrashedSocOut)
{
    // SoC 6 crashes at epoch 1 and the fleet loses power at epoch 2.
    // The power cycle reboots machines, it does not revive SoC 6: the
    // restored groups leave it out until a SocRejoin.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(10, 2), bundle);
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 1;
    crash.soc = 6;
    plan.add(crash);
    FaultSpec power;
    power.kind = FaultKind::RackPowerLoss;
    power.epoch = 2;
    power.board = 0;
    power.count = 1;
    plan.add(power);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    trainer.runEpoch();
    trainer.runEpoch();
    const std::vector<std::uint8_t> blob = trainer.saveCheckpoint();
    ASSERT_TRUE(trainer.runEpoch().powerLost);

    trainer.restoreAfterPowerLoss(blob);
    ASSERT_FALSE(trainer.powerLost());
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        for (SocId s : trainer.groupMembers(g))
            EXPECT_TRUE(inj.socAlive(s)) << "dead SoC " << s
                                         << " rebooted into group " << g;
    const core::EpochRecord next = trainer.runEpoch();
    EXPECT_FALSE(next.powerLost);
    EXPECT_GT(next.simSeconds, 0.0);
    EXPECT_EQ(trainer.epochsDone(), 3u);
}

TEST(MembershipTrainer, RejoinRemapPreservesTheorems)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(), bundle);
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 1;
    crash.soc = 2;
    plan.add(crash);
    FaultSpec rejoin;
    rejoin.kind = FaultKind::SocRejoin;
    rejoin.epoch = 3;
    rejoin.soc = 2;
    plan.add(rejoin);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    trainer.runEpoch();
    const core::EpochRecord crashRec = trainer.runEpoch();
    EXPECT_EQ(crashRec.crashes, 1u);
    expectLiveMappingOptimal(trainer, 5);  // 7 live SoCs

    trainer.runEpoch();
    const core::EpochRecord rec = trainer.runEpoch();
    EXPECT_EQ(rec.rejoins, 1u);

    // The full membership is back and the re-run mapping + CG plan
    // still satisfy both theorems on the live set.
    std::set<SocId> live;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        for (SocId s : trainer.groupMembers(g))
            live.insert(s);
    EXPECT_EQ(live.size(), 8u);
    expectLiveMappingOptimal(trainer, 5);
    EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
}

// ------------------------------------------------- sync-price memo

namespace {

/**
 * Warm the trainer's memoized sync prices, apply `change`, then check
 * the memo against a fresh pricer of the same mapping, and that
 * mapping against the trainer's live member lists.
 */
void
expectMemoFollows(core::SoCFlowTrainer &trainer,
                  const std::function<void()> &change, const char *what)
{
    const core::SyncPricer &memo = trainer.syncPricer();
    memo.stepSeconds();
    memo.epochSeconds();
    change();
    const core::SyncPricer fresh(memo);
    EXPECT_EQ(memo.stepSeconds(), fresh.stepSeconds()) << what;
    EXPECT_EQ(memo.waveSeconds(), fresh.waveSeconds()) << what;
    EXPECT_EQ(memo.epochSeconds(), fresh.epochSeconds()) << what;

    Mapping live;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        live.members.push_back(trainer.groupMembers(g));
    const sim::Cluster &cluster = trainer.clusterModel();
    const collectives::CollectiveEngine engine(cluster);
    const core::CommPlan plan = core::planCommGroups(
        core::conflictGraph(live, cluster.config().socsPerBoard));
    const core::SyncPricer rebuilt(engine, live, plan,
                                   sim::modelProfile("mlp").paramBytes(),
                                   true, 0.0);
    EXPECT_EQ(memo.stepSeconds(), rebuilt.stepSeconds()) << what;
}

} // namespace

TEST(MembershipTrainer, SyncPriceMemoFollowsEveryMembershipChange)
{
    // 10 SoCs on two boards of five, one group per board: cutting
    // board 1 parks group 1 for one epoch.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(10, 2), bundle);
    FaultPlan plan;
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 1;
    cut.board = 1;
    cut.durationEpochs = 1;
    plan.add(cut);
    // SoC 3 crashes as epoch 3 closes, SoC 8 mid-wave as epoch 4
    // closes (after the last sync price of each epoch is memoized),
    // and SoC 3 rejoins at epoch 5.
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 3;
    crash.step = 1000;
    crash.phase = FaultPhase::Checkpoint;
    crash.soc = 3;
    plan.add(crash);
    FaultSpec midWave = crash;
    midWave.kind = FaultKind::SocCrashMidWave;
    midWave.epoch = 4;
    midWave.soc = 8;
    plan.add(midWave);
    FaultSpec rejoin;
    rejoin.kind = FaultKind::SocRejoin;
    rejoin.epoch = 5;
    rejoin.soc = 3;
    plan.add(rejoin);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    trainer.runEpoch();
    const std::vector<std::uint8_t> blob = trainer.saveCheckpoint();

    expectMemoFollows(trainer, [&] { trainer.runEpoch(); }, "partition");
    ASSERT_EQ(trainer.pausedGroupCount(), 1u);
    expectMemoFollows(trainer, [&] { trainer.runEpoch(); }, "heal");
    ASSERT_EQ(trainer.activeGroups(), 2u);
    expectMemoFollows(trainer, [&] { trainer.setActiveGroups(1); },
                      "shrink");
    expectMemoFollows(trainer, [&] { trainer.setActiveGroups(2); },
                      "grow");
    core::EpochRecord rec;
    expectMemoFollows(trainer, [&] { rec = trainer.runEpoch(); },
                      "crash");
    ASSERT_EQ(rec.crashes, 1u);
    expectMemoFollows(trainer, [&] { rec = trainer.runEpoch(); },
                      "mid-wave crash");
    ASSERT_EQ(rec.waveResumes, 1u);
    expectMemoFollows(trainer, [&] { rec = trainer.runEpoch(); },
                      "rejoin");
    ASSERT_EQ(rec.rejoins, 1u);
    expectMemoFollows(trainer,
                      [&] { trainer.restoreAfterPowerLoss(blob); },
                      "power-loss restore");
}

// ------------------------------------------------ replay determinism

namespace {

std::uint64_t
runChurnOnce(std::uint64_t seed)
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
    fcfg.boardPartitions = 1;
    fcfg.switchPartitions = 1;
    fcfg.rejoins = 1;
    fcfg.partitionWindowEpochs = 2;
    fcfg.seed = seed;
    FaultInjector inj(FaultPlan::random(fcfg));
    trainer.attachFaultInjector(&inj);
    for (int e = 0; e < 6; ++e)
        trainer.runEpoch();
    return trainer.timelineHash();
}

} // namespace

TEST(ChaosReplay, PartitionHealRejoinReplaysToSameHash)
{
    const std::uint64_t seed = chaosSeed();
    const std::uint64_t h1 = runChurnOnce(seed);
    const std::uint64_t h2 = runChurnOnce(seed);
    EXPECT_EQ(h1, h2) << "partition/heal/rejoin replay diverged for "
                         "seed " << seed;
    EXPECT_NE(h1, 0u);
}

TEST(ChaosReplay, DifferentSeedDifferentChurnTimeline)
{
    const std::uint64_t seed = chaosSeed();
    EXPECT_NE(runChurnOnce(seed), runChurnOnce(seed + 1));
}
