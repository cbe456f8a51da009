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
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "collectives/engine.hh"
#include "core/comm_plan.hh"
#include "core/mapping.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "membership/membership.hh"
#include "membership/roster.hh"
#include "sim/calibration.hh"
#include "sim/cluster.hh"
#include "util/rng.hh"

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

// ------------------------------------------- roster (no trainer)

namespace {

/** A fault model whose dead SoCs and cut boards a test sets. */
struct ScriptedFaults : FaultModel {
    std::set<SocId> dead;
    std::set<sim::BoardId> cut;
    bool socAlive(SocId s) const override { return !dead.count(s); }
    double computeFactor(SocId) const override { return 1.0; }
    double linkFactor(sim::BoardId) const override { return 1.0; }
    bool boardReachable(sim::BoardId b) const override
    {
        return !cut.count(b);
    }
};

/** The payload standing in for the trainer's replicas. */
struct Tag {
    std::size_t logical = 0;
};

std::unique_ptr<Tag>
makeTag(std::size_t g)
{
    return std::make_unique<Tag>(Tag{g});
}

sim::ClusterConfig
rosterCluster(std::size_t socs)
{
    sim::ClusterConfig c;
    c.numSocs = socs;
    return c;
}

/** A roster over `socs` SoCs (5 per board) with the trainer's own
 *  compound edits: the cut with its re-map, and the live re-map. */
struct RosterRig {
    explicit RosterRig(std::size_t socs = 15)
        : cluster(rosterCluster(socs)), roster(cluster)
    {
        roster.setFaultModel(&faults);
    }

    void boot(const std::vector<std::vector<SocId>> &logical)
    {
        roster.boot(logical, makeTag);
    }

    /** handlePartition's edit: split the live members, apply the cut,
     *  and re-map when the majority trains on.
     *  @return the SoCs the cut queued. */
    std::vector<SocId> cut(std::uint64_t generation, double now_s)
    {
        const QuorumSplit split = roster.splitLive();
        std::vector<SocId> stripped =
            roster.applyCut(split, generation, now_s);
        if (!split.cut.empty() && split.quorum)
            remap();
        return stripped;
    }

    /** remapLiveMembership's edit. */
    void remap()
    {
        const std::vector<SocId> live = roster.liveMembers();
        roster.shrink(live.size());
        roster.assign(core::mapGroupsOnto(live, 5, roster.size(),
                                          core::MapStrategy::IntegrityGreedy)
                          .members);
    }

    Holder::Kind kind(SocId s) const { return roster.holderOf(s).kind; }

    ScriptedFaults faults;
    sim::Cluster cluster;
    Roster<Tag> roster;
};

const std::vector<std::vector<SocId>> kBoards15 = {
    {0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}, {10, 11, 12, 13, 14}};

} // namespace

TEST(Roster, BootFiltersDeadSocsAndSkipsEmptyGroups)
{
    RosterRig rig;
    rig.faults.dead = {3, 5, 6, 7, 8, 9};
    rig.boot(kBoards15);
    const Roster<Tag> &r = rig.roster;
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r.members(0), (std::vector<SocId>{0, 1, 2, 4}));
    EXPECT_EQ(r.state(1).logical, 2u);
    EXPECT_EQ(rig.kind(3), Holder::None);
    EXPECT_EQ(rig.kind(7), Holder::None);
    EXPECT_EQ(r.holderOf(12).kind, Holder::Active);
    EXPECT_EQ(r.holderOf(12).index, 1u);
    r.checkInvariants(3);
}

TEST(Roster, PowerLossResetForgetsParkedQueuedAndQuorum)
{
    // Board 2 is cut: group {11..14} parks and SoC 10 leaves the mixed
    // group {5..10} for the isolation queue. A reboot forgets both,
    // their lost-contact times, and a lost quorum.
    RosterRig rig;
    rig.boot({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9, 10}, {11, 12, 13, 14}});
    rig.faults.cut = {2};
    rig.cut(1, 1.0);
    ASSERT_EQ(rig.roster.parked().size(), 1u);
    ASSERT_EQ(rig.kind(10), Holder::Isolated);

    rig.boot({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}});
    EXPECT_TRUE(rig.roster.parked().empty());
    EXPECT_TRUE(rig.roster.isolated().empty());
    EXPECT_EQ(rig.kind(10), Holder::None);
    EXPECT_EQ(rig.kind(12), Holder::None);
    rig.faults.cut.clear();
    EXPECT_FALSE(rig.roster.join(12, 5.0).has_value())
        << "a lost-contact time survived the reset";

    rig.faults.cut = {0, 1};
    rig.cut(2, 6.0);
    ASSERT_TRUE(rig.roster.quorumLost());
    rig.boot(kBoards15);
    EXPECT_FALSE(rig.roster.quorumLost());
}

TEST(Roster, ShrinkAndDropGroupReleaseTheirMembers)
{
    RosterRig rig;
    rig.boot(kBoards15);
    rig.roster.dropGroup(0);
    EXPECT_EQ(rig.kind(2), Holder::None);
    EXPECT_EQ(rig.roster.holderOf(7).index, 0u);
    rig.roster.shrink(1);
    EXPECT_EQ(rig.roster.size(), 1u);
    EXPECT_EQ(rig.kind(12), Holder::None);
    rig.roster.shrink(3);
    EXPECT_EQ(rig.roster.size(), 1u) << "shrink never grows";
}

TEST(Roster, RegrowAdmitsOnlyUsableUnheldSocs)
{
    // Group 0 holds SoCs 0-4; SoC 9 waits in the isolation queue, SoC
    // 7 is dead and board 2 is cut. A regrow to three groups admits
    // logical group 1's other SoCs and nothing of board 2.
    RosterRig rig;
    rig.boot(kBoards15);
    rig.roster.shrink(1);
    rig.faults.cut = {1};
    EXPECT_FALSE(rig.roster.admitRejoin(9, 0.0));
    rig.faults.cut = {2};
    rig.faults.dead = {7};
    EXPECT_EQ(rig.roster.regrow(3, kBoards15, makeTag), 1u);
    ASSERT_EQ(rig.roster.size(), 2u);
    EXPECT_EQ(rig.roster.members(1), (std::vector<SocId>{5, 6, 8}));
    EXPECT_EQ(rig.roster.state(1).logical, 1u);
    EXPECT_EQ(rig.kind(9), Holder::Isolated);
    EXPECT_EQ(rig.kind(12), Holder::None);
    rig.roster.checkInvariants(3);
}

TEST(Roster, RegrowLeavesRoomForParkedGroups)
{
    // Board 0's group parks. With one active group left, a regrow to
    // four over four logical groups stops at three active ones: the
    // parked group returns at the heal, and four is all there may be.
    RosterRig rig(20);
    rig.boot(kBoards15);
    rig.faults.cut = {0};
    rig.cut(1, 1.0);
    ASSERT_EQ(rig.roster.parked().size(), 1u);
    rig.roster.shrink(1);
    const std::vector<std::vector<SocId>> logical = {
        {0, 1, 2, 3, 4}, {15, 16}, {17, 18}, {10, 11, 12, 13, 14}};
    EXPECT_EQ(rig.roster.regrow(4, logical, makeTag), 2u);
    EXPECT_EQ(rig.roster.size(), 3u);
    rig.roster.checkInvariants(4);

    rig.faults.cut.clear();
    ASSERT_TRUE(rig.roster.pruneParked(0));
    rig.roster.resume(0, 2.0);
    EXPECT_EQ(rig.roster.size(), 4u);
    rig.roster.checkInvariants(4);
}

TEST(Roster, RegrowSkipsALogicalGroupWithNoUsableSoc)
{
    // Logical group 1's SoCs are dead; a regrow to three groups skips
    // it and admits logical group 2.
    RosterRig rig;
    rig.boot(kBoards15);
    rig.roster.shrink(1);
    rig.faults.dead = {5, 6, 7, 8, 9};
    EXPECT_EQ(rig.roster.regrow(3, kBoards15, makeTag), 1u);
    ASSERT_EQ(rig.roster.size(), 2u);
    EXPECT_EQ(rig.roster.state(1).logical, 2u);
    EXPECT_EQ(rig.roster.holderOf(12).index, 1u);
    EXPECT_EQ(rig.roster.regrow(3, kBoards15, makeTag), 0u);
}

TEST(Roster, DropMemberDropsAnEmptiedGroupAndElectionPicksHighest)
{
    RosterRig rig;
    rig.boot({{0, 1, 2}, {3}});
    EXPECT_FALSE(rig.roster.dropMember(0, 0, "crashed"));
    EXPECT_EQ(rig.kind(0), Holder::None);
    EXPECT_EQ(rig.roster.electHighest(0), 2u);
    EXPECT_EQ(rig.roster.members(0).front(), 2u);
    EXPECT_TRUE(rig.roster.dropMember(1, 3, "crashed"));
    EXPECT_EQ(rig.roster.size(), 1u);
    EXPECT_EQ(rig.kind(3), Holder::None);
}

TEST(Roster, CutParksWholeGroupsAndQueuesCutMembers)
{
    RosterRig rig;
    rig.boot({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9, 10}, {11, 12, 13, 14}});
    rig.faults.cut = {2};
    EXPECT_EQ(rig.cut(7, 1.0), (std::vector<SocId>{10}));
    EXPECT_EQ(rig.roster.parked().size(), 1u);
    EXPECT_EQ(rig.roster.holderOf(12).kind, Holder::Parked);
    EXPECT_EQ(rig.roster.holderOf(12).index, 0u);
    EXPECT_EQ(rig.roster.parked()[0].staleGeneration, 7u);
    EXPECT_EQ(rig.roster.parked()[0].state->logical, 2u);
    EXPECT_EQ(rig.kind(10), Holder::Isolated);
    EXPECT_EQ(rig.roster.size(), 2u);
    EXPECT_FALSE(rig.roster.quorumLost());
    rig.roster.checkInvariants(3);
}

TEST(Roster, CutWithoutQuorumKeepsEveryGroupUntilAFullHeal)
{
    RosterRig rig;
    rig.boot(kBoards15);
    rig.faults.cut = {0, 1};
    EXPECT_TRUE(rig.cut(1, 1.0).empty());
    EXPECT_TRUE(rig.roster.parked().empty());
    EXPECT_TRUE(rig.roster.quorumLost());
    EXPECT_EQ(rig.roster.size(), 3u);
    rig.roster.checkInvariants(3);
    EXPECT_FALSE(rig.roster.regainQuorum());
    rig.faults.cut = {1};
    EXPECT_FALSE(rig.roster.regainQuorum());
    EXPECT_TRUE(rig.roster.quorumLost());
    rig.faults.cut.clear();
    EXPECT_TRUE(rig.roster.regainQuorum());
    EXPECT_FALSE(rig.roster.quorumLost());
}

TEST(Roster, HealResumesParkedGroupsAndReleasesTheQueue)
{
    // Board 2's cut parks {11..14} and queues SoC 10 at t = 1. SoC 13
    // dies behind the cut. At the heal (t = 4) the parked group
    // resumes without it and SoC 10 rejoins the first group.
    RosterRig rig;
    rig.boot({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9, 10}, {11, 12, 13, 14}});
    rig.faults.cut = {2};
    rig.cut(1, 1.0);
    rig.faults.dead = {13};
    rig.roster.markCrashed(13, 2.0);
    rig.faults.cut.clear();

    ASSERT_TRUE(rig.roster.pruneParked(0));
    EXPECT_EQ(rig.roster.parked()[0].socs, (std::vector<SocId>{11, 12, 14}));
    EXPECT_EQ(rig.roster.resume(0, 4.0), (std::vector<double>{3.0, 3.0, 3.0}));
    EXPECT_TRUE(rig.roster.parked().empty());
    EXPECT_EQ(rig.roster.holderOf(12).kind, Holder::Active);
    EXPECT_EQ(rig.roster.holderOf(12).index, 2u);
    EXPECT_EQ(rig.kind(13), Holder::None);

    EXPECT_EQ(rig.roster.releaseIsolated(), (std::vector<SocId>{10}));
    EXPECT_EQ(rig.roster.join(10, 4.0).value_or(-1.0), 3.0);
    EXPECT_EQ(rig.roster.holderOf(10).index, 0u);
    rig.roster.checkInvariants(3);
}

TEST(Roster, HealDropsAParkedGroupWhoseMembersAllDied)
{
    RosterRig rig;
    rig.boot(kBoards15);
    rig.faults.cut = {2};
    rig.cut(1, 1.0);
    rig.faults.dead = {10, 11, 12, 13, 14};
    EXPECT_FALSE(rig.roster.pruneParked(0));
    EXPECT_TRUE(rig.roster.parked().empty());
    EXPECT_EQ(rig.kind(12), Holder::None);
}

TEST(Roster, ReleaseIsolatedDropsTheDeadAndKeepsTheCut)
{
    RosterRig rig(20);
    rig.boot({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}});
    rig.faults.cut = {2, 3};
    for (SocId s : {10u, 11u, 15u})
        EXPECT_FALSE(rig.roster.admitRejoin(s, 1.0));
    rig.faults.dead = {11};
    rig.faults.cut = {3};
    EXPECT_EQ(rig.roster.releaseIsolated(), (std::vector<SocId>{10}));
    EXPECT_EQ(rig.roster.isolated(), (std::set<SocId>{15}));
    EXPECT_EQ(rig.kind(10), Holder::None) << "released, not yet joined";
}

TEST(Roster, RejoinOfAHeldSocChangesNothing)
{
    // Board 1's group parks at t = 1 and its SoC 7 crashes at t = 2.
    // SoC 7's rejoin after the cut expired leaves it with its parked
    // group, which resumes with it: one holder throughout.
    RosterRig rig;
    rig.boot(kBoards15);
    rig.faults.cut = {1};
    rig.cut(1, 1.0);
    rig.faults.dead = {7};
    EXPECT_EQ(rig.roster.markCrashed(7, 2.0).kind, Holder::Parked);
    rig.faults.dead.clear();
    rig.faults.cut.clear();

    EXPECT_FALSE(rig.roster.admitRejoin(7, 3.0));
    EXPECT_EQ(rig.kind(7), Holder::Parked);
    EXPECT_FALSE(rig.roster.admitRejoin(0, 3.0)) << "active member";
    EXPECT_TRUE(rig.roster.isolated().empty());
    rig.roster.checkInvariants(3);

    ASSERT_TRUE(rig.roster.pruneParked(0));
    // The crash overwrote SoC 7's lost-contact time; the others keep
    // the cut's.
    EXPECT_EQ(rig.roster.resume(0, 3.0),
              (std::vector<double>{2.0, 2.0, 1.0, 2.0, 2.0}));
    EXPECT_EQ(rig.kind(7), Holder::Active);
    rig.roster.checkInvariants(3);
}

TEST(Roster, QueuedRejoinKeepsTheCutsLostContactTime)
{
    // SoC 10 is stripped at t = 1; a rejoin behind the still-open cut
    // at t = 4 keeps it queued from t = 1.
    RosterRig rig;
    rig.boot({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9, 10}, {11, 12, 13, 14}});
    rig.faults.cut = {2};
    rig.cut(1, 1.0);
    EXPECT_FALSE(rig.roster.admitRejoin(10, 4.0));
    EXPECT_EQ(rig.kind(10), Holder::Isolated);
    rig.faults.cut.clear();
    ASSERT_EQ(rig.roster.releaseIsolated(), (std::vector<SocId>{10}));
    EXPECT_EQ(rig.roster.join(10, 6.0).value_or(-1.0), 5.0);
}

TEST(RosterProperty, RandomEditsKeepOneHolderPerSoc)
{
    // Seeded edit sequences over 20 SoCs in 4 logical groups, each
    // edit in the order the trainer makes it: cut (with its re-map),
    // cut expiry, heal sweep, full crash, mid-wave or leader crash,
    // rejoin, shrink, regrow and power-loss reset. A cut expires
    // apart from the heal sweep, as on the fault clock, so rejoins
    // land while a reachable group is still parked. After every edit
    // each SoC has at most one holder, checked here independently of
    // the roster's own checkInvariants, which runs too.
    constexpr std::size_t kSocs = 20, kGroups = 4, kBoards = 4;
    const std::uint64_t seed = chaosSeed();
    RosterRig rig(kSocs);
    ScriptedFaults &f = rig.faults;
    Roster<Tag> &r = rig.roster;
    const std::vector<std::vector<SocId>> logical =
        core::mapGroups(kSocs, 5, kGroups, core::MapStrategy::IntegrityGreedy)
            .members;
    rig.boot(logical);
    Rng rng(seed);

    const auto expectOneHolder = [&](int edit) {
        std::vector<int> holders(kSocs, 0);
        for (const auto &g : r.active())
            for (SocId s : g.socs) {
                ++holders[s];
                EXPECT_TRUE(f.socAlive(s)) << "edit " << edit;
                EXPECT_TRUE(r.quorumLost() || !f.cut.count(s / 5))
                    << "edit " << edit << ": SoC " << s << " trains "
                    << "behind a cut";
            }
        for (const auto &g : r.parked())
            for (SocId s : g.socs)
                ++holders[s];
        for (SocId s : r.isolated())
            ++holders[s];
        for (SocId s = 0; s < kSocs; ++s)
            ASSERT_LE(holders[s], 1) << "seed " << seed << " edit "
                                     << edit << ": SoC " << s;
        EXPECT_LE(r.size() + r.parked().size(), kGroups);
        r.checkInvariants(kGroups);
    };

    // Weighted towards crashes and rejoins around parked groups.
    enum Op {
        Cut, Expire, Heal, Crash, WaveCrash, Rejoin, Shrink, Regrow, Reset
    };
    const Op kOps[] = {Cut,    Cut,    Expire, Expire,    Heal,
                       Crash,  Crash,  Crash,  WaveCrash, Rejoin,
                       Rejoin, Rejoin, Shrink, Regrow,    Reset};
    // A random SoC that `want` accepts, or kSocs when none does.
    const auto pick = [&](auto want) {
        std::vector<SocId> fit;
        for (SocId s = 0; s < kSocs; ++s)
            if (want(s))
                fit.push_back(s);
        return fit.empty() ? kSocs : fit[rng.uniformInt(fit.size())];
    };
    const auto dead = [&](SocId s) { return f.dead.count(s) > 0; };
    double now = 0.0;
    for (int edit = 0; edit < 2000; ++edit) {
        now += 1.0;
        switch (kOps[rng.uniformInt(std::size(kOps))]) {
        case Cut:
            f.cut.insert(rng.uniformInt(kBoards));
            rig.cut(static_cast<std::uint64_t>(edit), now);
            break;
        case Expire: { // the heal sweep comes later
            if (f.cut.empty())
                break;
            auto it = f.cut.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.uniformInt(f.cut.size())));
            f.cut.erase(it);
            break;
        }
        case Heal: { // the epoch-open heal sweep
            if (r.quorumLost() && !r.regainQuorum())
                break;
            bool changed = false;
            for (std::size_t i = r.parked().size(); i-- > 0;) {
                if (!r.pruneParked(i))
                    continue;
                const auto &socs = r.parked()[i].socs;
                if (std::all_of(socs.begin(), socs.end(),
                                [&](SocId m) { return !f.cut.count(m / 5); })) {
                    r.resume(i, now);
                    changed = true;
                }
            }
            for (SocId back : r.releaseIsolated()) {
                r.join(back, now);
                changed = true;
            }
            if (changed)
                rig.remap();
            break;
        }
        case Crash: { // survivors re-mapped
            const SocId s = pick([&](SocId c) { return !dead(c); });
            if (s == kSocs || (r.holderOf(s).kind == Holder::Active &&
                               r.liveMembers().size() == 1))
                break;
            f.dead.insert(s);
            const Holder h = r.markCrashed(s, now);
            if (h.kind != Holder::Active)
                break;
            // The crashed group goes first when the survivors cannot
            // populate every group.
            if (r.size() > r.liveMembers().size())
                r.dropGroup(h.index);
            rig.remap();
            break;
        }
        case WaveCrash: { // mid-wave or leader: the member list shrinks
            const SocId s = pick([&](SocId c) {
                return r.holderOf(c).kind == Holder::Active;
            });
            const Holder h = r.holderOf(s);
            if (r.size() == 1 && r.members(0).size() == 1)
                break;
            const bool leader = r.members(h.index).front() == s;
            f.dead.insert(s);
            r.markCrashed(s, now);
            if (!r.dropMember(h.index, s, "crashed") && leader)
                r.electHighest(h.index);
            break;
        }
        case Rejoin: {
            const SocId s = pick(dead);
            if (s == kSocs)
                break;
            f.dead.erase(s);
            if (r.admitRejoin(s, now)) {
                r.join(s, now);
                rig.remap();
            }
            break;
        }
        case Shrink:
            r.shrink(1 + rng.uniformInt(r.size()));
            break;
        case Regrow:
            r.regrow(r.size() + rng.uniformInt(kGroups - r.size() + 1),
                     logical, makeTag);
            break;
        case Reset: // then the cut still open at reboot
            if (pick([&](SocId c) { return !dead(c); }) == kSocs)
                break;
            rig.boot(logical);
            rig.cut(static_cast<std::uint64_t>(edit), now);
            break;
        }
        expectOneHolder(edit);
        if (HasFatalFailure())
            return;
    }
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

namespace {

/** Active members of `trainer` on `board` (5 SoCs per board). */
std::size_t
activeOnBoard(const core::SoCFlowTrainer &trainer, std::size_t board)
{
    std::size_t n = 0;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        for (SocId s : trainer.groupMembers(g))
            n += s / 5 == board;
    return n;
}

/** Distinct active members, failing on a SoC held by two groups. */
std::set<SocId>
activeMembers(const core::SoCFlowTrainer &trainer)
{
    std::set<SocId> live;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        for (SocId s : trainer.groupMembers(g))
            EXPECT_TRUE(live.insert(s).second) << "SoC " << s << " twice";
    return live;
}

} // namespace

TEST(MembershipTrainer, PowerLossRestoreUnderOpenCutParksCutBoard)
{
    // Board 2 (SoCs 10-14, all of group 2) is cut at epoch 2 for three
    // epochs and the fleet loses power at epoch 3. The reboot happens
    // behind the open cut: the rebooted group 2 is parked again, not
    // trained through the cut, and returns when the cut heals.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(15, 3), bundle);
    FaultPlan plan;
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 2;
    cut.board = 2;
    cut.durationEpochs = 3;
    plan.add(cut);
    FaultSpec power;
    power.kind = FaultKind::RackPowerLoss;
    power.epoch = 3;
    power.board = 0;
    power.count = 1;
    plan.add(power);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    for (int e = 0; e < 3; ++e)
        trainer.runEpoch();
    const std::vector<std::uint8_t> blob = trainer.saveCheckpoint();
    ASSERT_TRUE(trainer.runEpoch().powerLost);

    trainer.restoreAfterPowerLoss(blob);
    EXPECT_EQ(activeOnBoard(trainer, 2), 0u);
    EXPECT_EQ(trainer.pausedGroupCount(), 1u);
    // Epochs 3 and 4 train behind the cut; epoch 5 opens with the heal.
    for (std::size_t e = 3; e < 5; ++e) {
        EXPECT_FALSE(trainer.runEpoch().paused);
        EXPECT_EQ(activeOnBoard(trainer, 2), 0u)
            << "trained through the cut in epoch " << e;
    }
    ASSERT_FALSE(inj.boardReachable(2));
    trainer.runEpoch();
    EXPECT_EQ(trainer.pausedGroupCount(), 0u);
    EXPECT_EQ(trainer.activeGroups(), 3u);
    EXPECT_EQ(activeMembers(trainer).size(), 15u);
}

TEST(MembershipTrainer, RegrowUnderOpenCutSkipsCutBoard)
{
    // Board 1 (SoCs 5-9, all of group 1) is cut at epoch 1 for three
    // epochs, parking group 1. A shrink to one group and a regrow to
    // three while the cut is open must not re-admit the cut SoCs,
    // which the parked group still holds, and the heal must not leave
    // more active groups than configured.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(15, 3), bundle);
    FaultPlan plan;
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 1;
    cut.board = 1;
    cut.durationEpochs = 3;
    plan.add(cut);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    trainer.runEpoch();
    trainer.runEpoch();
    ASSERT_EQ(trainer.pausedGroupCount(), 1u);

    trainer.setActiveGroups(1);
    trainer.setActiveGroups(3);
    EXPECT_EQ(activeOnBoard(trainer, 1), 0u);
    EXPECT_LE(trainer.activeGroups() + trainer.pausedGroupCount(), 3u);
    // Epochs 2 and 3 train behind the cut; epoch 4 opens with the heal.
    for (std::size_t e = 2; e < 4; ++e) {
        trainer.runEpoch();
        EXPECT_EQ(activeOnBoard(trainer, 1), 0u)
            << "trained through the cut in epoch " << e;
    }
    ASSERT_FALSE(inj.boardReachable(1));
    trainer.runEpoch();
    EXPECT_EQ(trainer.pausedGroupCount(), 0u);
    EXPECT_LE(trainer.activeGroups(), 3u);
    // With the cut healed, a regrow re-admits every idle SoC.
    trainer.setActiveGroups(3);
    EXPECT_EQ(trainer.activeGroups(), 3u);
    EXPECT_EQ(activeMembers(trainer).size(), 15u);
}

TEST(MembershipTrainer, RejoinAndCutFiredTogetherSettleConsistently)
{
    // SoC 2 crashes at epoch 1; its SocRejoin and a cut of board 2
    // (SoCs 10-14, all of group 2) fire in the same clock advance at
    // epoch 3. The rejoin's re-map runs before the partition handler,
    // while board 2's members are still active: the membership must
    // only be consistent once the whole batch is dispatched.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(15, 3), bundle);
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
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 3;
    cut.board = 2;
    cut.durationEpochs = 2;
    plan.add(cut);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    for (int e = 0; e < 4; ++e)
        trainer.runEpoch();
    EXPECT_EQ(activeOnBoard(trainer, 2), 0u);
    EXPECT_EQ(activeMembers(trainer).count(2), 1u);
    trainer.runEpoch();
    trainer.runEpoch(); // the heal sweep opens this epoch
    EXPECT_EQ(activeMembers(trainer).size(), 15u);
}

TEST(MembershipTrainer, RejoinOfParkedSocAfterTheCutExpiredJoinsOnce)
{
    // Board 1 (SoCs 5-9, all of group 1) is cut at epoch 1 for two
    // epochs, parking group 1. SoC 7 crashes in epoch 2's checkpoint
    // phase, after that epoch's heal sweep, and rejoins at epoch 3,
    // when the cut has expired. Its parked group still holds it, so
    // the rejoin leaves it there and the heal sweep resumes the group
    // with it: every SoC is a member exactly once.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(10, 2), bundle);
    FaultPlan plan;
    FaultSpec cut;
    cut.kind = FaultKind::BoardPartition;
    cut.epoch = 1;
    cut.board = 1;
    cut.durationEpochs = 2;
    plan.add(cut);
    FaultSpec crash;
    crash.kind = FaultKind::SocCrash;
    crash.epoch = 2;
    crash.phase = FaultPhase::Checkpoint;
    crash.soc = 7;
    plan.add(crash);
    FaultSpec rejoin;
    rejoin.kind = FaultKind::SocRejoin;
    rejoin.epoch = 3;
    rejoin.soc = 7;
    plan.add(rejoin);
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    for (int e = 0; e < 5; ++e)
        trainer.runEpoch();
    EXPECT_EQ(trainer.pausedGroupCount(), 0u);
    std::size_t members = 0;
    for (std::size_t g = 0; g < trainer.activeGroups(); ++g)
        members += trainer.groupMembers(g).size();
    EXPECT_EQ(members, 10u);
    EXPECT_EQ(activeMembers(trainer).size(), 10u);
}

TEST(MembershipTrainer, RegrowSkipsALogicalGroupWithNoUsableSoc)
{
    // Groups {0-4}, {5-9}, {10-14}. After a shrink to one group, SoCs
    // 5-9 crash while idle. A regrow to three finds no usable SoC in
    // logical group 1 and re-admits logical group 2 instead of
    // stopping there; a regrow that admits nothing changes nothing,
    // not even the generation.
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowTrainer trainer(tinyConfig(15, 3), bundle);
    FaultPlan plan;
    for (SocId s = 5; s < 10; ++s) {
        FaultSpec crash;
        crash.kind = FaultKind::SocCrash;
        crash.epoch = 0;
        crash.soc = s;
        plan.add(crash);
    }
    FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);
    trainer.setActiveGroups(1);
    trainer.runEpoch();
    ASSERT_FALSE(inj.socAlive(7));

    trainer.setActiveGroups(3);
    EXPECT_EQ(trainer.activeGroups(), 2u);
    EXPECT_EQ(activeMembers(trainer),
              (std::set<SocId>{0, 1, 2, 3, 4, 10, 11, 12, 13, 14}));
    const std::uint64_t generation = trainer.generation();
    trainer.setActiveGroups(3);
    EXPECT_EQ(trainer.activeGroups(), 2u);
    EXPECT_EQ(trainer.generation(), generation);
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
