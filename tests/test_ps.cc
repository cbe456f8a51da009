/**
 * @file
 * Sharded parameter-server tests: shard-map geometry and rendezvous
 * failover, the per-endpoint flow breakdown and the monolithic-incast
 * regression anchor, the hard staleness bound, generation fencing,
 * CRC retransmit vs typed drop, acked-push durability across
 * failover, hot-shard rebalancing, and deterministic replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "collectives/engine.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "ps/shard_map.hh"
#include "ps/sharded_ps.hh"

using namespace socflow;
using namespace socflow::ps;

namespace {

data::DataBundle
tinyBundle()
{
    data::SyntheticParams p;
    p.name = "ps";
    p.classes = 4;
    p.channels = 1;
    p.height = 8;
    p.width = 8;
    p.trainSamples = 256;
    p.testSamples = 96;
    p.noise = 0.3;
    p.seed = 909;
    return data::makeSynthetic(p);
}

ShardedPsConfig
tinyConfig(std::size_t socs = 10, std::size_t shards = 2)
{
    ShardedPsConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = socs;
    cfg.numShards = shards;
    cfg.staleness = 2;
    cfg.globalBatch = 16;
    cfg.sgd.learningRate = 0.05;
    // Stale gradients + heavy momentum oscillate at this tiny scale
    // (the SSP baseline shows the same trajectory); the tests here
    // probe the PS mechanics, not the optimizer dynamics.
    cfg.sgd.momentum = 0.0;
    return cfg;
}

/** One PsServerCrash landing mid-epoch (step granularity). */
fault::FaultPlan
serverCrashPlan(sim::SocId server, std::size_t epoch, std::size_t step)
{
    fault::FaultPlan plan;
    fault::FaultSpec s;
    s.kind = fault::FaultKind::PsServerCrash;
    s.epoch = epoch;
    s.step = step;
    s.soc = server;
    plan.add(s);
    return plan;
}

fault::FaultPlan
corruptPlan(std::size_t burst, std::size_t epoch = 1)
{
    fault::FaultPlan plan;
    fault::FaultSpec s;
    s.kind = fault::FaultKind::GradCorrupt;
    s.epoch = epoch;
    s.count = burst;
    plan.add(s);
    return plan;
}

} // namespace

// ---------------------------------------------------------------------
// Shard map
// ---------------------------------------------------------------------

TEST(ShardMap, RangesPartitionTheParameterVector)
{
    ShardMap map(ShardMapConfig{8, 1000, 60, 5});
    EXPECT_EQ(map.numShards(), 8u);
    std::size_t at = 0;
    for (std::size_t s = 0; s < map.numShards(); ++s) {
        EXPECT_EQ(map.range(s).begin, at);
        at = map.range(s).end;
        EXPECT_EQ(map.shardOf(map.range(s).begin), s);
    }
    EXPECT_EQ(at, 1000u);
    // Near-equal: 1000 / 8 exactly.
    for (std::size_t s = 0; s < map.numShards(); ++s)
        EXPECT_EQ(map.range(s).count(), 125u);
}

TEST(ShardMap, ServersAreFirstSocOfEachBoardCappedAtBoards)
{
    // 32 SoCs at 5 per board = 6 full boards; 8 shards fold onto 6
    // per-board servers.
    ShardMap map(ShardMapConfig{8, 100, 32, 5});
    const auto &pool = map.servers();
    ASSERT_EQ(pool.size(), 6u);
    for (std::size_t b = 0; b < pool.size(); ++b)
        EXPECT_EQ(pool[b], b * 5);
    for (std::size_t s = 0; s < map.numShards(); ++s) {
        EXPECT_NE(std::find(pool.begin(), pool.end(), map.owner(s)),
                  pool.end());
    }
}

TEST(ShardMap, FailoverMovesOnlyOrphanedShardsDeterministically)
{
    ShardMap a(ShardMapConfig{4, 400, 20, 5});
    ShardMap b(ShardMapConfig{4, 400, 20, 5});
    const sim::SocId dead = a.owner(0);
    const auto usable = [dead](sim::SocId s) { return s != dead; };

    std::vector<std::size_t> expectMoved = a.shardsOwnedBy(dead);
    const auto movesA = a.failover(usable);
    const auto movesB = b.failover(usable);

    ASSERT_EQ(movesA.size(), expectMoved.size());
    ASSERT_EQ(movesA.size(), movesB.size());
    for (std::size_t i = 0; i < movesA.size(); ++i) {
        // Deterministic rendezvous pick: both maps agree.
        EXPECT_EQ(movesA[i].shard, movesB[i].shard);
        EXPECT_EQ(movesA[i].to, movesB[i].to);
        EXPECT_NE(movesA[i].to, dead);
    }
    // Healthy shards never churn.
    for (std::size_t s = 0; s < a.numShards(); ++s) {
        if (std::find(expectMoved.begin(), expectMoved.end(), s) ==
            expectMoved.end())
            EXPECT_EQ(a.owner(s), b.owner(s));
        EXPECT_TRUE(usable(a.owner(s)));
    }
    // One generation bump per move; fenced count still zero.
    EXPECT_EQ(a.gate().current(), movesA.size());
    EXPECT_EQ(a.movesTotal(), movesA.size());
    EXPECT_TRUE(a.orphaned().empty());
}

TEST(ShardMap, NoUsableCandidateLeavesOrphans)
{
    ShardMap map(ShardMapConfig{2, 100, 10, 5});
    const auto moves = map.failover([](sim::SocId) { return false; });
    EXPECT_TRUE(moves.empty());
    EXPECT_EQ(map.orphaned().size(), map.numShards());
    EXPECT_EQ(map.gate().current(), 0u);
}

TEST(ShardMap, RebalanceBumpsGenerationOnlyOnRealMoves)
{
    ShardMap map(ShardMapConfig{2, 100, 10, 5});
    const sim::SocId other =
        map.owner(0) == map.servers()[0] ? map.servers()[1]
                                         : map.servers()[0];
    EXPECT_TRUE(map.rebalance(0, other));
    EXPECT_EQ(map.owner(0), other);
    EXPECT_EQ(map.gate().current(), 1u);
    // Already there: no-op, no bump.
    EXPECT_FALSE(map.rebalance(0, other));
    EXPECT_EQ(map.gate().current(), 1u);
}

// ---------------------------------------------------------------------
// Per-endpoint flow breakdown + incast regression anchor
// ---------------------------------------------------------------------

TEST(PsFlowBreakdown, MonolithicIncastAnchorAndShardedRelief)
{
    sim::ClusterConfig cc;
    cc.numSocs = 32;
    sim::Cluster cluster(cc);
    collectives::CollectiveEngine engine(cluster);
    std::vector<sim::SocId> all(32);
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    const double vggBytes = 37e6;

    // The paper's §2.3 anchor: one server SoC under 31-way incast
    // lands near the reported 20.6 s.
    const collectives::CommStats mono =
        engine.paramServer(all, 0, vggBytes);
    EXPECT_GT(mono.seconds, 20.6 * 0.6);
    EXPECT_LT(mono.seconds, 20.6 * 1.4);

    // A single-endpoint sharded exchange is the *same* exchange:
    // bit-identical seconds, and the endpoint shows the full fan-in.
    const collectives::PsExchange detailed =
        engine.shardedParamServer(all, {0}, {vggBytes}, {vggBytes});
    EXPECT_DOUBLE_EQ(detailed.stats.seconds, mono.seconds);
    EXPECT_DOUBLE_EQ(detailed.stats.wireBytes, mono.wireBytes);
    ASSERT_EQ(detailed.endpoints.size(), 1u);
    EXPECT_EQ(detailed.endpoints[0].server, 0u);
    EXPECT_EQ(detailed.endpoints[0].fanIn, 31u);
    EXPECT_DOUBLE_EQ(detailed.endpoints[0].pushBytes, vggBytes * 31);
    EXPECT_GT(detailed.endpoints[0].pushSeconds, 0.0);
    EXPECT_GT(detailed.endpoints[0].pullSeconds, 0.0);

    // Splitting the same bytes across per-board shard endpoints
    // escapes the collapse: substantially below the monolithic time,
    // and every endpoint reports its own drain.
    const std::size_t nServers = std::min<std::size_t>(8, cc.numBoards());
    std::vector<sim::SocId> servers;
    for (std::size_t s = 0; s < nServers; ++s)
        servers.push_back(s * cc.socsPerBoard);
    const std::vector<double> perShard(
        nServers, vggBytes / static_cast<double>(nServers));
    const collectives::PsExchange sharded =
        engine.shardedParamServer(all, servers, perShard, perShard);
    EXPECT_LT(sharded.stats.seconds, 0.5 * mono.seconds);
    ASSERT_EQ(sharded.endpoints.size(), nServers);
    for (const auto &ep : sharded.endpoints) {
        EXPECT_GT(ep.pushSeconds, 0.0);
        EXPECT_LE(ep.pushSeconds, sharded.stats.seconds);
    }
}

TEST(PsFlowBreakdown, ChainReplicationAddsWireTraffic)
{
    sim::ClusterConfig cc;
    cc.numSocs = 20;
    sim::Cluster cluster(cc);
    collectives::CollectiveEngine engine(cluster);
    std::vector<sim::SocId> all(20);
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    const std::vector<sim::SocId> servers{0, 5};
    const std::vector<double> bytes{1e6, 1e6};

    const collectives::PsExchange plain =
        engine.shardedParamServer(all, servers, bytes, bytes, false);
    const collectives::PsExchange replicated =
        engine.shardedParamServer(all, servers, bytes, bytes, true);
    EXPECT_GT(replicated.stats.wireBytes, plain.stats.wireBytes);
    EXPECT_GE(replicated.stats.seconds, plain.stats.seconds);
}

// ---------------------------------------------------------------------
// Trainer: staleness bound, durability, fencing, CRC, rebalance
// ---------------------------------------------------------------------

TEST(ShardedPs, LearnsAndRecordsSaneEpochs)
{
    data::DataBundle b = tinyBundle();
    ShardedPsTrainer trainer(tinyConfig(), b);
    const double acc0 = trainer.testAccuracy();
    for (int e = 0; e < 4; ++e) {
        const core::EpochRecord rec = trainer.runEpoch();
        EXPECT_GT(rec.simSeconds, 0.0);
        EXPECT_GT(rec.energyJoules, 0.0);
        EXPECT_FALSE(rec.paused);
    }
    EXPECT_GT(trainer.testAccuracy(), acc0 + 0.2);
    EXPECT_EQ(trainer.methodName(), "Sharded-PS");
    EXPECT_EQ(trainer.epochsDone(), 4u);
    EXPECT_EQ(trainer.pushesAcked(), trainer.pushesApplied());
}

TEST(ShardedPs, StalenessBoundHoldsByConstruction)
{
    data::DataBundle b = tinyBundle();
    for (std::size_t bound : {std::size_t{0}, std::size_t{3}}) {
        ShardedPsConfig cfg = tinyConfig();
        cfg.staleness = bound;
        ShardedPsTrainer trainer(cfg, b);
        fault::FaultPlan plan = serverCrashPlan(0, 1, 4);
        fault::FaultInjector inj(plan);
        trainer.attachFaultInjector(&inj);
        for (int e = 0; e < 4; ++e)
            trainer.runEpoch();
        // Enforced pre-compute, so even under failover no gradient
        // was ever computed against an over-stale snapshot.
        EXPECT_LE(trainer.maxSnapshotAgeAtCompute(), bound);
        EXPECT_GT(trainer.stalenessBlocks(), 0u);
    }
}

TEST(ShardedPs, MidEpochServerCrashFailsOverAndFences)
{
    data::DataBundle b = tinyBundle();
    ShardedPsTrainer trainer(tinyConfig(), b);
    const sim::SocId deadServer = trainer.shardMap().owner(0);
    fault::FaultPlan plan = serverCrashPlan(deadServer, 1, 3);
    fault::FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    core::EpochRecord rec1 = trainer.runEpoch();  // fault-free
    EXPECT_EQ(trainer.failoversTotal(), 0u);
    core::EpochRecord rec2 = trainer.runEpoch();  // crash at step 3
    EXPECT_GT(trainer.failoversTotal(), 0u);
    EXPECT_EQ(rec2.crashes, 1u);
    EXPECT_GT(rec2.recoverySeconds, 0.0);
    EXPECT_FALSE(rec2.paused);

    // Every shard re-homed onto a live server...
    for (std::size_t s = 0; s < trainer.shardMap().numShards(); ++s)
        EXPECT_NE(trainer.shardMap().owner(s), deadServer);
    // ...stale-stamped pushes were fenced, not folded in...
    EXPECT_GT(trainer.fencedPushes(), 0u);
    EXPECT_EQ(trainer.shardMap().gate().fencedCount(),
              trainer.fencedPushes());
    // ...and no acked push was lost.
    EXPECT_EQ(trainer.pushesAcked(), trainer.pushesApplied());

    // Training continues post-failover.
    core::EpochRecord rec3 = trainer.runEpoch();
    EXPECT_FALSE(rec3.paused);
    EXPECT_GT(rec1.simSeconds, 0.0);
    EXPECT_GT(rec3.simSeconds, 0.0);
}

TEST(ShardedPs, AllServersDeadPausesWithoutLosingState)
{
    data::DataBundle b = tinyBundle();
    ShardedPsTrainer trainer(tinyConfig(10, 2), b);
    fault::FaultPlan plan;
    for (sim::SocId server : trainer.shardMap().servers()) {
        fault::FaultSpec s;
        s.kind = fault::FaultKind::PsServerCrash;
        s.epoch = 1;
        s.soc = server;
        plan.add(s);
    }
    fault::FaultInjector inj(plan);
    trainer.attachFaultInjector(&inj);

    trainer.runEpoch();
    const std::vector<float> before = trainer.globalWeights();
    const core::EpochRecord rec = trainer.runEpoch();
    EXPECT_TRUE(rec.paused);
    EXPECT_DOUBLE_EQ(rec.simSeconds,
                     collectives::SyncPolicy{}.timeoutS);
    // A paused epoch trains nothing and touches no weights.
    EXPECT_EQ(trainer.globalWeights(), before);
}

TEST(ShardedPs, CrcRetransmitWithinBudgetTypedDropBeyond)
{
    data::DataBundle b = tinyBundle();

    // Burst of 2 <= maxRetries (3): retransmits, push still acked.
    ShardedPsTrainer mild(tinyConfig(), b);
    fault::FaultInjector mildInj(corruptPlan(2));
    mild.attachFaultInjector(&mildInj);
    core::EpochRecord rec = mild.runEpoch();
    rec = mild.runEpoch();
    EXPECT_EQ(mild.retransmitsTotal(), 2u);
    EXPECT_EQ(mild.syncFailuresTotal(), 0u);
    EXPECT_EQ(rec.chunksRetransmitted, 2u);
    EXPECT_GT(rec.recoverySeconds, 0.0);

    // Burst of 6 outlasts the budget on the first push (3 retransmits
    // then a typed drop consuming 4) and the remaining 2 retransmit on
    // the next push: never a silent wrong sum.
    ShardedPsTrainer harsh(tinyConfig(), b);
    fault::FaultInjector harshInj(corruptPlan(6));
    harsh.attachFaultInjector(&harshInj);
    harsh.runEpoch();
    rec = harsh.runEpoch();
    EXPECT_EQ(harsh.syncFailuresTotal(), 1u);
    EXPECT_EQ(harsh.retransmitsTotal(), 5u);
    EXPECT_EQ(rec.syncFailures, 1u);
    EXPECT_EQ(harsh.pushesAcked(), harsh.pushesApplied());
}

TEST(ShardedPs, HotShardRebalancesDeterministically)
{
    data::DataBundle b = tinyBundle();
    // 3 shards on 2 per-board servers: one server owns 2/3 of the
    // parameters, its NIC drains ~2x slower, and the 1.5x factor
    // fires a planned migration of the smallest shard.
    ShardedPsConfig cfg = tinyConfig(10, 3);
    ShardedPsTrainer a(cfg, b);
    ShardedPsTrainer c(cfg, b);
    a.runEpoch();
    c.runEpoch();
    EXPECT_GT(a.rebalancesTotal(), 0u);
    EXPECT_EQ(a.rebalancesTotal(), c.rebalancesTotal());
    // Planned moves are coordinated view changes: nothing fenced.
    EXPECT_EQ(a.fencedPushes(), 0u);
    EXPECT_EQ(a.timelineHash(), c.timelineHash());
}

TEST(ShardedPs, FaultedReplayIsBitExact)
{
    data::DataBundle b = tinyBundle();
    const auto run = [&b](std::uint64_t &hash) {
        ShardedPsTrainer trainer(tinyConfig(), b);
        fault::FaultPlan plan =
            serverCrashPlan(trainer.shardMap().owner(0), 1, 2);
        fault::FaultSpec cut;
        cut.kind = fault::FaultKind::BoardPartition;
        cut.epoch = 2;
        cut.board = 1;
        cut.durationEpochs = 1;
        plan.add(cut);
        fault::FaultInjector inj(plan);
        trainer.attachFaultInjector(&inj);
        for (int e = 0; e < 4; ++e)
            trainer.runEpoch();
        hash = trainer.timelineHash();
        return trainer.globalWeights();
    };
    std::uint64_t h1 = 0, h2 = 0;
    const std::vector<float> w1 = run(h1);
    const std::vector<float> w2 = run(h2);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(w1, w2);
}
