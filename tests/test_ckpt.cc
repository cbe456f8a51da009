/**
 * @file
 * Replicated checkpoint subsystem tests: failure-domain placement,
 * envelope integrity, quorum-read manifests, rack-loss durability of
 * acked writes, torn-write roll-back, replica-loss budgets, and
 * nearest-replica restore routing (DESIGN.md ch. 13).
 */

#include <gtest/gtest.h>

#include <set>

#include "ckpt/placement.hh"
#include "ckpt/replicated_store.hh"
#include "core/checkpoint.hh"
#include "fault/fault.hh"
#include "ps/shard_map.hh"
#include "sim/cluster.hh"

using namespace socflow;

namespace {

/** 3 racks x 2 boards x 2 SoCs = 12 SoCs. */
sim::ClusterConfig
fleetConfig()
{
    sim::ClusterConfig cfg;
    cfg.numRacks = 3;
    cfg.boardsPerRack = 2;
    cfg.socsPerBoard = 2;
    cfg.numSocs = cfg.numRacks * cfg.socsPerRack();
    return cfg;
}

/** Single rack, 5 boards x 2 SoCs. */
sim::ClusterConfig
rackConfig()
{
    sim::ClusterConfig cfg;
    cfg.numSocs = 10;
    cfg.socsPerBoard = 2;
    return cfg;
}

/** FaultModel stub marking a fixed SoC set dead. */
class DeadSet : public fault::FaultModel
{
  public:
    explicit DeadSet(std::set<sim::SocId> dead) : dead(std::move(dead))
    {
    }
    bool socAlive(sim::SocId soc) const override
    {
        return dead.count(soc) == 0;
    }
    double computeFactor(sim::SocId) const override { return 1.0; }
    double linkFactor(sim::BoardId) const override { return 1.0; }
    bool boardReachable(sim::BoardId) const override { return true; }

  private:
    std::set<sim::SocId> dead;
};

std::vector<std::uint8_t>
testBlob(std::uint8_t tag = 7, std::size_t n = 64)
{
    std::vector<std::uint8_t> blob(n);
    for (std::size_t i = 0; i < n; ++i)
        blob[i] = static_cast<std::uint8_t>(tag + i * 13);
    return blob;
}

/** A plan whose only content is a budget-style fault at epoch 0. */
fault::FaultPlan
budgetPlan(fault::FaultKind kind, std::size_t count)
{
    fault::FaultPlan plan;
    fault::FaultSpec s;
    s.kind = kind;
    s.epoch = 0;
    s.count = count;
    plan.add(s);
    return plan;
}

} // namespace

// ---------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------

TEST(CkptPlacement, SpreadsReplicasAcrossDistinctRacks)
{
    sim::Cluster cluster(fleetConfig());
    for (sim::SocId src = 0; src < cluster.config().numSocs; ++src) {
        const auto sites = ckpt::planPlacement(cluster, src, 3);
        ASSERT_EQ(sites.size(), 3u);
        EXPECT_EQ(sites[0].soc, src);
        std::set<sim::RackId> racks;
        for (const auto &s : sites)
            racks.insert(s.rack);
        EXPECT_EQ(racks.size(), 3u)
            << "k=3 from soc " << src << " must span all 3 racks";
    }
}

TEST(CkptPlacement, K2AlwaysSpansTwoRacksFromEverySource)
{
    sim::Cluster cluster(fleetConfig());
    for (sim::SocId src = 0; src < cluster.config().numSocs; ++src) {
        const auto sites = ckpt::planPlacement(cluster, src, 2);
        ASSERT_EQ(sites.size(), 2u);
        EXPECT_NE(sites[0].rack, sites[1].rack)
            << "k=2 copies from soc " << src
            << " must live in two racks";
    }
}

TEST(CkptPlacement, SingleRackFallsBackToDistinctBoards)
{
    sim::Cluster cluster(rackConfig());
    const auto sites = ckpt::planPlacement(cluster, 3, 3);
    ASSERT_EQ(sites.size(), 3u);
    std::set<sim::BoardId> boards;
    for (const auto &s : sites)
        boards.insert(s.board);
    EXPECT_EQ(boards.size(), 3u);
}

TEST(CkptPlacement, SkipsDeadSocsAndStaysDeterministic)
{
    sim::Cluster cluster(fleetConfig());
    // Kill every SoC of rack 1 (socs 4..7): placement must route
    // around the dead rack and still spread over the two live ones.
    DeadSet dead({4, 5, 6, 7});
    const auto a = ckpt::planPlacement(cluster, 0, 3, &dead);
    const auto b = ckpt::planPlacement(cluster, 0, 3, &dead);
    ASSERT_EQ(a.size(), 3u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].soc, b[i].soc) << "placement must replay";
        EXPECT_TRUE(dead.socAlive(a[i].soc));
    }
    std::set<sim::RackId> racks;
    for (const auto &s : a)
        racks.insert(s.rack);
    EXPECT_EQ(racks.size(), 2u) << "both live racks used";
}

TEST(CkptPlacement, ReturnsFewerSitesWhenFleetExhausted)
{
    sim::ClusterConfig cfg;
    cfg.numSocs = 2;
    cfg.socsPerBoard = 2;
    sim::Cluster cluster(cfg);
    EXPECT_EQ(ckpt::planPlacement(cluster, 0, 5).size(), 2u);
}

TEST(CkptPlacement, ShardCheckpointSitesAnchorAtShardOwner)
{
    sim::Cluster cluster(fleetConfig());
    ps::ShardMapConfig mc;
    mc.numShards = 4;
    mc.paramCount = 1000;
    mc.numSocs = cluster.config().numSocs;
    mc.socsPerBoard = cluster.config().socsPerBoard;
    ps::ShardMap map(mc);
    for (std::size_t shard = 0; shard < map.numShards(); ++shard) {
        const auto sites =
            ps::shardCheckpointSites(map, shard, cluster, 2);
        ASSERT_EQ(sites.size(), 2u);
        EXPECT_EQ(sites[0].soc, map.owner(shard));
        EXPECT_NE(sites[0].rack, sites[1].rack)
            << "shard " << shard
            << " replicas must span failure domains";
    }
}

// ---------------------------------------------------------------------
// Envelope format
// ---------------------------------------------------------------------

TEST(CkptEnvelope, RoundTripsPayload)
{
    const auto payload = testBlob();
    const auto sealed = core::sealEnvelope(ckpt::kReplicaMagic, payload);
    EXPECT_EQ(core::openEnvelope(ckpt::kReplicaMagic, sealed), payload);
    EXPECT_TRUE(core::envelopeIntact(ckpt::kReplicaMagic, sealed));
    EXPECT_FALSE(core::envelopeIntact(ckpt::kManifestMagic, sealed));
}

TEST(CkptEnvelope, EmptyPayloadRoundTrips)
{
    const auto sealed = core::sealEnvelope(ckpt::kManifestMagic, {});
    EXPECT_TRUE(
        core::openEnvelope(ckpt::kManifestMagic, sealed).empty());
}

TEST(CkptEnvelope, WrongMagicIsTyped)
{
    const auto sealed = core::sealEnvelope(ckpt::kReplicaMagic, {1, 2});
    EXPECT_THROW(core::openEnvelope(ckpt::kManifestMagic, sealed),
                 core::CheckpointError);
}

TEST(CkptEnvelope, EverySingleByteCorruptionIsDetected)
{
    const auto payload = testBlob(3, 48);
    const auto sealed = core::sealEnvelope(ckpt::kReplicaMagic, payload);
    for (std::size_t i = 0; i < sealed.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            auto bad = sealed;
            bad[i] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_THROW(core::openEnvelope(ckpt::kReplicaMagic, bad),
                         core::CheckpointError)
                << "byte " << i << " bit " << bit
                << " flipped but the envelope still opened";
            EXPECT_FALSE(core::envelopeIntact(ckpt::kReplicaMagic, bad))
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(CkptEnvelope, EveryTruncationIsDetected)
{
    const auto sealed =
        core::sealEnvelope(ckpt::kReplicaMagic, testBlob(5, 32));
    for (std::size_t len = 0; len < sealed.size(); ++len) {
        std::vector<std::uint8_t> cut(sealed.begin(),
                                      sealed.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        EXPECT_THROW(core::openEnvelope(ckpt::kReplicaMagic, cut),
                     core::CheckpointError)
            << "truncated to " << len << " bytes but still opened";
        EXPECT_FALSE(core::envelopeIntact(ckpt::kReplicaMagic, cut))
            << "truncated to " << len << " bytes";
    }
}

// ---------------------------------------------------------------------
// Replicated store
// ---------------------------------------------------------------------

TEST(CkptStore, WriteAcksWithMajorityAndRoundTrips)
{
    sim::Cluster cluster(fleetConfig());
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore store(cluster, sc);
    const auto blob = testBlob();
    const auto receipt = store.write(4, blob);
    EXPECT_TRUE(receipt.acked);
    EXPECT_EQ(receipt.replicasWritten, 2u);
    EXPECT_EQ(receipt.epoch, 4u);
    EXPECT_GT(receipt.writeSeconds, 0.0);
    const auto r = store.restore(0);
    EXPECT_EQ(r.bytes, blob);
    EXPECT_EQ(r.epoch, 4u);
    EXPECT_EQ(r.generation, receipt.generation);
    EXPECT_GT(r.restoreSeconds, 0.0);
}

TEST(CkptStore, AckedWriteSurvivesLossOfAnySingleRack)
{
    // The acceptance guarantee: with k = 2 replicas, destroying any
    // one rack leaves the acked checkpoint restorable -- manifest
    // quorum still readable, data intact. Proven for every rack and
    // every reader.
    const sim::ClusterConfig cfg = fleetConfig();
    const auto blob = testBlob(11);
    for (sim::RackId lost = 0; lost < cfg.numRacks; ++lost) {
        sim::Cluster cluster(cfg);
        ckpt::CkptStoreConfig sc;
        sc.replicas = 2;
        ckpt::ReplicatedCkptStore store(cluster, sc);
        ASSERT_TRUE(store.write(9, blob).acked);
        store.loseRack(lost);
        const auto r = store.restore(2 * cfg.socsPerRack() - 1);
        EXPECT_EQ(r.bytes, blob)
            << "rack " << lost << " loss lost an acked checkpoint";
        EXPECT_EQ(r.epoch, 9u);
    }
}

TEST(CkptStore, TornWriteNotAckedAndRollsBack)
{
    sim::Cluster cluster(fleetConfig());
    // CheckpointFail faults at epoch 2 queue a 2-failure budget:
    // the epoch-1 write of V1 is clean, then after advancing to
    // epoch 2 the V2 write fails at both sites and is not acked.
    fault::FaultPlan plan;
    fault::FaultSpec s;
    s.kind = fault::FaultKind::CheckpointFail;
    s.epoch = 2;
    s.count = 2;
    plan.add(s);
    fault::FaultInjector injector(plan);

    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    sc.faults = &injector;
    ckpt::ReplicatedCkptStore store(cluster, sc);

    const auto blobV1 = testBlob(1);
    const auto blobV2 = testBlob(2);
    injector.advanceTo(fault::FaultPoint::epochEnd(1));
    const auto first = store.write(1, blobV1);
    ASSERT_TRUE(first.acked);

    injector.advanceTo(fault::FaultPoint::epochEnd(2));
    const auto second = store.write(5, blobV2);
    EXPECT_FALSE(second.acked);
    EXPECT_EQ(second.replicasWritten, 0u);

    const auto r = store.restore(0);
    EXPECT_EQ(r.bytes, blobV1)
        << "restore must roll back to the last acked generation";
    EXPECT_EQ(r.generation, first.generation);
    EXPECT_EQ(r.epoch, 1u);
}

TEST(CkptStore, MinorityTornWriteStillAcksAndWins)
{
    sim::Cluster cluster(fleetConfig());
    // One failure out of k=3 copies: still a majority, still acked,
    // and restore serves the NEW generation.
    fault::FaultPlan plan;
    fault::FaultSpec s;
    s.kind = fault::FaultKind::CheckpointFail;
    s.epoch = 2;
    s.count = 1;
    plan.add(s);
    fault::FaultInjector injector(plan);

    ckpt::CkptStoreConfig sc;
    sc.replicas = 3;
    sc.faults = &injector;
    ckpt::ReplicatedCkptStore store(cluster, sc);

    injector.advanceTo(fault::FaultPoint::epochEnd(1));
    ASSERT_TRUE(store.write(1, testBlob(1)).acked);
    injector.advanceTo(fault::FaultPoint::epochEnd(2));
    const auto blobV2 = testBlob(2);
    const auto second = store.write(7, blobV2);
    EXPECT_TRUE(second.acked);
    EXPECT_EQ(second.replicasWritten, 2u);
    const auto r = store.restore(0);
    EXPECT_EQ(r.bytes, blobV2);
    EXPECT_EQ(r.epoch, 7u);
}

TEST(CkptStore, ReplicaLossBudgetDrainsFromInjector)
{
    sim::Cluster cluster(fleetConfig());
    fault::FaultPlan plan =
        budgetPlan(fault::FaultKind::CkptReplicaLoss, 1);
    fault::FaultInjector injector(plan);

    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    sc.faults = &injector;
    ckpt::ReplicatedCkptStore store(cluster, sc);
    const auto blob = testBlob();
    ASSERT_TRUE(store.write(3, blob).acked);
    EXPECT_EQ(store.survivingCopies(), 2u);

    injector.advanceTo(fault::FaultPoint::epochEnd(0));
    EXPECT_EQ(injector.pendingReplicaLosses(), 1u);
    const auto r = store.restore(0); // drains the budget first
    EXPECT_EQ(injector.pendingReplicaLosses(), 0u);
    EXPECT_EQ(store.survivingCopies(), 1u);
    EXPECT_EQ(r.bytes, blob) << "one lost copy of two must not kill "
                                "the checkpoint";
}

TEST(CkptStore, AllReplicasLostIsATypedError)
{
    sim::Cluster cluster(fleetConfig());
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore store(cluster, sc);
    ASSERT_TRUE(store.write(1, testBlob()).acked);
    EXPECT_EQ(store.loseReplicas(99), 2u);
    EXPECT_THROW(store.restore(0), core::CheckpointError);
}

TEST(CkptStore, RestoreBeforeAnyWriteIsATypedError)
{
    sim::Cluster cluster(fleetConfig());
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore store(cluster, sc);
    EXPECT_THROW(store.restore(0), core::CheckpointError);
}

TEST(CkptStore, RestorePrefersNearestSurvivingReplica)
{
    const sim::ClusterConfig cfg = fleetConfig();
    sim::Cluster cluster(cfg);
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    sc.source = 0;
    ckpt::ReplicatedCkptStore store(cluster, sc);
    ASSERT_TRUE(store.write(1, testBlob()).acked);
    const auto &sites = store.placement();
    ASSERT_EQ(sites.size(), 2u);

    // Reading at the source: the local (same-board) copy wins.
    EXPECT_EQ(store.restore(0).replicaSoc, sites[0].soc);
    // Reading next to the remote replica: that rack's copy wins.
    const sim::SocId nearRemote = sites[1].soc;
    EXPECT_EQ(store.restore(nearRemote).replicaSoc, sites[1].soc);
}

TEST(CkptStore, BitFlippedManifestCopyIsDiscardedNotTrusted)
{
    sim::Cluster cluster(fleetConfig());
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore store(cluster, sc);
    const auto blob = testBlob();
    ASSERT_TRUE(store.write(6, blob).acked);
    store.manifestData(0)[30] ^= 0x10;
    const auto r = store.restore(0);
    EXPECT_EQ(r.bytes, blob);
    EXPECT_GE(r.tornCopies, 1u)
        << "the corrupt manifest must be counted, not trusted";
}

TEST(CkptStore, CorruptDataCopyFallsBackToIntactReplica)
{
    sim::Cluster cluster(fleetConfig());
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore store(cluster, sc);
    const auto blob = testBlob();
    ASSERT_TRUE(store.write(6, blob).acked);
    // Corrupt the near (source) data copy; restore at the source must
    // silently fall back to the intact remote replica.
    store.replicaData(0)[40] ^= 0x01;
    const auto r = store.restore(0);
    EXPECT_EQ(r.bytes, blob);
    EXPECT_EQ(r.replicaSoc, store.placement()[1].soc);
}

TEST(CkptStore, EveryManifestByteFlipRaisesOrRollsBackNeverLies)
{
    // Bit-flip fuzz over a whole stored manifest: whatever byte is
    // flipped, restore either serves the intact replica's copy of the
    // SAME bytes or throws a typed error -- it never returns corrupt
    // state.
    sim::Cluster cluster(fleetConfig());
    const auto blob = testBlob(9, 40);
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore probe(cluster, sc);
    ASSERT_TRUE(probe.write(2, blob).acked);
    const std::size_t manifestLen = probe.manifestData(0).size();

    for (std::size_t i = 0; i < manifestLen; ++i) {
        ckpt::ReplicatedCkptStore store(cluster, sc);
        ASSERT_TRUE(store.write(2, blob).acked);
        store.manifestData(0)[i] ^= 0xff;
        store.manifestData(1)[i] ^= 0xff;
        try {
            const auto r = store.restore(0);
            EXPECT_EQ(r.bytes, blob)
                << "manifest byte " << i
                << " flip produced wrong restore bytes";
        } catch (const core::CheckpointError &) {
            // Typed refusal is the other acceptable outcome.
        }
    }
}

TEST(CkptStore, WriteIsPricedThroughTheFlowNetwork)
{
    // A bigger blob must take longer to replicate: the fan-out rides
    // the same contended links as training traffic.
    sim::Cluster cluster(fleetConfig());
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore small(cluster, sc);
    ckpt::ReplicatedCkptStore large(cluster, sc);
    const double tSmall = small.write(1, testBlob(1, 1 << 10)).writeSeconds;
    const double tLarge = large.write(1, testBlob(1, 1 << 20)).writeSeconds;
    EXPECT_GT(tLarge, tSmall);
}
