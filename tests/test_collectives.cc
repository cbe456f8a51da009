/**
 * @file
 * Tests for timed collectives and the semantic reducers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "collectives/engine.hh"
#include "collectives/reduce.hh"
#include "sim/cluster.hh"
#include "util/rng.hh"

using namespace socflow;
using namespace socflow::collectives;
using socflow::sim::Cluster;
using socflow::sim::ClusterConfig;
using socflow::sim::SocId;

namespace {

Cluster
cluster60()
{
    ClusterConfig cfg;
    cfg.numSocs = 60;
    return Cluster(cfg);
}

std::vector<SocId>
firstSocs(std::size_t n)
{
    std::vector<SocId> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

} // namespace

// ------------------------------------------------------------- timing

TEST(CollectiveEngine, SingleNodeRingIsFree)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const auto s = eng.ringAllReduce({3}, 1e6);
    EXPECT_EQ(s.seconds, 0.0);
    EXPECT_EQ(s.rounds, 0u);
}

TEST(CollectiveEngine, RingRoundCountIsTwoNMinusOne)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const auto s = eng.ringAllReduce(firstSocs(5), 1e6);
    EXPECT_EQ(s.rounds, 8u);
}

TEST(CollectiveEngine, RingWireBytesMatchTheory)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const double bytes = 10e6;
    const std::size_t n = 4;
    const auto s = eng.ringAllReduce(firstSocs(n), bytes);
    // Each of 2(N-1) rounds moves N chunks of size bytes/N.
    EXPECT_NEAR(s.wireBytes, 2.0 * (n - 1) * bytes, 1.0);
}

TEST(CollectiveEngine, ParamServerSlowerThanRingAtScale)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const auto socs = firstSocs(32);
    const double ring = eng.ringAllReduce(socs, 37e6).seconds;
    const double ps = eng.paramServer(socs, 0, 37e6).seconds;
    EXPECT_GT(ps, 4.0 * ring);
}

TEST(CollectiveEngine, ParamServerExcludesServerFromWorkers)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const auto a = eng.paramServer(firstSocs(8), 0, 1e6);
    const auto b = eng.paramServer(firstSocs(8), 7, 1e6);
    EXPECT_NEAR(a.wireBytes, 2.0 * 7 * 1e6, 1.0);
    EXPECT_NEAR(b.wireBytes, 2.0 * 7 * 1e6, 1.0);
}

TEST(CollectiveEngine, TreeHasLogRounds)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const auto s = eng.treeAggregate(firstSocs(8), 1e6);
    // 3 reduce levels + 3 broadcast levels.
    EXPECT_EQ(s.rounds, 6u);
}

TEST(CollectiveEngine, TreeFasterThanStarForLargeN)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const auto socs = firstSocs(32);
    const double tree = eng.treeAggregate(socs, 37e6).seconds;
    const double star = eng.paramServer(socs, 0, 37e6).seconds;
    EXPECT_LT(tree, star);
}

TEST(CollectiveEngine, BroadcastReachesAll)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const auto s = eng.broadcast(0, firstSocs(8), 1e6);
    // 7 receivers, each gets the full payload exactly once.
    EXPECT_NEAR(s.wireBytes, 7e6, 1.0);
}

TEST(CollectiveEngine, BroadcastToSelfIsFree)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const auto s = eng.broadcast(0, {0}, 1e6);
    EXPECT_EQ(s.seconds, 0.0);
}

TEST(CollectiveEngine, ConcurrentRingsSlowerThanIsolated)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    // Two rings that both span the board-0/board-1 boundary, so they
    // contend for the shared NICs.
    std::vector<std::vector<SocId>> rings = {{3, 4, 5}, {2, 6, 7}};
    const double together = eng.concurrentRings(rings, 10e6).seconds;
    const double alone = eng.ringAllReduce(rings[0], 10e6).seconds;
    EXPECT_GT(together, alone);
}

TEST(CollectiveEngine, ConcurrentDisjointBoardsDontContend)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    // Intra-board rings on different boards share nothing.
    std::vector<std::vector<SocId>> rings = {{0, 1, 2}, {5, 6, 7}};
    const double together = eng.concurrentRings(rings, 10e6).seconds;
    const double alone = eng.ringAllReduce(rings[0], 10e6).seconds;
    EXPECT_NEAR(together, alone, alone * 0.05);
}

namespace {

/** FaultModel stub degrading one board's NIC. */
class DegradedBoard : public fault::FaultModel
{
  public:
    DegradedBoard(sim::BoardId board, double factor)
        : board(board), factor(factor)
    {
    }
    bool socAlive(SocId) const override { return true; }
    double computeFactor(SocId) const override { return 1.0; }
    double linkFactor(sim::BoardId b) const override
    {
        return b == board ? factor : 1.0;
    }

  private:
    sim::BoardId board;
    double factor;
};

/**
 * concurrentRings priced the plain way: one makespan per round over
 * the union of the live rings' flows, with degraded-NIC inflation.
 */
CommStats
perRoundRings(const Cluster &c, const fault::FaultModel &faults,
              const std::vector<std::vector<SocId>> &rings, double bytes)
{
    CommStats stats;
    std::size_t maxRounds = 0, maxParticipants = 0;
    for (const auto &ring : rings) {
        if (ring.size() > 1) {
            maxRounds = std::max(maxRounds, 2 * (ring.size() - 1));
            maxParticipants = std::max(maxParticipants, ring.size());
        }
    }
    for (std::size_t round = 0; round < maxRounds; ++round) {
        std::vector<sim::FlowSpec> flows;
        for (const auto &ring : rings) {
            if (ring.size() <= 1 || round >= 2 * (ring.size() - 1))
                continue;
            const double chunk = bytes / static_cast<double>(ring.size());
            for (std::size_t i = 0; i < ring.size(); ++i) {
                const SocId src = ring[i];
                const SocId dst = ring[(i + 1) % ring.size()];
                sim::FlowSpec f = c.transfer(src, dst, chunk);
                if (c.board(src) != c.board(dst)) {
                    const double lf =
                        std::min(faults.linkFactor(c.board(src)),
                                 faults.linkFactor(c.board(dst)));
                    if (lf > 0.0 && lf < 1.0)
                        f.bytes /= lf;
                }
                flows.push_back(f);
            }
            stats.wireBytes += chunk * static_cast<double>(ring.size());
        }
        stats.seconds += c.network().makespan(flows) +
                         c.roundOverheadS(maxParticipants);
        ++stats.rounds;
    }
    return stats;
}

} // namespace

/**
 * concurrentRings solves each distinct live-ring set once; its stats
 * must still equal a per-round solve bit for bit, and an armed flow
 * capture must see the same per-round resource usage.
 */
TEST(CollectiveEngine, ConcurrentRingsMatchPerRoundSolve)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    const DegradedBoard faults(1, 0.4);
    eng.setFaultModel(&faults);
    // Unequal sizes finish at rounds 2, 4 and 8; the size-1 ring
    // never runs. Rings cross the degraded board-1 NIC.
    const std::vector<std::vector<SocId>> rings = {
        {3, 4, 5}, {2, 6, 7, 8, 11}, {12, 13}, {20}};
    const double bytes = 7.5e6;

    const CommStats got = eng.concurrentRings(rings, bytes);
    const CommStats want = perRoundRings(c, faults, rings, bytes);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.wireBytes, want.wireBytes);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.rounds, 8u);

    sim::FlowCapture gotCap, wantCap;
    c.network().beginCapture(&gotCap);
    const CommStats captured = eng.concurrentRings(rings, bytes);
    c.network().endCapture();
    c.network().beginCapture(&wantCap);
    perRoundRings(c, faults, rings, bytes);
    c.network().endCapture();
    EXPECT_EQ(captured.seconds, got.seconds);
    EXPECT_EQ(gotCap.simulations, wantCap.simulations);
    ASSERT_EQ(gotCap.usage.size(), wantCap.usage.size());
    for (std::size_t r = 0; r < gotCap.usage.size(); ++r) {
        EXPECT_EQ(gotCap.usage[r].busySeconds,
                  wantCap.usage[r].busySeconds) << "r=" << r;
        EXPECT_EQ(gotCap.usage[r].bytes, wantCap.usage[r].bytes)
            << "r=" << r;
        EXPECT_EQ(gotCap.usage[r].bindingSeconds,
                  wantCap.usage[r].bindingSeconds) << "r=" << r;
    }
}

TEST(CollectiveEngine, ZeroBytesIsFree)
{
    Cluster c = cluster60();
    CollectiveEngine eng(c);
    EXPECT_EQ(eng.ringAllReduce(firstSocs(4), 0.0).seconds, 0.0);
    EXPECT_EQ(eng.paramServer(firstSocs(4), 0, 0.0).seconds, 0.0);
    EXPECT_EQ(eng.treeAggregate(firstSocs(4), 0.0).seconds, 0.0);
}

// ------------------------------------------------------------ reducers

TEST(Reduce, VecAddAndScale)
{
    std::vector<float> a = {1, 2, 3};
    vecAdd(a, {10, 20, 30});
    EXPECT_EQ(a, (std::vector<float>{11, 22, 33}));
    vecScale(a, 0.5f);
    EXPECT_EQ(a, (std::vector<float>{5.5f, 11, 16.5f}));
}

TEST(Reduce, AllReduceAverage)
{
    std::vector<float> a = {1, 2}, b = {3, 6}, c = {5, 4};
    std::vector<std::vector<float> *> ptrs = {&a, &b, &c};
    allReduceAverage(ptrs);
    for (auto *v : ptrs) {
        EXPECT_FLOAT_EQ((*v)[0], 3.0f);
        EXPECT_FLOAT_EQ((*v)[1], 4.0f);
    }
}

TEST(Reduce, WeightedAverage)
{
    std::vector<float> a = {0, 10}, b = {10, 0};
    std::vector<const std::vector<float> *> vs = {&a, &b};
    std::vector<float> out;
    weightedAverage(vs, {3.0, 1.0}, out);
    EXPECT_FLOAT_EQ(out[0], 2.5f);
    EXPECT_FLOAT_EQ(out[1], 7.5f);
}

TEST(Reduce, TopKSelectsLargestMagnitudes)
{
    std::vector<float> grad = {0.1f, -5.0f, 0.2f, 3.0f, -0.05f};
    std::vector<float> residual(5, 0.0f);
    const SparseGrad s = compressTopK(grad, residual, 0.4);
    ASSERT_EQ(s.indices.size(), 2u);
    EXPECT_EQ(s.indices[0], 1u);
    EXPECT_EQ(s.indices[1], 3u);
    EXPECT_FLOAT_EQ(s.values[0], -5.0f);
    EXPECT_FLOAT_EQ(s.values[1], 3.0f);
    // Residual keeps the unsent entries.
    EXPECT_FLOAT_EQ(residual[0], 0.1f);
    EXPECT_FLOAT_EQ(residual[1], 0.0f);
    EXPECT_FLOAT_EQ(residual[4], -0.05f);
}

TEST(Reduce, TopKErrorFeedbackAccumulates)
{
    // A small entry must eventually be sent once its residual grows.
    std::vector<float> residual(4, 0.0f);
    const std::vector<float> grad = {1.0f, 0.3f, 0.0f, 0.0f};
    bool smallSent = false;
    for (int iter = 0; iter < 5; ++iter) {
        const SparseGrad s = compressTopK(grad, residual, 0.25);
        for (std::size_t idx : s.indices)
            if (idx == 1)
                smallSent = true;
    }
    EXPECT_TRUE(smallSent);
}

TEST(Reduce, TopKNoMassLost)
{
    Rng rng(5);
    std::vector<float> grad(100), residual(100, 0.0f);
    for (auto &g : grad)
        g = static_cast<float>(rng.gaussian());
    std::vector<float> sent(100, 0.0f);
    // One round: sent + residual == grad exactly.
    const SparseGrad s = compressTopK(grad, residual, 0.1);
    applySparse(s, sent);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_NEAR(sent[i] + residual[i], grad[i], 1e-6);
}

TEST(Reduce, ApplySparse)
{
    std::vector<float> dense(4, 1.0f);
    SparseGrad s;
    s.indices = {1, 3};
    s.values = {2.0f, -1.0f};
    applySparse(s, dense);
    EXPECT_EQ(dense, (std::vector<float>{1, 3, 1, 0}));
}

TEST(Reduce, SparseWireBytes)
{
    SparseGrad s;
    s.indices = {0, 1, 2};
    s.values = {1, 2, 3};
    EXPECT_EQ(s.wireBytes(), 24.0);
}

TEST(ReduceDeath, MismatchedSizesPanic)
{
    std::vector<float> a = {1.0f};
    EXPECT_DEATH(vecAdd(a, {1.0f, 2.0f}), "mismatch");
}

// ---------------------------------------- property: ratio sweep (DGC)

class TopKRatio : public ::testing::TestWithParam<double>
{
};

TEST_P(TopKRatio, KeepsCeilOfRatio)
{
    const double ratio = GetParam();
    Rng rng(11);
    std::vector<float> grad(64), residual(64, 0.0f);
    for (auto &g : grad)
        g = static_cast<float>(rng.gaussian());
    const SparseGrad s = compressTopK(grad, residual, ratio);
    const std::size_t expect = static_cast<std::size_t>(
        std::ceil(ratio * 64.0));
    EXPECT_EQ(s.indices.size(), std::max<std::size_t>(1, expect));
}

INSTANTIATE_TEST_SUITE_P(Ratios, TopKRatio,
                         ::testing::Values(0.01, 0.05, 0.1, 0.25, 0.5,
                                           1.0));
