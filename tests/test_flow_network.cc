/**
 * @file
 * Unit and property tests for the max-min fair flow network.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "sim/flow_network.hh"
#include "util/rng.hh"

using namespace socflow;
using namespace socflow::sim;

namespace {

FlowSpec
makeFlow(double bytes, std::vector<ResourceId> path, double start = 0.0,
         double latency = 0.0)
{
    FlowSpec f;
    f.bytes = bytes;
    f.path = std::move(path);
    f.startS = start;
    f.latencyS = latency;
    return f;
}

} // namespace

TEST(FlowNetwork, SingleFlowUsesFullCapacity)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res = net.simulate({makeFlow(1000.0, {r})});
    EXPECT_NEAR(res[0].finishS, 10.0, 1e-9);
    EXPECT_NEAR(res[0].meanRate, 100.0, 1e-9);
}

TEST(FlowNetwork, TwoFlowsShareFairly)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res = net.simulate(
        {makeFlow(1000.0, {r}), makeFlow(1000.0, {r})});
    EXPECT_NEAR(res[0].finishS, 20.0, 1e-9);
    EXPECT_NEAR(res[1].finishS, 20.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowFreesBandwidth)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    // Flow 0: 500 B, flow 1: 1500 B. Both run at 50 B/s until flow 0
    // finishes at t=10; flow 1 then gets 100 B/s for its last 1000 B.
    const auto res = net.simulate(
        {makeFlow(500.0, {r}), makeFlow(1500.0, {r})});
    EXPECT_NEAR(res[0].finishS, 10.0, 1e-9);
    EXPECT_NEAR(res[1].finishS, 20.0, 1e-9);
}

TEST(FlowNetwork, MaxMinWithHeterogeneousPaths)
{
    FlowNetwork net;
    const auto a = net.addResource(100.0, "a");
    const auto b = net.addResource(30.0, "b");
    // Flow 0 uses only a; flow 1 crosses both. Flow 1 is capped at 30
    // by b, so flow 0 gets the remaining 70 on a.
    std::vector<FlowSpec> flows = {makeFlow(700.0, {a}),
                                   makeFlow(300.0, {a, b})};
    std::vector<const FlowSpec *> active = {&flows[0], &flows[1]};
    const auto rates = net.maxMinRates(active);
    EXPECT_NEAR(rates[1], 30.0, 1e-9);
    EXPECT_NEAR(rates[0], 70.0, 1e-9);
}

TEST(FlowNetwork, LateArrivalSharesFromItsStart)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    // Flow 0 starts alone (1000 B). Flow 1 arrives at t=5 (500 B).
    // 0..5: f0 drains 500. 5..x: share 50/50.
    const auto res = net.simulate(
        {makeFlow(1000.0, {r}), makeFlow(500.0, {r}, 5.0)});
    EXPECT_NEAR(res[0].finishS, 15.0, 1e-9);
    EXPECT_NEAR(res[1].finishS, 15.0, 1e-9);
}

TEST(FlowNetwork, IdleGapBetweenArrivals)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res = net.simulate(
        {makeFlow(100.0, {r}), makeFlow(100.0, {r}, 50.0)});
    EXPECT_NEAR(res[0].finishS, 1.0, 1e-9);
    EXPECT_NEAR(res[1].finishS, 51.0, 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowFinishesAtLatency)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res =
        net.simulate({makeFlow(0.0, {r}, 2.0, 0.5)});
    EXPECT_NEAR(res[0].finishS, 2.5, 1e-9);
}

TEST(FlowNetwork, LatencyAddsAfterDrain)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res = net.simulate({makeFlow(100.0, {r}, 0.0, 0.25)});
    EXPECT_NEAR(res[0].finishS, 1.25, 1e-9);
}

TEST(FlowNetwork, MakespanIsMaxFinish)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const double ms = net.makespan(
        {makeFlow(100.0, {r}), makeFlow(400.0, {r})});
    EXPECT_NEAR(ms, 5.0, 1e-9);
}

TEST(FlowNetwork, EmptyFlowSet)
{
    FlowNetwork net;
    net.addResource(10.0, "x");
    EXPECT_EQ(net.makespan({}), 0.0);
    EXPECT_TRUE(net.simulate({}).empty());
}

TEST(FlowNetwork, ResourceAccessors)
{
    FlowNetwork net;
    const auto r = net.addResource(42.0, "mylink");
    EXPECT_EQ(net.numResources(), 1u);
    EXPECT_EQ(net.capacity(r), 42.0);
    EXPECT_EQ(net.name(r), "mylink");
}

TEST(FlowNetworkDeath, NonPositiveCapacityPanics)
{
    FlowNetwork net;
    EXPECT_DEATH(net.addResource(0.0, "bad"), "positive");
}

// --------------------------------------------------------- property set

struct FairnessCase {
    std::size_t flows;
    std::size_t links;
    std::uint64_t seed;
};

class FlowNetworkProperty
    : public ::testing::TestWithParam<FairnessCase>
{
};

/**
 * Conservation property: on a single shared link, total service rate
 * never exceeds capacity, and all traffic eventually drains --
 * total bytes / capacity is a lower bound on the makespan.
 */
TEST_P(FlowNetworkProperty, ConservationAndCompletion)
{
    const auto param = GetParam();
    Rng rng(param.seed);
    FlowNetwork net;
    std::vector<ResourceId> links;
    for (std::size_t i = 0; i < param.links; ++i)
        links.push_back(
            net.addResource(rng.uniform(10.0, 200.0), "l"));

    std::vector<FlowSpec> flows;
    double totalBytes = 0.0;
    for (std::size_t i = 0; i < param.flows; ++i) {
        FlowSpec f;
        f.bytes = rng.uniform(10.0, 5000.0);
        totalBytes += f.bytes;
        f.startS = rng.uniform(0.0, 3.0);
        // Random subset of links, at least one.
        for (std::size_t l = 0; l < param.links; ++l)
            if (rng.bernoulli(0.5))
                f.path.push_back(links[l]);
        if (f.path.empty())
            f.path.push_back(links[rng.uniformInt(param.links)]);
        flows.push_back(f);
    }

    const auto res = net.simulate(flows);
    ASSERT_EQ(res.size(), flows.size());

    double maxCap = 0.0;
    for (std::size_t l = 0; l < param.links; ++l)
        maxCap = std::max(maxCap, net.capacity(links[l]));

    for (std::size_t i = 0; i < res.size(); ++i) {
        // Completion: every flow finishes after it starts.
        EXPECT_GE(res[i].finishS, flows[i].startS);
        // No flow exceeds the fastest link it crosses.
        double cap = 1e300;
        for (auto r : flows[i].path)
            cap = std::min(cap, net.capacity(r));
        EXPECT_LE(res[i].meanRate, cap * (1.0 + 1e-6));
    }

    // Aggregate throughput bound: everything must take at least
    // totalBytes / sum-of-capacities seconds of busy time.
    double capSum = 0.0;
    for (std::size_t l = 0; l < param.links; ++l)
        capSum += net.capacity(links[l]);
    double lastFinish = 0.0;
    for (const auto &r : res)
        lastFinish = std::max(lastFinish, r.finishS);
    EXPECT_GE(lastFinish + 1e-9, totalBytes / capSum);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTopologies, FlowNetworkProperty,
    ::testing::Values(FairnessCase{2, 1, 1}, FairnessCase{5, 2, 2},
                      FairnessCase{8, 3, 3}, FairnessCase{16, 4, 4},
                      FairnessCase{32, 5, 5}, FairnessCase{10, 1, 6},
                      FairnessCase{3, 8, 7}, FairnessCase{20, 2, 8}));

/** Fairness: equal flows on one link finish together. */
TEST(FlowNetworkProperty2, SymmetricFlowsFinishTogether)
{
    for (std::size_t n = 2; n <= 16; n *= 2) {
        FlowNetwork net;
        const auto r = net.addResource(100.0, "link");
        std::vector<FlowSpec> flows;
        for (std::size_t i = 0; i < n; ++i)
            flows.push_back(makeFlow(1000.0, {r}));
        const auto res = net.simulate(flows);
        for (const auto &f : res)
            EXPECT_NEAR(f.finishS, 10.0 * static_cast<double>(n), 1e-6);
    }
}

// ------------------------------------------------- independent oracles

namespace {

/** Random flows over `links` resources: 1-9 hops each. */
std::vector<FlowSpec>
randomFlows(Rng &rng, std::size_t links, std::size_t flows)
{
    std::vector<FlowSpec> out;
    for (std::size_t i = 0; i < flows; ++i) {
        FlowSpec f;
        f.bytes = rng.uniform(10.0, 5000.0);
        const std::size_t hops = 1 + rng.uniformInt(9);
        for (std::size_t h = 0; h < hops; ++h)
            f.path.push_back(rng.uniformInt(links));
        out.push_back(std::move(f));
    }
    return out;
}

/** Capacities from a small set, so fair shares tie across resources
 *  the way symmetric fabric links do. */
FlowNetwork
randomNetwork(Rng &rng, std::size_t links, double gamma)
{
    FlowNetwork net(gamma);
    for (std::size_t l = 0; l < links; ++l)
        net.addResource(10.0 * static_cast<double>(1 + rng.uniformInt(8)),
                        "l");
    return net;
}

std::vector<const FlowSpec *>
pointersTo(const std::vector<FlowSpec> &flows)
{
    std::vector<const FlowSpec *> out;
    for (const auto &f : flows)
        out.push_back(&f);
    return out;
}

struct OracleCase {
    std::size_t flows;
    std::size_t links;
    std::uint64_t seed;
};

class FlowNetworkOracle : public ::testing::TestWithParam<OracleCase>
{
};

} // namespace

/**
 * Max-min fairness certificate that does not trust the solver: with
 * gamma = 0 the allocation must be feasible (no resource carries more
 * than its capacity) and every finite-rate flow must cross a
 * saturated resource on which no flow gets a higher rate -- the
 * bottleneck characterisation of the unique max-min fair allocation.
 */
TEST_P(FlowNetworkOracle, FairnessCertificate)
{
    const auto param = GetParam();
    Rng rng(param.seed);
    const FlowNetwork net = randomNetwork(rng, param.links, 0.0);
    std::vector<FlowSpec> flows =
        randomFlows(rng, param.links, param.flows);
    for (auto &f : flows) {
        // One hop per resource: a flow's load on a resource is then
        // its rate.
        std::sort(f.path.begin(), f.path.end());
        f.path.erase(std::unique(f.path.begin(), f.path.end()),
                     f.path.end());
    }
    const std::vector<double> rates = net.maxMinRates(pointersTo(flows));
    ASSERT_EQ(rates.size(), flows.size());

    std::vector<double> load(param.links, 0.0), maxRate(param.links, 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
        ASSERT_TRUE(std::isfinite(rates[f]));
        ASSERT_GT(rates[f], 0.0);
        for (ResourceId r : flows[f].path) {
            load[r] += rates[f];
            maxRate[r] = std::max(maxRate[r], rates[f]);
        }
    }
    for (ResourceId r = 0; r < param.links; ++r)
        EXPECT_LE(load[r], net.capacity(r) * (1.0 + 1e-12)) << "r=" << r;

    constexpr double kTol = 1e-9;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        bool certified = false;
        for (ResourceId r : flows[f].path) {
            const bool saturated =
                load[r] >= net.capacity(r) * (1.0 - kTol);
            if (saturated && maxRate[r] <= rates[f] * (1.0 + kTol))
                certified = true;
        }
        EXPECT_TRUE(certified) << "flow " << f << " has no bottleneck";
    }
}

namespace {

/** Rates plus the first pass's bottleneck, as one solve reports them. */
struct Solve {
    std::vector<double> rates;
    ResourceId bottleneck = 0;
};

/**
 * The progressive filling the touched-resource solver replaced: every
 * pass scans all registered resources for the lexicographic
 * (share, resourceId) minimum, then freezes the unfrozen flows
 * crossing it in ascending flow order.
 */
Solve
referenceMaxMin(const FlowNetwork &net,
                const std::vector<const FlowSpec *> &active)
{
    const std::size_t n = active.size();
    Solve out;
    out.rates.assign(n, 0.0);
    std::vector<double> residual(net.numResources());
    for (ResourceId r = 0; r < residual.size(); ++r)
        residual[r] = net.capacity(r);
    std::vector<int> users(residual.size(), 0);
    std::vector<bool> frozen(n, false);
    for (const FlowSpec *f : active)
        for (ResourceId r : f->path)
            ++users[r];
    std::size_t remaining = 0;
    for (std::size_t f = 0; f < n; ++f) {
        if (active[f]->path.empty()) {
            out.rates[f] = std::numeric_limits<double>::infinity();
            frozen[f] = true;
        } else {
            ++remaining;
        }
    }
    bool firstPass = true;
    while (remaining > 0) {
        double best_share = std::numeric_limits<double>::infinity();
        ResourceId best = 0;
        for (ResourceId r = 0; r < residual.size(); ++r) {
            if (users[r] <= 0)
                continue;
            const double u = static_cast<double>(users[r]);
            const double share =
                residual[r] * std::pow(u, -net.congestionExponent()) / u;
            if (share < best_share) {
                best_share = share;
                best = r;
            }
        }
        if (firstPass)
            out.bottleneck = best;
        firstPass = false;
        for (std::size_t f = 0; f < n; ++f) {
            const auto &path = active[f]->path;
            if (frozen[f] ||
                std::find(path.begin(), path.end(), best) == path.end())
                continue;
            frozen[f] = true;
            out.rates[f] = best_share;
            --remaining;
            for (ResourceId r : path) {
                residual[r] -= best_share;
                if (residual[r] < 0.0)
                    residual[r] = 0.0;
                --users[r];
            }
        }
    }
    return out;
}

/** FlowNetwork::simulate's event loop over referenceMaxMin. */
std::vector<FlowResult>
referenceSimulate(const FlowNetwork &net,
                  const std::vector<FlowSpec> &flows)
{
    const std::size_t n = flows.size();
    std::vector<FlowResult> results(n);
    std::vector<double> left(n);
    std::vector<bool> arrived(n, false), done(n, false);
    for (std::size_t f = 0; f < n; ++f) {
        left[f] = flows[f].bytes;
        results[f].startS = flows[f].startS;
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return flows[a].startS < flows[b].startS;
                     });
    double now = flows[order.front()].startS;
    std::size_t cursor = 0, doneCount = 0;
    const auto finish = [&](std::size_t f) {
        done[f] = true;
        ++doneCount;
        results[f].finishS = now + flows[f].latencyS;
    };
    while (doneCount < n) {
        while (cursor < n && flows[order[cursor]].startS <= now + 1e-15) {
            const std::size_t f = order[cursor++];
            arrived[f] = true;
            if (left[f] <= 0.0)
                finish(f);
        }
        if (doneCount >= n)
            break;
        std::vector<const FlowSpec *> active;
        std::vector<std::size_t> idx;
        for (std::size_t f = 0; f < n; ++f) {
            if (arrived[f] && !done[f]) {
                active.push_back(&flows[f]);
                idx.push_back(f);
            }
        }
        const double nextArrival =
            cursor < n ? flows[order[cursor]].startS
                       : std::numeric_limits<double>::infinity();
        if (active.empty()) {
            now = nextArrival;
            continue;
        }
        const std::vector<double> rates =
            referenceMaxMin(net, active).rates;
        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < active.size(); ++k)
            if (rates[k] > 0.0)
                dt = std::min(dt, left[idx[k]] / rates[k]);
        dt = std::min(dt, nextArrival - now);
        for (std::size_t k = 0; k < active.size(); ++k)
            left[idx[k]] = std::isfinite(rates[k])
                               ? left[idx[k]] - rates[k] * dt
                               : 0.0;
        now += dt;
        for (std::size_t k = 0; k < active.size(); ++k) {
            const std::size_t f = idx[k];
            if (left[f] <= 1e-9) {
                finish(f);
                const double span = now - flows[f].startS;
                results[f].meanRate =
                    span > 0.0 ? flows[f].bytes / span : 0.0;
            }
        }
    }
    return results;
}

} // namespace

/**
 * Differential oracle: the touched-resource solver reproduces the
 * full-scan solver it replaced bit for bit -- rates, first
 * bottleneck and whole simulations -- with fan-in congestion on and
 * off, staggered starts, zero-byte and empty-path flows, and a path
 * that lists one resource twice.
 */
TEST_P(FlowNetworkOracle, MatchesFullScanSolver)
{
    const auto param = GetParam();
    for (double gamma : {0.0, 0.5}) {
        Rng rng(param.seed);
        const FlowNetwork net = randomNetwork(rng, param.links, gamma);
        std::vector<FlowSpec> flows =
            randomFlows(rng, param.links, param.flows);
        for (auto &f : flows)
            f.startS = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 20.0);
        flows[0].bytes = 0.0;
        flows[flows.size() / 2].path.clear();
        flows.back().path.push_back(flows.back().path.front());

        const auto active = pointersTo(flows);
        ResourceId bottleneck = 0;
        const std::vector<double> rates =
            net.maxMinRates(active, &bottleneck);
        const Solve ref = referenceMaxMin(net, active);
        ASSERT_EQ(rates.size(), ref.rates.size());
        for (std::size_t f = 0; f < rates.size(); ++f)
            EXPECT_EQ(rates[f], ref.rates[f]) << "gamma=" << gamma
                                              << " flow " << f;
        EXPECT_EQ(bottleneck, ref.bottleneck) << "gamma=" << gamma;

        const auto got = net.simulate(flows);
        const auto want = referenceSimulate(net, flows);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t f = 0; f < got.size(); ++f) {
            EXPECT_EQ(got[f].startS, want[f].startS) << "flow " << f;
            EXPECT_EQ(got[f].finishS, want[f].finishS) << "flow " << f;
            EXPECT_EQ(got[f].meanRate, want[f].meanRate) << "flow " << f;
        }
    }
}

// The two largest cases sit above the sizes (128 resources, 256
// flows) at which the solver once switched to a parallel scan.
INSTANTIATE_TEST_SUITE_P(
    RandomTopologies, FlowNetworkOracle,
    ::testing::Values(OracleCase{2, 1, 11}, OracleCase{6, 3, 12},
                      OracleCase{24, 8, 13}, OracleCase{64, 40, 14},
                      OracleCase{256, 300, 15},
                      OracleCase{320, 600, 16}));
