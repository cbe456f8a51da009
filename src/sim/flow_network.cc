#include "sim/flow_network.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace socflow {
namespace sim {

FlowNetwork::FlowNetwork(double congestion_exponent)
    : congestionExp(congestion_exponent)
{
    SOCFLOW_ASSERT(congestion_exponent >= 0.0,
                   "congestion exponent must be non-negative");
}

ResourceId
FlowNetwork::addResource(double bytes_per_sec, std::string nm)
{
    SOCFLOW_ASSERT(bytes_per_sec > 0.0,
                   "resource capacity must be positive");
    capacities.push_back(bytes_per_sec);
    names.push_back(std::move(nm));
    return capacities.size() - 1;
}

double
FlowNetwork::capacity(ResourceId id) const
{
    SOCFLOW_ASSERT(id < capacities.size(), "bad resource id");
    return capacities[id];
}

const std::string &
FlowNetwork::name(ResourceId id) const
{
    SOCFLOW_ASSERT(id < names.size(), "bad resource id");
    return names[id];
}

std::vector<double>
FlowNetwork::maxMinRates(const std::vector<const FlowSpec *> &active) const
{
    return maxMinRates(active, nullptr);
}

void
FlowNetwork::beginCapture(FlowCapture *sink) const
{
    SOCFLOW_ASSERT(capture == nullptr || sink == nullptr,
                   "nested flow capture");
    capture = sink;
    if (capture && capture->usage.size() != capacities.size())
        capture->usage.resize(capacities.size());
}

void
FlowNetwork::endCapture() const
{
    capture = nullptr;
}

std::vector<double>
FlowNetwork::maxMinRates(const std::vector<const FlowSpec *> &active,
                         ResourceId *first_bottleneck) const
{
    const std::size_t n = active.size();
    std::vector<double> rates(n, 0.0);
    if (n == 0)
        return rates;

    // Dense, ascending-id view of the resources the active set
    // touches. Untouched resources never have users, so scanning this
    // view visits every candidate bottleneck in the order a scan over
    // all registered resources would.
    std::vector<ResourceId> ids;
    for (const FlowSpec *f : active) {
        for (ResourceId r : f->path) {
            SOCFLOW_ASSERT(r < capacities.size(), "bad resource in path");
            ids.push_back(r);
        }
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    const std::size_t m = ids.size();

    // Paths as dense indices (flow f's hops are
    // hops[hopStart[f] .. hopStart[f + 1])) and per-resource user
    // counts; a path listing a resource twice counts twice.
    std::vector<std::size_t> hops, hopStart(n + 1, 0);
    std::vector<int> users(m, 0);
    for (std::size_t f = 0; f < n; ++f) {
        for (ResourceId r : active[f]->path) {
            const std::size_t d = static_cast<std::size_t>(
                std::lower_bound(ids.begin(), ids.end(), r) - ids.begin());
            hops.push_back(d);
            ++users[d];
        }
        hopStart[f + 1] = hops.size();
    }

    // Per-resource flow lists in ascending flow order (resource d's
    // flows are flowsOn[listStart[d] .. listStart[d + 1])).
    std::vector<std::size_t> listStart(m + 1, 0);
    for (std::size_t d = 0; d < m; ++d)
        listStart[d + 1] = listStart[d] + static_cast<std::size_t>(users[d]);
    std::vector<std::size_t> flowsOn(hops.size());
    std::vector<std::size_t> fill(listStart.begin(), listStart.end() - 1);
    for (std::size_t f = 0; f < n; ++f)
        for (std::size_t h = hopStart[f]; h < hopStart[f + 1]; ++h)
            flowsOn[fill[hops[h]]++] = f;

    std::vector<double> residual(m);
    for (std::size_t d = 0; d < m; ++d)
        residual[d] = capacities[ids[d]];

    std::vector<bool> frozen(n, false);
    std::size_t remaining = 0;
    for (std::size_t f = 0; f < n; ++f) {
        if (active[f]->path.empty()) {
            // Flows with no constrained resources drain instantly; use
            // an effectively infinite rate.
            rates[f] = std::numeric_limits<double>::infinity();
            frozen[f] = true;
        } else {
            ++remaining;
        }
    }

    const auto shareOf = [&](std::size_t d) {
        const double u = static_cast<double>(users[d]);
        // Fan-in congestion: aggregate goodput degrades as
        // users^-gamma (gamma = 0: ideal fair sharing).
        return residual[d] * std::pow(u, -congestionExp) / u;
    };

    // Progressive filling: repeatedly saturate the most constrained
    // resource, freezing its flows at the fair share.
    bool firstPass = true;
    while (remaining > 0) {
        // The bottleneck is the lexicographic (share, resourceId)
        // minimum: the ascending scan keeps the first strictly
        // smaller share.
        double best_share = std::numeric_limits<double>::infinity();
        std::size_t best = 0;
        bool found = false;
        for (std::size_t d = 0; d < m; ++d) {
            if (users[d] <= 0)
                continue;
            const double share = shareOf(d);
            if (share < best_share) {
                best_share = share;
                best = d;
                found = true;
            }
        }
        SOCFLOW_ASSERT(found, "unfrozen flows but no used resource");
        if (firstPass) {
            if (first_bottleneck)
                *first_bottleneck = ids[best];
            firstPass = false;
        }

        // Freeze the bottleneck's unfrozen flows in ascending flow
        // order, so every residual sees its subtractions in a fixed
        // order.
        for (std::size_t i = listStart[best]; i < listStart[best + 1];
             ++i) {
            const std::size_t f = flowsOn[i];
            if (frozen[f])
                continue;
            frozen[f] = true;
            rates[f] = best_share;
            --remaining;
            for (std::size_t h = hopStart[f]; h < hopStart[f + 1]; ++h) {
                double &res = residual[hops[h]];
                res -= best_share;
                if (res < 0.0)
                    res = 0.0;
                --users[hops[h]];
            }
        }
    }
    return rates;
}

std::vector<FlowResult>
FlowNetwork::simulate(const std::vector<FlowSpec> &flows) const
{
    const std::size_t n = flows.size();
    std::vector<FlowResult> results(n);
    if (n == 0)
        return results;

    if (capture == nullptr) {
        static obs::Counter &simCalls =
            obs::metrics().counter("flow_network_simulations_total");
        static obs::Counter &simFlows =
            obs::metrics().counter("flow_network_flows_total");
        simCalls.add(1.0);
        simFlows.add(static_cast<double>(n));
    } else {
        ++capture->simulations;
    }

    std::vector<double> remainingBytes(n);
    std::vector<bool> arrived(n, false), done(n, false);
    for (std::size_t f = 0; f < n; ++f) {
        SOCFLOW_ASSERT(flows[f].bytes >= 0.0, "negative flow size");
        remainingBytes[f] = flows[f].bytes;
        results[f].startS = flows[f].startS;
    }

    // Flows sorted by arrival time for the arrival cursor.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return flows[a].startS < flows[b].startS;
                     });

    double now = flows[order.front()].startS;
    std::size_t arrivalCursor = 0;
    std::size_t doneCount = 0;

    while (doneCount < n) {
        // Admit arrivals at or before `now`.
        while (arrivalCursor < n &&
               flows[order[arrivalCursor]].startS <= now + 1e-15) {
            const std::size_t f = order[arrivalCursor++];
            arrived[f] = true;
            if (remainingBytes[f] <= 0.0) {
                done[f] = true;
                ++doneCount;
                results[f].finishS = now + flows[f].latencyS;
                results[f].meanRate = 0.0;
            }
        }
        if (doneCount >= n)
            break;

        // Collect the active set.
        std::vector<const FlowSpec *> active;
        std::vector<std::size_t> activeIdx;
        for (std::size_t f = 0; f < n; ++f) {
            if (arrived[f] && !done[f]) {
                active.push_back(&flows[f]);
                activeIdx.push_back(f);
            }
        }

        const double nextArrival =
            arrivalCursor < n ? flows[order[arrivalCursor]].startS
                              : std::numeric_limits<double>::infinity();

        if (active.empty()) {
            SOCFLOW_ASSERT(arrivalCursor < n,
                           "idle network with pending flows unfinished");
            now = nextArrival;
            continue;
        }

        ResourceId binding = 0;
        const std::vector<double> rates =
            maxMinRates(active, capture ? &binding : nullptr);

        // Time until the first active flow drains.
        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < active.size(); ++k) {
            if (rates[k] <= 0.0)
                continue;
            dt = std::min(dt, remainingBytes[activeIdx[k]] / rates[k]);
        }
        SOCFLOW_ASSERT(dt < std::numeric_limits<double>::infinity(),
                       "active flows but zero aggregate rate");
        dt = std::min(dt, nextArrival - now);

        // Attribution replay: charge the interval to every resource a
        // finite-rate flow crossed, and its full span to the binding
        // constraint the first filling pass identified.
        if (capture && dt > 0.0) {
            std::vector<ResourceUsage> &use = capture->usage;
            std::vector<char> touched(use.size(), 0);
            for (std::size_t k = 0; k < active.size(); ++k) {
                if (!std::isfinite(rates[k]))
                    continue;
                for (ResourceId r : active[k]->path) {
                    use[r].bytes += rates[k] * dt;
                    touched[r] = 1;
                }
            }
            for (ResourceId r = 0; r < use.size(); ++r)
                if (touched[r])
                    use[r].busySeconds += dt;
            use[binding].bindingSeconds += dt;
        }

        // Drain bytes over the interval.
        for (std::size_t k = 0; k < active.size(); ++k) {
            const std::size_t f = activeIdx[k];
            if (!std::isfinite(rates[k])) {
                remainingBytes[f] = 0.0;
                continue;
            }
            remainingBytes[f] -= rates[k] * dt;
        }
        now += dt;

        // Retire drained flows.
        for (std::size_t k = 0; k < active.size(); ++k) {
            const std::size_t f = activeIdx[k];
            if (remainingBytes[f] <= 1e-9) {
                done[f] = true;
                ++doneCount;
                results[f].finishS = now + flows[f].latencyS;
                const double span = now - flows[f].startS;
                results[f].meanRate =
                    span > 0.0 ? flows[f].bytes / span : 0.0;
            }
        }
    }
    return results;
}

double
FlowNetwork::makespan(const std::vector<FlowSpec> &flows) const
{
    double finish = 0.0;
    for (const auto &r : simulate(flows))
        finish = std::max(finish, r.finishS);
    if (!flows.empty() && capture == nullptr) {
        static obs::Histogram &span =
            obs::metrics().histogram("flow_network_makespan_seconds");
        span.observe(finish);
    }
    return finish;
}

} // namespace sim
} // namespace socflow
