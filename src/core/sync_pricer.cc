#include "core/sync_pricer.hh"

#include <algorithm>

#include "obs/profiler.hh"

namespace socflow {
namespace core {

sim::FlowCapture
captureFlows(const sim::FlowNetwork &net,
             const std::function<void()> &price)
{
    sim::FlowCapture cap;
    net.beginCapture(&cap);
    price();
    net.endCapture();
    return cap;
}

void
foldCapture(std::vector<sim::ResourceUsage> &use,
            const sim::FlowCapture &cap, double scale)
{
    if (use.size() < cap.usage.size())
        use.resize(cap.usage.size());
    for (std::size_t r = 0; r < cap.usage.size(); ++r) {
        const sim::ResourceUsage &u = cap.usage[r];
        use[r].busySeconds += u.busySeconds * scale;
        use[r].bytes += u.bytes * scale;
        use[r].bindingSeconds += u.bindingSeconds * scale;
    }
}

void
noteResourceUsage(const sim::FlowNetwork &net,
                  const std::vector<sim::ResourceUsage> &use)
{
    for (sim::ResourceId r = 0; r < use.size(); ++r) {
        const sim::ResourceUsage &u = use[r];
        if (u.busySeconds <= 0.0)
            continue;
        obs::profiler().noteResourceUsage(net.name(r), net.capacity(r),
                                          u.busySeconds, u.bytes,
                                          u.bindingSeconds);
    }
}

SyncSchedule
SyncPricer::priceStep() const
{
    if (planning)
        return planSyncSchedule(engine, mapping, plan, paramBytes);
    SyncSchedule sched;
    sched.total = unplannedSyncCost(engine, mapping, paramBytes);
    sched.waveSeconds.assign(1, sched.total.seconds);
    return sched;
}

double
SyncPricer::priceLeaders() const
{
    const auto &groups = mapping.members;
    if (groups.size() <= 1)
        return 0.0;
    std::vector<sim::SocId> leaders;
    for (const auto &g : groups)
        leaders.push_back(g.front());
    const double aggregateS = leaderAggregateSeconds(std::move(leaders));
    // Leaders broadcast the averaged weights inside their groups
    // (groups run concurrently; charge the slowest).
    double worstBcast = 0.0;
    for (const auto &g : groups) {
        if (g.size() <= 1)
            continue;
        const std::vector<sim::SocId> members(g.begin() + 1, g.end());
        worstBcast = std::max(
            worstBcast,
            engine.broadcast(g.front(), members, paramBytes).seconds);
    }
    return aggregateS + worstBcast;
}

double
SyncPricer::stepSeconds() const
{
    if (stepS >= 0.0)
        return stepS;
    SyncSchedule sched = priceStep();
    waveS = std::move(sched.waveSeconds);
    stepS = sched.total.seconds;
    return stepS;
}

const std::vector<double> &
SyncPricer::waveSeconds() const
{
    stepSeconds();
    return waveS;
}

double
SyncPricer::epochSeconds() const
{
    if (epochS < 0.0)
        epochS = priceLeaders() + shuffleS;
    return epochS;
}

double
SyncPricer::leaderAggregateSeconds(std::vector<sim::SocId> leaders) const
{
    // Order the ring by SoC id so neighbouring leaders share boards
    // (and racks) where possible -- fewer NIC and uplink crossings.
    std::sort(leaders.begin(), leaders.end());
    if (engine.cluster().numRacks() > 1)
        return engine.hierarchicalAllReduce(leaders, paramBytes).seconds;
    return engine.ringAllReduce(leaders, paramBytes).seconds;
}

void
SyncPricer::capture() const
{
    if (captured)
        return;
    const sim::FlowNetwork &net = engine.cluster().network();
    stepCap = captureFlows(net, [this] { priceStep(); });
    epochCap = captureFlows(net, [this] { priceLeaders(); });
    captured = true;
}

const sim::FlowCapture &
SyncPricer::stepCapture() const
{
    capture();
    return stepCap;
}

const sim::FlowCapture &
SyncPricer::epochCapture() const
{
    capture();
    return epochCap;
}

void
SyncPricer::invalidate()
{
    stepS = -1.0;
    epochS = -1.0;
    waveS.clear();
    captured = false;
}

} // namespace core
} // namespace socflow
