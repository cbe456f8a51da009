#include <algorithm>
#include <limits>

#include "membership/membership.hh"

// Apart from membership.cc, so that hasQuorum is called from another
// object file (benchmark/layer_table.def times it by --wrap).

namespace socflow {
namespace membership {

bool usable(const fault::FaultModel *faults, const sim::Cluster &cluster,
            sim::SocId soc)
{
    return !faults || (faults->socAlive(soc) &&
                       faults->boardReachable(cluster.board(soc)));
}

QuorumSplit splitByReachability(const fault::FaultModel *faults,
                                const sim::Cluster &cluster,
                                const std::vector<sim::SocId> &candidates)
{
    QuorumSplit split;
    sim::SocId lowest = std::numeric_limits<sim::SocId>::max();
    for (sim::SocId s : candidates) {
        if (faults && !faults->socAlive(s))
            continue;
        lowest = std::min(lowest, s);
        (usable(faults, cluster, s) ? split.reachable : split.cut)
            .push_back(s);
    }
    const std::size_t live = split.reachable.size() + split.cut.size();
    // Nothing cut: the live set is one side, with quorum unless empty.
    split.quorum = split.cut.empty()
                       ? live > 0
                       : hasQuorum(split.reachable, live, lowest);
    return split;
}

} // namespace membership
} // namespace socflow
