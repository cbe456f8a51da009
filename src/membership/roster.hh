/**
 * @file
 * The one record of who holds each SoC (DESIGN.md ch. 8): an active
 * group (it trains), a parked group (the minority side of a partition,
 * state preserved for the heal), the isolation queue (cut off from a
 * group that trains on, or back up behind a cut), or nobody (idle).
 * Roster is the only writer of that record, of each SoC's lost-contact
 * time (where its rejoin latency starts) and of the quorum-lost flag;
 * every edit that asks who holds a SoC asks holderOf(). Liveness and
 * reachability are read from the fault model, never stored. A group's
 * payload `State` (the trainer's replicas) is owned by pointer and
 * moves with its member list, so the one-holder rule can be tested
 * without training a model.
 */

#ifndef SOCFLOW_MEMBERSHIP_ROSTER_HH
#define SOCFLOW_MEMBERSHIP_ROSTER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "membership/membership.hh"
#include "util/logging.hh"

namespace socflow {
namespace membership {

/** Who holds a SoC: holderOf()'s answer. */
struct Holder {
    enum Kind { Active, Parked, Isolated, None };
    Kind kind = None;
    /** Active: index into active(); Parked: index into parked(). */
    std::size_t index = 0;
};

template <class State>
class Roster
{
  public:
    /** One group: its members (leader first) and its payload. */
    struct Group {
        std::vector<sim::SocId> socs;
        std::unique_ptr<State> state;
        /** Parked groups: the generation the group last synced under,
         *  which fences its replayed traffic at the heal. */
        std::uint64_t staleGeneration = 0;
    };

    explicit Roster(const sim::Cluster &cluster_in) : cluster(cluster_in) {}

    /** Not owned; nullptr = everything alive and reachable. */
    void setFaultModel(const fault::FaultModel *f) { faults = f; }

    std::size_t size() const { return act.size(); }
    const std::vector<Group> &active() const { return act; }
    const std::vector<Group> &parked() const { return park; }
    const std::vector<sim::SocId> &members(std::size_t g) const
    {
        return act[g].socs;
    }
    State &state(std::size_t g) const { return *act[g].state; }
    /** The isolation queue, in ascending id. */
    const std::set<sim::SocId> &isolated() const { return queue; }
    /** No partition side holds quorum: nothing trains until a full
     *  heal. */
    bool quorumLost() const { return noQuorum; }

    Holder holderOf(sim::SocId soc) const
    {
        const auto in = [soc](const Group &g) {
            return std::find(g.socs.begin(), g.socs.end(), soc) !=
                   g.socs.end();
        };
        for (std::size_t g = 0; g < act.size(); ++g)
            if (in(act[g]))
                return {Holder::Active, g};
        for (std::size_t i = 0; i < park.size(); ++i)
            if (in(park[i]))
                return {Holder::Parked, i};
        return {queue.count(soc) ? Holder::Isolated : Holder::None, 0};
    }

    /** The alive members of the active groups, in group order. */
    std::vector<sim::SocId> liveMembers() const
    {
        std::vector<sim::SocId> live;
        for (const Group &g : act)
            std::copy_if(g.socs.begin(), g.socs.end(),
                         std::back_inserter(live),
                         [this](sim::SocId s) { return alive(s); });
        return live;
    }

    /** The live members split by reachability under the quorum rule. */
    QuorumSplit splitLive() const
    {
        return splitByReachability(faults, cluster, liveMembers());
    }

    // ------------------------------------------------------- edits

    /** Power-loss reset (forget everything) and boot filter: logical
     *  group g boots over its alive members with payload make(g), or
     *  not at all when it has none. */
    template <class Make>
    void boot(const std::vector<std::vector<sim::SocId>> &logical,
              Make &&make)
    {
        act.clear();
        park.clear();
        queue.clear();
        lostSince.clear();
        noQuorum = false;
        for (std::size_t g = 0; g < logical.size(); ++g) {
            std::vector<sim::SocId> socs = logical[g];
            std::erase_if(socs, [this](sim::SocId s) { return !alive(s); });
            if (!socs.empty())
                act.push_back({std::move(socs), make(g)});
        }
        if (act.empty())
            fatal("no live SoC to boot a group on");
    }

    /** Keep the first `n` active groups. */
    void shrink(std::size_t n)
    {
        if (n < act.size())
            act.erase(act.begin() + static_cast<std::ptrdiff_t>(n),
                      act.end());
    }

    /** Drop active group `g` with its members. */
    void dropGroup(std::size_t g)
    {
        act.erase(act.begin() + static_cast<std::ptrdiff_t>(g));
    }

    /**
     * Regrow admission toward `n` active groups: logical group g =
     * size(), size() + 1, ... takes its usable members that no holder
     * holds, with payload make(g); a logical group with none is
     * skipped. Growth stops before the active and parked groups would
     * outnumber the logical ones (the parked return at the heal).
     * @return the number of groups admitted.
     */
    template <class Make>
    std::size_t regrow(std::size_t n,
                       const std::vector<std::vector<sim::SocId>> &logical,
                       Make &&make)
    {
        std::size_t admitted = 0;
        for (std::size_t g = act.size();
             g < logical.size() && act.size() < n &&
             act.size() + park.size() < logical.size();
             ++g) {
            std::vector<sim::SocId> socs;
            for (sim::SocId s : logical[g])
                if (usable(s) && holderOf(s).kind == Holder::None)
                    socs.push_back(s);
            if (socs.empty()) {
                warn("cannot re-admit logical group ", g,
                     ": no usable SoC left");
                continue;
            }
            act.push_back({std::move(socs), make(g)});
            ++admitted;
        }
        return admitted;
    }

    /** Drop `soc` from active group `g`, and the group once it is
     *  empty; emptying the last group is fatal (`how` says how the
     *  SoC died). @return true when the group was dropped. */
    bool dropMember(std::size_t g, sim::SocId soc, const char *how)
    {
        std::erase(act[g].socs, soc);
        if (!act[g].socs.empty())
            return false;
        if (act.size() == 1)
            fatal("SoC ", soc, " ", how, " and no live SoC remains");
        dropGroup(g);
        return true;
    }

    /** Leader re-election: active group `g`'s highest id moves to the
     *  front. @return the new leader. */
    sim::SocId electHighest(std::size_t g)
    {
        auto &socs = act[g].socs;
        std::iter_swap(socs.begin(),
                       std::max_element(socs.begin(), socs.end()));
        return socs.front();
    }

    /** Re-map: active group g takes `lists[g]` (one list per group). */
    void assign(const std::vector<std::vector<sim::SocId>> &lists)
    {
        SOCFLOW_ASSERT(lists.size() == act.size(), "re-map size mismatch");
        for (std::size_t g = 0; g < act.size(); ++g)
            act[g].socs = lists[g];
    }

    /** Crash preamble: `soc` lost contact at `now_s`, overwriting an
     *  earlier time. @return its holder. */
    Holder markCrashed(sim::SocId soc, double now_s)
    {
        lostSince[soc] = now_s;
        return holderOf(soc);
    }

    /**
     * The edit of an open cut: nothing without a cut member; without
     * quorum, the flag; otherwise, last group first, a group with no
     * usable member parks under `stale_generation` (never the last
     * one) and the alive cut members of the others are queued. Their
     * contact is lost at `now_s` unless it already was.
     * @return the queued SoCs.
     */
    std::vector<sim::SocId> applyCut(const QuorumSplit &split,
                                     std::uint64_t stale_generation,
                                     double now_s)
    {
        std::vector<sim::SocId> stripped;
        if (split.cut.empty())
            return stripped;
        if (!split.quorum) {
            noQuorum = true;
            return stripped;
        }
        const auto usableHere = [this](sim::SocId s) { return usable(s); };
        for (std::size_t i = act.size(); i-- > 0;) {
            Group &g = act[i];
            if (std::none_of(g.socs.begin(), g.socs.end(), usableHere)) {
                if (act.size() == 1)
                    break; // never park the last group; pause instead
                for (sim::SocId s : g.socs)
                    lostSince.emplace(s, now_s);
                g.staleGeneration = stale_generation;
                park.push_back(std::move(g));
                dropGroup(i);
                continue;
            }
            std::erase_if(g.socs, [&](sim::SocId s) {
                if (!alive(s) || usable(s))
                    return false;
                queue.insert(s);
                lostSince.emplace(s, now_s);
                stripped.push_back(s);
                return true;
            });
        }
        return stripped;
    }

    /** Clears a lost quorum once every alive active member is
     *  reachable. @return true when it did. */
    bool regainQuorum()
    {
        const std::vector<sim::SocId> live = liveMembers();
        if (!std::all_of(live.begin(), live.end(),
                         [this](sim::SocId s) { return usable(s); }))
            return false;
        noQuorum = false;
        return true;
    }

    /** Heal sweep: parked group `i` loses its dead members (a later
     *  rejoin brings them back). @return false when it lost them all
     *  and was dropped. */
    bool pruneParked(std::size_t i)
    {
        std::erase_if(park[i].socs,
                      [this](sim::SocId s) { return !alive(s); });
        if (!park[i].socs.empty())
            return true;
        park.erase(park.begin() + static_cast<std::ptrdiff_t>(i));
        return false;
    }

    /** Heal resume: parked group `i` becomes the last active group.
     *  @return its members' times since lost contact, in order. */
    std::vector<double> resume(std::size_t i, double now_s)
    {
        std::vector<double> down;
        for (sim::SocId s : park[i].socs)
            if (const auto d = endLostContact(s, now_s))
                down.push_back(*d);
        act.push_back(std::move(park[i]));
        park.erase(park.begin() + static_cast<std::ptrdiff_t>(i));
        return down;
    }

    /** Heal sweep: the dead and the reachable leave the isolation
     *  queue. @return the reachable ones (to join()), ascending. */
    std::vector<sim::SocId> releaseIsolated()
    {
        std::vector<sim::SocId> back;
        std::erase_if(queue, [&](sim::SocId s) {
            if (!alive(s))
                return true;
            if (!usable(s))
                return false;
            back.push_back(s);
            return true;
        });
        return back;
    }

    /**
     * Rejoin of a recovered SoC: one a group holds stays there (a
     * parked group resumes with it at the heal), and one behind a cut
     * is queued for the heal, keeping a lost-contact time it has.
     * @return true when `soc` may join() now.
     */
    bool admitRejoin(sim::SocId soc, double now_s)
    {
        const Holder::Kind held = holderOf(soc).kind;
        if (held == Holder::Active || held == Holder::Parked)
            return false;
        if (faults && !faults->boardReachable(cluster.board(soc))) {
            queue.insert(soc);
            lostSince.emplace(soc, now_s);
            return false;
        }
        return true;
    }

    /** `soc` leaves the isolation queue for the first active group.
     *  @return its time since lost contact, if it had one. */
    std::optional<double> join(sim::SocId soc, double now_s)
    {
        queue.erase(soc);
        act.front().socs.push_back(soc);
        return endLostContact(soc, now_s);
    }

    /** Panics unless each SoC has at most one holder, active and
     *  parked groups number at most `max_groups`, and every active
     *  member is alive and, with quorum, reachable. */
    void checkInvariants(std::size_t max_groups) const
    {
        SOCFLOW_ASSERT(act.size() + park.size() <= max_groups,
                       "more groups than configured");
        std::set<sim::SocId> held;
        for (const Group &g : act) {
            SOCFLOW_ASSERT(!g.socs.empty(), "empty active group");
            for (sim::SocId s : g.socs) {
                SOCFLOW_ASSERT(held.insert(s).second,
                               "SoC mapped into two groups");
                SOCFLOW_ASSERT(alive(s), "dead SoC still mapped");
                SOCFLOW_ASSERT(noQuorum || usable(s),
                               "active member behind an open cut");
            }
        }
        for (const Group &g : park)
            for (sim::SocId s : g.socs)
                SOCFLOW_ASSERT(held.insert(s).second,
                               "SoC in an active and a parked group");
        for (sim::SocId s : queue)
            SOCFLOW_ASSERT(held.insert(s).second,
                           "isolated SoC also held by a group");
    }

  private:
    bool alive(sim::SocId s) const { return !faults || faults->socAlive(s); }
    bool usable(sim::SocId s) const
    {
        return membership::usable(faults, cluster, s);
    }

    /** End `soc`'s lost contact: its time since then, if recorded. */
    std::optional<double> endLostContact(sim::SocId soc, double now_s)
    {
        const auto it = lostSince.find(soc);
        if (it == lostSince.end())
            return std::nullopt;
        const double down = now_s - it->second;
        lostSince.erase(it);
        return down;
    }

    const sim::Cluster &cluster;
    const fault::FaultModel *faults = nullptr;
    std::vector<Group> act;
    std::vector<Group> park;
    std::set<sim::SocId> queue;
    std::map<sim::SocId, double> lostSince; //!< cut, park or crash
    bool noQuorum = false;
};

} // namespace membership
} // namespace socflow

#endif // SOCFLOW_MEMBERSHIP_ROSTER_HH
