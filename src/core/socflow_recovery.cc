#include "core/socflow_trainer.hh"

#include <algorithm>

#include "core/socflow_metrics.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace socflow {
namespace core {

std::size_t
SoCFlowTrainer::markCrashed(sim::SocId soc, std::string_view instant)
{
    isolatedSinceS[soc] = simClockS;
    detector.forget(soc);

    // Locate the owning active group; a crash on an idle SoC only
    // blocks its future re-admission.
    const std::size_t gi = owningGroup(soc);
    if (gi == groups.size())
        return gi;
    trainerMetrics().crashes.add(1.0);
    obs::tracer().recordInstant(instant, "fault", obs::kTrackControl,
                                simClockS);
    return gi;
}

void
SoCFlowTrainer::chargeRecovery(double seconds, std::string_view span,
                               std::initializer_list<obs::SpanArg> args)
{
    tally.recoverySeconds += seconds;
    trainerMetrics().recoveryS.observe(seconds);
    trainerMetrics().recoveryDigest.observe(seconds);
    obs::tracer().recordSpan(span, "fault", obs::kTrackControl,
                             simClockS, seconds, args);
    simClockS += seconds;
}

void
SoCFlowTrainer::handleCrash(sim::SocId soc)
{
    const std::size_t gi = markCrashed(soc, "soc crash");
    if (gi == groups.size())
        return;

    // The in-flight sync: each attempt stalls for the timeout and
    // backs off exponentially, then the ring degrades to the group's
    // survivors (collectives::SyncPolicy envelope; the engine reads
    // the dead members from the same fault model).
    const collectives::SyncOutcome sync =
        engine.ringAllReduceResilient(groups[gi]->socs,
                                      profile.paramBytes());
    const double recoveryS = sync.stats.seconds;

    // Consensus weights survive on the other groups' leaders; the
    // crashed group's own replica state (momentum included) is lost.
    const std::vector<float> consensus =
        groups[donorFor(gi)]->fp32.flatParams();

    // Survivor set across all active groups.
    std::vector<sim::SocId> live;
    forEachLiveMember([&live](sim::SocId s) { live.push_back(s); });
    if (live.empty()) {
        obs::flightRecorder().dumpPostMortem("unsurvivable-crash",
                                             timeline.value());
        fatal("SoC ", soc, " crashed and no live SoC remains");
    }

    // Shrink the group set when the survivors cannot populate it,
    // dropping the crashed group first.
    const std::size_t k = std::min(groups.size(), live.size());
    bool crashedGroupSurvives = true;
    if (groups.size() > k) {
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(gi));
        crashedGroupSurvives = false;
        while (groups.size() > k)
            groups.pop_back();
    }

    // Re-run integrity-greedy mapping on the survivor set and hand
    // the new member lists to the group replicas.
    const Mapping remap =
        mapGroupsOnto(live, cluster.config().socsPerBoard,
                      groups.size(), cfg.mapping);
    for (std::size_t g = 0; g < groups.size(); ++g)
        groups[g]->socs = remap.members[g];

    if (crashedGroupSurvives)
        groups[gi]->restoreFrom(consensus);
    rebuildTopology();

    ++tally.crashes;
    // 'X': full crash recovery
    timeline.mixAll(0x58, soc, live.size(), recoveryS);
    chargeRecovery(recoveryS, "crash recovery",
                   {{"soc", static_cast<double>(soc)},
                    {"retries", static_cast<double>(sync.retries)}});
    inform("SoC ", soc, " crashed; recovered onto ", live.size(),
           " survivors in ", groups.size(), " groups");
}

void
SoCFlowTrainer::advanceFaultClock(const fault::FaultPoint &at,
                                  std::size_t step)
{
    if (faults)
        dispatchFired(faults->advanceTo(at), step);
}

void
SoCFlowTrainer::dispatchFired(
    const std::vector<fault::FaultSpec> &fired, std::size_t step)
{
    for (const fault::FaultSpec &spec : fired) {
        timeline.mixAll(spec.kind, spec.epoch, spec.step, spec.phase,
                        spec.soc);
        switch (spec.kind) {
        case fault::FaultKind::SocCrash:
        case fault::FaultKind::PsServerCrash:
            // Group-wise training has no parameter-server tier; a shard
            // host is just another member dying, but it must run the
            // same recovery path (not fall through to the rate-window
            // default) so PS/group-wise head-to-heads see identical
            // seeded fault mixes.
            handleCrash(spec.soc);
            break;
        case fault::FaultKind::SocCrashMidWave:
            handleMidWaveCrash(
                spec.soc, spec.progress, step,
                spec.phase == fault::FaultPhase::Wave2 ? 1 : 0);
            break;
        case fault::FaultKind::LeaderCrash:
            handleLeaderCrash(spec.soc);
            break;
        case fault::FaultKind::GradCorrupt:
            // Wave-phase corruption hits an intra-group ring now;
            // LeaderRing-phase corruption stays in the injector's
            // budget for the verified epoch aggregation to consume.
            if (spec.phase == fault::FaultPhase::Wave1 ||
                spec.phase == fault::FaultPhase::Wave2)
                chargeCorruptedWave(spec, step);
            break;
        case fault::FaultKind::BoardPartition:
        case fault::FaultKind::SwitchPartition:
            handlePartition(spec);
            break;
        case fault::FaultKind::SocRejoin:
            rejoinSoc(spec.soc);
            break;
        case fault::FaultKind::RackPowerLoss:
            handleRackPowerLoss(spec);
            break;
        case fault::FaultKind::CkptReplicaLoss:
            // Durable-storage loss is invisible to the trainer; the
            // replicated checkpoint store drains the injector's
            // replica-loss budget at its next read/write boundary.
            break;
        default:
            break; // rate windows are state, not events
        }
    }
}

void
SoCFlowTrainer::chargeCorruptedWave(const fault::FaultSpec &spec,
                                    std::size_t step)
{
    const std::size_t burst = faults->drainGradCorrupt();
    if (burst == 0 || groups.empty())
        return;
    std::size_t gi = owningGroup(spec.soc);
    if (gi == groups.size())
        gi = 0; // afflicted SoC already gone: charge the first ring
    if (groups[gi]->socs.size() < 2)
        return; // single-member group: no wire to corrupt

    // The CRC-checked wave detects each corrupt chunk at the receiver
    // and re-requests it; only the cost *beyond* the healthy wave
    // (already charged by the step) is recovery time.
    const std::vector<sim::SocId> &ring = groups[gi]->socs;
    const collectives::SyncOutcome sync =
        engine.ringAllReduceChecked(ring, profile.paramBytes(), burst);
    const double baseS =
        engine.ringAllReduce(ring, profile.paramBytes()).seconds;
    const double extraS = std::max(0.0, sync.stats.seconds - baseS);

    tally.gradCorruptDetected += sync.corruptDetected;
    tally.chunksRetransmitted += sync.chunksRetransmitted;
    // 'C': corrupt-chunk recovery
    timeline.mixAll(0x43, burst, sync.chunksRetransmitted, extraS);
    chargeRecovery(extraS, "chunk retransmit",
                   {{"step", static_cast<double>(step)},
                    {"burst", static_cast<double>(burst)},
                    {"retransmitted",
                     static_cast<double>(sync.chunksRetransmitted)}});

    if (!sync.ok()) {
        // Retry budget exhausted: the wave's partial sum is poisoned.
        // Drop it -- restore the afflicted group from a healthy donor
        // rather than fold a corrupt chunk into its weights.
        ++tally.syncFailures;
        trainerMetrics().syncFailures.add(1.0);
        warn("corruption burst of ", burst, " exhausted the ",
             engine.syncPolicy().maxRetries, "-retry budget (",
             collectives::syncErrorName(sync.error),
             "); dropping group ", gi, "'s update");
        const std::size_t donor = donorFor(gi);
        if (donor != gi)
            groups[gi]->restoreFrom(groups[donor]->fp32.flatParams());
        obs::tracer().recordInstant("sync failure", "fault",
                                    obs::kTrackControl, simClockS);
        obs::flightRecorder().dumpPostMortem("corrupt-retry-exhausted",
                                             timeline.value());
    }
}

void
SoCFlowTrainer::handleMidWaveCrash(sim::SocId soc, double progress,
                                   std::size_t step, std::size_t wave)
{
    const std::size_t gi = markCrashed(soc, "soc crash mid-wave");
    if (gi == groups.size())
        return;

    // The acked share of the in-flight AllReduce survives (its chunk
    // CRC tags verified on arrival), so only the tail rounds re-run
    // on the survivor ring.
    const std::vector<sim::SocId> ring = groups[gi]->socs;
    const std::size_t totalRounds =
        ring.size() >= 2 ? 2 * (ring.size() - 1) : 0;
    progress = std::clamp(progress, 0.0, 1.0);
    const std::size_t acked = static_cast<std::size_t>(
        progress * static_cast<double>(totalRounds));
    const collectives::SyncOutcome sync =
        engine.resumeFromChunk(ring, profile.paramBytes(), acked);
    const double recoveryS = sync.stats.seconds;

    // Unlike a full crash, the group replica -- weights AND momentum
    // -- is preserved: the member list just shrinks.
    dropMember(gi, soc, "crashed mid-wave");
    rebuildTopology();

    ++tally.crashes;
    ++tally.waveResumes;
    trainerMetrics().waveResumes.add(1.0);
    // 'W': wave resume
    timeline.mixAll(0x57, soc, acked, sync.chunksResumed, recoveryS);
    chargeRecovery(
        recoveryS, "wave resume",
        {{"soc", static_cast<double>(soc)},
         {"step", static_cast<double>(step)},
         {"wave", static_cast<double>(wave)},
         {"acked_rounds", static_cast<double>(acked)},
         {"chunks_resumed", static_cast<double>(sync.chunksResumed)}});
    inform("SoC ", soc, " crashed mid-wave (", acked, "/", totalRounds,
           " rounds acked); resumed on the survivor ring, group state "
           "preserved");
}

void
SoCFlowTrainer::handleLeaderCrash(sim::SocId soc)
{
    const std::size_t gi = markCrashed(soc, "leader crash");
    if (gi == groups.size())
        return;

    // Detecting the dead leader costs one timeout + one backoff;
    // re-forming the leader ring re-runs the delayed aggregation over
    // the new leader set.
    const bool wasLeader = groups[gi]->socs.front() == soc;
    double recoveryS =
        engine.syncPolicy().timeoutS + engine.syncPolicy().backoffBaseS;
    bool elected = false;
    sim::SocId newLeader = 0;
    // A leader dying with its whole group loses the partial aggregate
    // it alone held: the group is dropped, and the surviving groups
    // carry the consensus weights.
    if (!dropMember(gi, soc, "was the last leader") && wasLeader) {
        // Deterministic re-election: highest surviving SoC id leads.
        auto &socs = groups[gi]->socs;
        std::iter_swap(socs.begin(),
                       std::max_element(socs.begin(), socs.end()));
        newLeader = socs.front();
        elected = true;
    }
    if (groups.size() > 1)
        recoveryS += pricer.leaderAggregateSeconds(leaderRing());
    rebuildTopology();

    ++tally.crashes;
    if (elected) {
        ++tally.leaderElections;
        trainerMetrics().leaderElections.add(1.0);
    }
    timeline.mixAll(0x4c, soc, elected, recoveryS); // 'L': leader recovery
    chargeRecovery(recoveryS, "leader election",
                   {{"soc", static_cast<double>(soc)},
                    {"elected", elected ? 1.0 : 0.0}});
    if (elected) {
        inform("leader SoC ", soc, " crashed; SoC ", newLeader,
               " elected (highest surviving id), leader ring "
               "re-formed");
    } else {
        inform("SoC ", soc, " crashed in the leader ring; ",
               groups.size(), " groups remain");
    }
}

bool
SoCFlowTrainer::dropMember(std::size_t gi, sim::SocId soc, const char *how)
{
    auto &socs = groups[gi]->socs;
    socs.erase(std::remove(socs.begin(), socs.end(), soc), socs.end());
    if (!socs.empty())
        return false;
    if (groups.size() == 1)
        fatal("SoC ", soc, " ", how, " and no live SoC remains");
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(gi));
    return true;
}

std::vector<sim::SocId>
SoCFlowTrainer::leaderRing() const
{
    std::vector<sim::SocId> ring;
    for (const auto &g : groups)
        ring.push_back(g->socs.front());
    return ring;
}

double
SoCFlowTrainer::catchUp(sim::SocId soc, double &down_s)
{
    std::vector<sim::SocId> &socs = groups.front()->socs;
    const double seconds =
        engine.broadcast(socs.front(), {soc}, profile.paramBytes())
            .seconds;
    socs.push_back(soc);
    endIsolation(soc, down_s);
    return seconds;
}

void
SoCFlowTrainer::endIsolation(sim::SocId soc, double &down_s)
{
    // Rejoin latency: from the cut (or crash) to a productive member.
    auto it = isolatedSinceS.find(soc);
    if (it == isolatedSinceS.end())
        return;
    down_s = simClockS - it->second;
    trainerMetrics().rejoinDigest.observe(down_s);
    isolatedSinceS.erase(it);
}

void
SoCFlowTrainer::heartbeatSweep(double step_start_s,
                               double step_compute_s)
{
    double maxPhi = 0.0;
    forEachLiveMember([&](sim::SocId s) {
        double rate = 1.0;
        if (faults)
            rate = std::max(faults->computeFactor(s), 1e-6);
        const double arrival = step_start_s + step_compute_s / rate;
        maxPhi = std::max(maxPhi, detector.phi(s, arrival));
        detector.heartbeat(s, arrival);
    });
    peakPhi = std::max(peakPhi, maxPhi);
    trainerMetrics().suspicionMax.set(maxPhi);
}

void
SoCFlowTrainer::remapLiveMembership()
{
    std::vector<sim::SocId> live;
    forEachLiveMember([&live](sim::SocId s) { live.push_back(s); });
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    SOCFLOW_ASSERT(!live.empty(), "no live SoC to re-map");
    // A group that lost its last live member cannot be kept.
    while (groups.size() > live.size())
        groups.pop_back();

    const Mapping remap =
        mapGroupsOnto(live, cluster.config().socsPerBoard,
                      groups.size(), cfg.mapping);
    for (std::size_t g = 0; g < groups.size(); ++g)
        groups[g]->socs = remap.members[g];
    rebuildTopology();
    bumpGeneration();
    assertMembershipInvariants();
}

void
SoCFlowTrainer::assertMembershipInvariants() const
{
    // Every live member belongs to exactly one group.
    std::set<sim::SocId> seen;
    for (const auto &g : groups) {
        SOCFLOW_ASSERT(!g->socs.empty(), "empty active group");
        for (sim::SocId s : g->socs) {
            SOCFLOW_ASSERT(seen.insert(s).second,
                           "SoC mapped into two groups");
            SOCFLOW_ASSERT(alive(s), "dead SoC still mapped");
        }
    }
    // Theorems 1/2 must survive re-mapping over the live membership:
    // under the integrity-greedy mapping the conflict graph stays a
    // union of chains (every split group conflicts with at most two
    // others), so the CG schedule never needs more than two waves.
    if (cfg.mapping == MapStrategy::IntegrityGreedy &&
        cfg.usePlanning) {
        const auto adj =
            conflictGraph(mapping, cluster.config().socsPerBoard);
        for (const auto &neighbours : adj) {
            SOCFLOW_ASSERT(
                neighbours.size() <= 2,
                "conflict graph is no longer a union of chains");
        }
        SOCFLOW_ASSERT(plan.numCommGroups <= 2,
                       "CG schedule needs more than two waves");
        // On a fleet the same invariants re-derive at rack
        // granularity (mapping.hh): rack-split groups chain with at
        // most two neighbours, so the cross-rack waves of the cluster
        // ring 2-color exactly like board-level waves.
        if (cluster.numRacks() > 1) {
            const auto rackAdj = rackConflictGraph(
                mapping, cluster.config().socsPerRack());
            for (const auto &neighbours : rackAdj) {
                SOCFLOW_ASSERT(neighbours.size() <= 2,
                               "rack conflict graph is no longer a "
                               "union of chains");
            }
            SOCFLOW_ASSERT(
                planCommGroups(rackAdj).numCommGroups <= 2,
                "rack-level CG schedule needs more than two waves");
        }
    }
}

void
SoCFlowTrainer::handlePartition(const fault::FaultSpec &spec)
{
    if (!faults)
        return;

    // Split the live membership by board reachability.
    std::vector<sim::SocId> members;
    forEachLiveMember([&members](sim::SocId s) { members.push_back(s); });
    const membership::QuorumSplit split =
        membership::splitByReachability(faults, cluster, members);
    const std::vector<sim::SocId> &cut = split.cut;
    ++tally.partitions;
    timeline.mixAll(0x50, spec.board, cut.size()); // 'P': partition
    obs::tracer().recordInstant(fault::faultKindName(spec.kind), "fault",
                                obs::kTrackControl, simClockS);
    if (cut.empty())
        return; // the cut grazed only idle boards

    // Detection is not free: the phi detector confirms each cut SoC
    // only after its adaptive detection latency, plus one sync
    // timeout for the in-flight collective that first hit the hole.
    double detectS = engine.syncPolicy().timeoutS;
    for (sim::SocId s : cut)
        detectS = std::max(detectS, detector.detectionLatencyS(s) +
                                        engine.syncPolicy().timeoutS);

    const std::size_t totalLive = split.reachable.size() + cut.size();

    if (!split.quorum) {
        // The reachable side is the minority: nobody may train.
        // Groups stay exactly as they are -- state preserved -- and
        // every epoch pauses until the cut heals.
        quorumLost = true;
        tally.recoverySeconds += detectS;
        timeline.mix(std::uint64_t{0});
        simClockS += detectS;
        warn(fault::faultKindName(spec.kind), " cut ", cut.size(),
             " of ", totalLive, " live SoCs and no side holds "
             "quorum; training paused, state preserved");
        return;
    }
    timeline.mix(std::uint64_t{1});

    // Majority side trains on: park fully-cut groups with their state
    // intact, strip cut members out of mixed groups, then re-map and
    // re-plan the survivors under a new generation. The parked side's
    // stale generation is what fences its traffic at heal time.
    const std::uint64_t staleGen = gate.current();
    const auto liveReachable = [this](sim::SocId s) {
        return membership::usable(faults, cluster, s);
    };
    std::size_t parked = 0, stripped = 0;
    for (std::size_t i = groups.size(); i-- > 0;) {
        GroupState &g = *groups[i];
        if (std::none_of(g.socs.begin(), g.socs.end(), liveReachable)) {
            if (groups.size() == 1)
                break; // never park the last group; pause instead
            for (sim::SocId s : g.socs)
                isolatedSinceS.emplace(s, simClockS);
            pausedGroups.push_back({std::move(groups[i]), staleGen});
            groups.erase(groups.begin() +
                         static_cast<std::ptrdiff_t>(i));
            ++parked;
        } else {
            for (auto it = g.socs.begin(); it != g.socs.end();) {
                if (alive(*it) &&
                    !faults->boardReachable(cluster.board(*it))) {
                    isolatedSocs.insert(*it);
                    isolatedSinceS.emplace(*it, simClockS);
                    detector.forget(*it);
                    ++stripped;
                    it = g.socs.erase(it);
                } else {
                    ++it;
                }
            }
        }
    }
    remapLiveMembership();

    chargeRecovery(detectS, "partition fence",
                   {{"cut_socs", static_cast<double>(cut.size())},
                    {"parked_groups", static_cast<double>(parked)},
                    {"generation", static_cast<double>(gate.current())}});
    inform(fault::faultKindName(spec.kind), " cut ", cut.size(),
           " SoCs; majority of ", split.reachable.size(),
           " trains on under generation ", gate.current(), " (",
           parked, " groups parked, ", stripped, " members isolated)");
}

void
SoCFlowTrainer::handleRackPowerLoss(const fault::FaultSpec &spec)
{
    // spec.board carries the first rack lost; spec.count how many
    // racks go down with it. Synchronized group-wise training cannot
    // commit an epoch with any rack's volatile state gone, so the
    // trainer fail-stops fleet-wide: the epoch in flight aborts and
    // nothing trains until a durable-checkpoint restore. This is the
    // one fault that actually LOSES state -- unlike a partition
    // (state preserved across the cut) or a crash (survivors keep
    // consensus), a power cycle wipes every machine's memory; only
    // the replicated checkpoint store (src/ckpt) survives it.
    const std::size_t firstRack = spec.board;
    const std::size_t racksLost = std::max<std::size_t>(spec.count, 1);
    fleetDown = true;
    timeline.mixAll(0x42, firstRack, racksLost); // 'B': blackout (power loss)
    obs::tracer().recordInstant("rack power loss", "fault",
                                obs::kTrackControl, simClockS);
    obs::flightRecorder().dumpPostMortem("rack-power-loss",
                                         timeline.value());
    warn("rack power loss at epoch ", epochCounter, ": racks [",
         firstRack, ", ", firstRack + racksLost,
         ") down; volatile training state lost, awaiting "
         "durable-checkpoint restore");
}

void
SoCFlowTrainer::healMemberships()
{
    if (!faults)
        return;
    TrainerMetrics &m = trainerMetrics();
    obs::Tracer &tr = obs::tracer();
    const auto reachableNow = [this](sim::SocId s) {
        return faults->boardReachable(cluster.board(s));
    };

    if (quorumLost) {
        // The whole cluster paused; it resumes only on a full heal
        // (every live member reachable again).
        bool healed = true;
        forEachLiveMember(
            [&](sim::SocId s) { healed = healed && reachableNow(s); });
        if (!healed)
            return;
        quorumLost = false;
        bumpGeneration();
        timeline.mixAll(0x48, gate.current()); // 'H': heal, quorum back
        tr.recordInstant("partition healed (quorum restored)",
                         "fault", obs::kTrackControl, simClockS);
        inform("partition healed; training resumes under generation ",
               gate.current());
    }

    std::size_t rejoined = 0;
    double longestDownS = 0.0;
    bool changed = false;

    // Resume groups parked on the minority side whose boards are back.
    for (std::size_t i = pausedGroups.size(); i-- > 0;) {
        PausedGroup &pg = pausedGroups[i];
        auto &socs = pg.state->socs;
        // Members dead at the heal leave the group (a later SocRejoin
        // brings them back).
        std::erase_if(socs, [this](sim::SocId s) { return !alive(s); });
        if (socs.empty()) {
            pausedGroups.erase(pausedGroups.begin() +
                               static_cast<std::ptrdiff_t>(i));
            continue;
        }
        bool allReachable = true;
        for (sim::SocId s : socs)
            allReachable = allReachable && reachableNow(s);
        if (!allReachable)
            continue;

        // The returning leader replays its pre-partition leader-ring
        // traffic stamped with the stale generation; the fenced ring
        // rejects that contribution before any reduction forms (the
        // split-brain guard in action), and the group is restored
        // from the majority's consensus instead.
        std::vector<sim::SocId> ring = leaderRing();
        std::vector<std::uint64_t> stamps;
        for (const auto &g : groups)
            stamps.push_back(g->generation);
        ring.push_back(socs.front());
        stamps.push_back(pg.staleGeneration);
        const collectives::SyncOutcome fencedSync =
            engine.ringAllReduceFenced(ring, profile.paramBytes(), stamps,
                                       gate.current());
        fencedTotal += fencedSync.fencedStale;
        tally.recoverySeconds += fencedSync.stats.seconds;
        pg.state->restoreFrom(globalWeights());
        for (sim::SocId s : socs) {
            double downS = 0.0;
            endIsolation(s, downS);
            longestDownS = std::max(longestDownS, downS);
        }
        rejoined += socs.size();
        groups.push_back(std::move(pg.state));
        groups.back()->generation = gate.current();
        pausedGroups.erase(pausedGroups.begin() +
                           static_cast<std::ptrdiff_t>(i));
        changed = true;
    }

    // Fold members stripped from mixed groups back in.
    for (auto it = isolatedSocs.begin(); it != isolatedSocs.end();) {
        const sim::SocId s = *it;
        if (!alive(s)) {
            it = isolatedSocs.erase(it); // died while isolated
            continue;
        }
        if (owningGroup(s) != groups.size()) {
            // Back with a resumed parked group (a SocRejoin queued it
            // while parked): that resume already caught it up and
            // counted it.
            it = isolatedSocs.erase(it);
            continue;
        }
        if (!reachableNow(s)) {
            ++it;
            continue;
        }
        double downS = 0.0;
        tally.recoverySeconds += catchUp(s, downS);
        longestDownS = std::max(longestDownS, downS);
        ++rejoined;
        it = isolatedSocs.erase(it);
        changed = true;
    }

    if (changed) {
        remapLiveMembership();
        tally.rejoins += rejoined;
        m.rejoins.add(static_cast<double>(rejoined));
        timeline.mixAll(0x52, rejoined, gate.current()); // 'R': rejoin wave
        tr.recordSpan("membership heal", "fault", obs::kTrackControl,
                      simClockS, longestDownS,
                      {{"rejoined", static_cast<double>(rejoined)},
                       {"generation",
                        static_cast<double>(gate.current())}});
        inform("membership healed: ", rejoined,
               " SoCs rejoined; generation ", gate.current(), ", ",
               pausedGroups.size(), " groups still parked");
    }
}

void
SoCFlowTrainer::rejoinSoc(sim::SocId soc)
{
    // Already an active member (e.g. a plan rejoin targeting a SoC
    // that never actually died): nothing to do.
    if (owningGroup(soc) != groups.size())
        return;
    if (faults && !faults->boardReachable(cluster.board(soc))) {
        // Back up, but behind an active cut: it queues for the heal.
        isolatedSocs.insert(soc);
        isolatedSinceS.emplace(soc, simClockS);
        return;
    }
    TrainerMetrics &m = trainerMetrics();
    isolatedSocs.erase(soc);

    // Catch-up protocol: fetch the current group weights and the
    // current generation from a leader, then re-map the live set.
    double downS = -1.0;
    const double catchUpS = catchUp(soc, downS);
    if (downS < 0.0) {
        downS = catchUpS; // never cut: the catch-up is its downtime
        m.rejoinDigest.observe(downS);
    }
    remapLiveMembership();

    ++tally.rejoins;
    m.rejoins.add(1.0);
    timeline.mixAll(0x4a, soc, gate.current()); // 'J': SoC rejoin
    chargeRecovery(catchUpS, "soc rejoin",
                   {{"soc", static_cast<double>(soc)},
                    {"down_seconds", downS},
                    {"generation", static_cast<double>(gate.current())}});
    inform("SoC ", soc, " rejoined after ", downS,
           " s; caught up from its leader under generation ",
           gate.current());
}

} // namespace core
} // namespace socflow
