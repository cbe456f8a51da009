#include "core/socflow_trainer.hh"

#include <algorithm>
#include <optional>

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
    const membership::Holder holder = roster.markCrashed(soc, simClockS);
    detector.forget(soc);

    // A crash on a SoC no active group holds only blocks its future
    // re-admission.
    if (holder.kind != membership::Holder::Active)
        return roster.size();
    trainerMetrics().crashes.add(1.0);
    obs::tracer().recordInstant(instant, "fault", obs::kTrackControl,
                                simClockS);
    return holder.index;
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
    if (gi == roster.size())
        return;

    // The in-flight sync: each attempt stalls for the timeout and
    // backs off exponentially, then the ring degrades to the group's
    // survivors (collectives::SyncPolicy envelope; the engine reads
    // the dead members from the same fault model).
    const collectives::SyncOutcome sync =
        engine.ringAllReduceResilient(roster.members(gi),
                                      profile.paramBytes());
    const double recoveryS = sync.stats.seconds;

    // Consensus weights survive on the other groups' leaders; the
    // crashed group's own replica state (momentum included) is lost.
    const std::vector<float> consensus =
        roster.state(donorFor(gi)).fp32.flatParams();

    // Survivor set across all active groups.
    const std::vector<sim::SocId> live = roster.liveMembers();
    if (live.empty()) {
        obs::flightRecorder().dumpPostMortem("unsurvivable-crash",
                                             timeline.value());
        fatal("SoC ", soc, " crashed and no live SoC remains");
    }

    // Shrink the group set when the survivors cannot populate it,
    // dropping the crashed group first, then re-run integrity-greedy
    // mapping on the survivor set.
    const bool crashedGroupSurvives = roster.size() <= live.size();
    if (!crashedGroupSurvives)
        roster.dropGroup(gi);
    remapOnto(live);
    if (crashedGroupSurvives)
        roster.state(gi).restoreFrom(consensus);

    ++tally.crashes;
    // 'X': full crash recovery
    timeline.mixAll(0x58, soc, live.size(), recoveryS);
    chargeRecovery(recoveryS, "crash recovery",
                   {{"soc", static_cast<double>(soc)},
                    {"retries", static_cast<double>(sync.retries)}});
    inform("SoC ", soc, " crashed; recovered onto ", live.size(),
           " survivors in ", roster.size(), " groups");
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
    // Checked once the batch is dispatched: specs that fire together
    // open their cut windows together, so a handler ahead of the
    // partition's own sees members the cut has not fenced yet.
    if (!fired.empty())
        assertMembershipInvariants();
}

void
SoCFlowTrainer::chargeCorruptedWave(const fault::FaultSpec &spec,
                                    std::size_t step)
{
    const std::size_t burst = faults->drainGradCorrupt();
    if (burst == 0)
        return;
    // Afflicted SoC no longer in an active group: charge the first
    // ring.
    const membership::Holder holder = roster.holderOf(spec.soc);
    const std::size_t gi =
        holder.kind == membership::Holder::Active ? holder.index : 0;
    const std::vector<sim::SocId> &ring = roster.members(gi);
    if (ring.size() < 2)
        return; // single-member group: no wire to corrupt

    // The CRC-checked wave detects each corrupt chunk at the receiver
    // and re-requests it; only the cost *beyond* the healthy wave
    // (already charged by the step) is recovery time.
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
            roster.state(gi).restoreFrom(
                roster.state(donor).fp32.flatParams());
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
    if (gi == roster.size())
        return;

    // The acked share of the in-flight AllReduce survives (its chunk
    // CRC tags verified on arrival), so only the tail rounds re-run
    // on the survivor ring.
    const std::vector<sim::SocId> ring = roster.members(gi);
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
    roster.dropMember(gi, soc, "crashed mid-wave");
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
    if (gi == roster.size())
        return;

    // Detecting the dead leader costs one timeout + one backoff;
    // re-forming the leader ring re-runs the delayed aggregation over
    // the new leader set.
    const bool wasLeader = roster.members(gi).front() == soc;
    double recoveryS =
        engine.syncPolicy().timeoutS + engine.syncPolicy().backoffBaseS;
    bool elected = false;
    sim::SocId newLeader = 0;
    // A leader dying with its whole group loses the partial aggregate
    // it alone held: the group is dropped, and the surviving groups
    // carry the consensus weights.
    if (!roster.dropMember(gi, soc, "was the last leader") && wasLeader) {
        // Deterministic re-election: highest surviving SoC id leads.
        newLeader = roster.electHighest(gi);
        elected = true;
    }
    if (roster.size() > 1)
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
               roster.size(), " groups remain");
    }
}

std::vector<sim::SocId>
SoCFlowTrainer::leaderRing() const
{
    std::vector<sim::SocId> ring;
    for (const auto &g : roster.active())
        ring.push_back(g.socs.front());
    return ring;
}

double
SoCFlowTrainer::catchUp(sim::SocId soc, double &down_s)
{
    const double seconds =
        engine.broadcast(roster.members(0).front(), {soc},
                         profile.paramBytes())
            .seconds;
    // Rejoin latency: from the cut (or crash) to a productive member.
    if (const std::optional<double> down = roster.join(soc, simClockS)) {
        down_s = *down;
        trainerMetrics().rejoinDigest.observe(down_s);
    }
    return seconds;
}

void
SoCFlowTrainer::heartbeatSweep(double step_start_s,
                               double step_compute_s)
{
    double maxPhi = 0.0;
    for (sim::SocId s : roster.liveMembers()) {
        double rate = 1.0;
        if (faults)
            rate = std::max(faults->computeFactor(s), 1e-6);
        const double arrival = step_start_s + step_compute_s / rate;
        maxPhi = std::max(maxPhi, detector.phi(s, arrival));
        detector.heartbeat(s, arrival);
    }
    peakPhi = std::max(peakPhi, maxPhi);
    trainerMetrics().suspicionMax.set(maxPhi);
}

void
SoCFlowTrainer::remapOnto(const std::vector<sim::SocId> &live)
{
    // A group that lost its last live member cannot be kept.
    roster.shrink(live.size());
    roster.assign(mapGroupsOnto(live, cluster.config().socsPerBoard,
                                roster.size(), cfg.mapping)
                      .members);
    rebuildTopology();
}

void
SoCFlowTrainer::remapLiveMembership()
{
    const std::vector<sim::SocId> live = roster.liveMembers();
    SOCFLOW_ASSERT(!live.empty(), "no live SoC to re-map");
    remapOnto(live);
    bumpGeneration();
}

void
SoCFlowTrainer::assertMembershipInvariants() const
{
    roster.checkInvariants(fullMapping.numGroups());
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

    const membership::QuorumSplit split = roster.splitLive();
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

    timeline.mix(std::uint64_t{split.quorum});
    const auto [parked, stripped] = applyCut(split);
    if (!split.quorum) {
        tally.recoverySeconds += detectS;
        simClockS += detectS;
        warn(fault::faultKindName(spec.kind), " cut ", cut.size(),
             " of ", totalLive, " live SoCs and no side holds "
             "quorum; training paused, state preserved");
        return;
    }
    chargeRecovery(detectS, "partition fence",
                   {{"cut_socs", static_cast<double>(cut.size())},
                    {"parked_groups", static_cast<double>(parked)},
                    {"generation", static_cast<double>(gate.current())}});
    inform(fault::faultKindName(spec.kind), " cut ", cut.size(),
           " SoCs; majority of ", split.reachable.size(),
           " trains on under generation ", gate.current(), " (",
           parked, " groups parked, ", stripped, " members isolated)");
}

std::pair<std::size_t, std::size_t>
SoCFlowTrainer::applyCut(const membership::QuorumSplit &split)
{
    // Without quorum nobody may train: groups stay exactly as they
    // are -- state preserved -- and every epoch pauses until the cut
    // heals. With it, the majority side trains on: the parked side's
    // stale generation (the current one, about to be bumped) is what
    // fences its traffic at heal time, and the survivors are re-mapped
    // and re-planned under a new generation.
    const std::size_t parkedBefore = roster.parked().size();
    const std::vector<sim::SocId> stripped =
        roster.applyCut(split, gate.current(), simClockS);
    if (split.cut.empty() || !split.quorum)
        return {0, 0};
    for (sim::SocId s : stripped)
        detector.forget(s);
    remapLiveMembership();
    return {roster.parked().size() - parkedBefore, stripped.size()};
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

    if (roster.quorumLost()) {
        // The whole cluster paused; it resumes only on a full heal
        // (every live member reachable again).
        if (!roster.regainQuorum())
            return;
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
    for (std::size_t i = roster.parked().size(); i-- > 0;) {
        // Members dead at the heal leave the group (a later SocRejoin
        // brings them back).
        if (!roster.pruneParked(i))
            continue;
        const auto &pg = roster.parked()[i];
        if (!std::all_of(pg.socs.begin(), pg.socs.end(), reachableNow))
            continue;

        // The returning leader replays its pre-partition leader-ring
        // traffic stamped with the stale generation; the fenced ring
        // rejects that contribution before any reduction forms (the
        // split-brain guard in action), and the group is restored
        // from the majority's consensus instead.
        std::vector<sim::SocId> ring = leaderRing();
        std::vector<std::uint64_t> stamps;
        for (const auto &g : roster.active())
            stamps.push_back(g.state->generation);
        ring.push_back(pg.socs.front());
        stamps.push_back(pg.staleGeneration);
        const collectives::SyncOutcome fencedSync =
            engine.ringAllReduceFenced(ring, profile.paramBytes(), stamps,
                                       gate.current());
        fencedTotal += fencedSync.fencedStale;
        tally.recoverySeconds += fencedSync.stats.seconds;
        rejoined += pg.socs.size();
        for (double downS : roster.resume(i, simClockS)) {
            m.rejoinDigest.observe(downS);
            longestDownS = std::max(longestDownS, downS);
        }
        GroupState &back = roster.state(roster.size() - 1);
        back.restoreFrom(globalWeights());
        back.generation = gate.current();
        changed = true;
    }

    // Fold members stripped from mixed groups back in (the dead ones
    // leave the queue, the cut ones stay queued).
    for (sim::SocId s : roster.releaseIsolated()) {
        double downS = 0.0;
        tally.recoverySeconds += catchUp(s, downS);
        longestDownS = std::max(longestDownS, downS);
        ++rejoined;
        changed = true;
    }

    if (changed) {
        remapLiveMembership();
        assertMembershipInvariants();
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
               roster.parked().size(), " groups still parked");
    }
}

void
SoCFlowTrainer::rejoinSoc(sim::SocId soc)
{
    // Already held by a group (e.g. a plan rejoin targeting a SoC that
    // never actually died, or one whose parked group the heal resumes
    // with it), or back up but behind an active cut, where it queues
    // for the heal: nothing to do now.
    if (!roster.admitRejoin(soc, simClockS))
        return;
    TrainerMetrics &m = trainerMetrics();

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
