#include "core/socflow_trainer.hh"

#include <algorithm>
#include <cmath>

#include "collectives/reduce.hh"
#include "core/socflow_metrics.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace core {

EpochRecord
SoCFlowTrainer::runEpoch()
{
    EpochRecord rec;
    meter.reset();
    obs::ScopedSpan hostEpoch(obs::tracer(), "runEpoch", "trainer");
    EpochRun ep;
    if (!openEpoch(ep, rec))
        return rec;

    for (std::size_t step = 0; step < ep.steps; ++step) {
        if (!runGroupStep(ep, step))
            break; // power lost: the step never commits
        chargeStep(ep, rec, step);
    }

    // Replicate per-step timing/energy to the paper-scale dataset
    // (the math ran on the small synthetic stand-in).
    rec.computeSeconds *= ep.f;
    rec.syncSeconds *= ep.f;
    rec.updateSeconds *= ep.f;
    rec.simSeconds *= ep.f;
    ep.cpuSocS *= ep.f;
    ep.npuSocS *= ep.f;
    ep.commSocS *= ep.f;

    // The cross-group delayed aggregation phase: leader crashes fire
    // here, before the leader ring runs, so a re-elected leader (or a
    // shrunken group set) carries the aggregation.
    const std::size_t lastStep = ep.steps - 1;
    if (!fleetDown) {
        advanceFaultClock(
            fault::FaultPoint{epochCounter, lastStep,
                              fault::FaultPhase::LeaderRing},
            lastStep);
    }

    // A RackPowerLoss fired inside the epoch: abort without closing.
    // No leader ring, no aggregation, no epoch-counter advance and no
    // epoch-close hash mix -- the epoch died with the fleet, and the
    // resumed run (restored from a durable checkpoint) re-trains it
    // from the checkpoint's state. Recovery accounting up to the
    // outage folds into the aborted record.
    rec.powerLost = fleetDown;
    if (!rec.powerLost) {
        aggregateLeaders(ep, rec);

        meter.accumulate(sim::PowerState::CpuTrain, ep.cpuSocS);
        meter.accumulate(sim::PowerState::NpuTrain, ep.npuSocS);
        meter.accumulate(sim::PowerState::Comm, ep.commSocS);
        // Idle energy for the remaining SoC-seconds of the epoch.
        const double totalSocSeconds =
            rec.simSeconds * static_cast<double>(cfg.numSocs);
        const double busySocSeconds =
            ep.cpuSocS + ep.npuSocS + ep.commSocS;
        meter.fillIdle(totalSocSeconds, busySocSeconds);

        // Close the epoch on the fault clock: the checkpoint phase
        // plus any stragglers scheduled past the actual step count
        // (an epoch never leaks its faults into the next one).
        advanceFaultClock(fault::FaultPoint::epochEnd(epochCounter),
                          lastStep);
    }
    closeEpoch(ep, rec);
    return rec;
}

bool
SoCFlowTrainer::openEpoch(EpochRun &ep, EpochRecord &rec)
{
    obs::Tracer &tr = obs::tracer();
    ep.tracing = tr.enabled();
    if (ep.tracing && !obsTracksNamed) {
        tr.setProcessName(obs::kPidSim, "SoC-Cluster (simulated)");
        tr.setProcessName(obs::kPidHost, "host wall clock");
        tr.setTrackName(obs::kPidSim, obs::kTrackControl, "control");
        tr.setTrackName(obs::kPidSim, obs::kTrackComm, "communication");
        tr.setTrackName(obs::kPidSim, obs::kTrackUpdate,
                        "optimizer update");
        for (std::size_t gi = 0; gi < roster.size(); ++gi) {
            tr.setTrackName(
                obs::kPidSim,
                obs::kTrackGroupBase + static_cast<int>(gi),
                "group " + std::to_string(gi) + " compute");
        }
        obsTracksNamed = true;
    }
    ep.epochStartS = simClockS;

    // Fault injection: open the epoch on the step/phase clock. This
    // fires leftovers from earlier epochs plus anything scheduled at
    // {epoch, 0, Compute}, and drops memoized sync costs (degrade
    // windows may have opened or closed since last epoch).
    if (faults) {
        advanceFaultClock(fault::FaultPoint{epochCounter, 0,
                                            fault::FaultPhase::Compute},
                          0);
        pricer.invalidate();
        // Heal sweep: partition windows that expired with the advance
        // above release their boards; paused groups resume and
        // isolated SoCs rejoin before any training work is scheduled.
        // A powered-off fleet has nothing to heal.
        if (!fleetDown)
            healMemberships();
    }

    // A rack power loss has the fleet down: volatile state is gone,
    // so no epoch makes progress until the caller restores from a
    // durable checkpoint (restoreAfterPowerLoss, or a fresh trainer +
    // loadCheckpoint). Distinct from a quorum pause: state was LOST,
    // not preserved.
    if (fleetDown) {
        rec.powerLost = true;
        tr.recordInstant("epoch skipped (fleet down)", "fault",
                         obs::kTrackControl, simClockS);
        return false;
    }

    // Time-attribution profiler (obs/profiler.hh): a passive span
    // consumer over the same simulated timings the records and traces
    // use. Every value it reads is computed by the training path
    // regardless, so enabling it cannot perturb the timeline
    // (asserted in test_parallel_determinism).
    ep.profiling = obs::profiler().enabled();
    if (ep.profiling) {
        registerProfilerLayers(roster.state(0).fp32, profLayersRegistered);
        obs::profiler().beginEpoch(roster.size());
        profEpochUse.assign(cluster.network().numResources(),
                            sim::ResourceUsage{});
    }

    // Quorum rule: with no partition side holding a majority, the
    // epoch pauses in place -- every group keeps its full state
    // (weights AND momentum), nothing trains, nothing is lost, and
    // training resumes the epoch the cut heals.
    if (roster.quorumLost()) {
        rec.paused = true;
        closeEpoch(ep, rec);
        return false;
    }

    if (cfg.dvfsEnabled)
        dvfs.step();

    // Profile alpha/beta before the epoch (the paper profiles the
    // validation set on CPU/NPU prior to each training epoch).
    profileAlpha();
    ep.fCpu = cpuFraction();

    // Cross-group shuffle: fresh IID shards each epoch.
    ep.shards = data::shardIid(bundle.train.size(), roster.size(), rng);
    ep.cursor.assign(roster.size(), 0);
    for (const auto &shard : ep.shards)
        ep.steps = std::max<std::size_t>(
            ep.steps, shard.size() / cfg.groupBatch);
    ep.steps = std::max<std::size_t>(ep.steps, 1);

    ep.updateS = compute.updateSeconds(profile);
    // Overlap needs the CG plan: without wave sequencing every ring
    // contends at once and there is no schedule to hide behind
    // compute, so the ablation's planning toggle also governs it.
    ep.overlap = cfg.overlapCommCompute && cfg.usePlanning;
    // Trace timestamps are laid out at paper scale directly, so the
    // dataset scale factor applies per span rather than at epoch end.
    ep.f = bundle.timeScale();
    return true;
}

bool
SoCFlowTrainer::runGroupStep(EpochRun &ep, std::size_t step)
{
    // A crash may have changed the group set; re-shard when it did
    // (the lost group's data redistributes over the survivors).
    const auto reshardIfChanged = [this, &ep] {
        if (roster.size() != ep.shards.size()) {
            ep.shards =
                data::shardIid(bundle.train.size(), roster.size(), rng);
            ep.cursor.assign(roster.size(), 0);
        }
    };

    // Step-granular faults land before this step's compute.
    advanceFaultClock(fault::FaultPoint{epochCounter, step,
                                        fault::FaultPhase::Compute},
                      step);
    reshardIfChanged();
    if (fleetDown)
        return false; // power lost before this step's compute
    ep.stepSync = pricer.stepSeconds();
    ep.t0 = simClockS;
    ep.stepComputeS = 0.0;

    // Snapshot the wave layout (and, profiling, the per-resource
    // attribution) matching the stepSync just read: a wave-phase fault
    // below may rebuild the topology and drop the pricer's memo before
    // chargeStep lays the step out.
    ep.waves = pricer.waveSeconds();
    if (ep.profiling)
        foldCapture(profEpochUse, pricer.stepCapture(), ep.f);

    // Take each group's batch from its shard and split it between
    // the CPU (FP32) and NPU (INT8) halves, serially and in group
    // order, so the cursors advance as in a serial loop.
    ep.outs.assign(roster.size(), GroupStepOut{});
    const double fCpu = ep.fCpu;
    for (std::size_t gi = 0; gi < roster.size(); ++gi) {
        const std::size_t shardSize = ep.shards[gi].size();
        std::size_t &cursor = ep.cursor[gi];
        if (cursor >= shardSize)
            continue;
        GroupStepOut &o = ep.outs[gi];
        o.begin = cursor;
        o.end = cursor = std::min(shardSize, cursor + cfg.groupBatch);
        const std::size_t size = o.end - o.begin;
        std::size_t nCpu = static_cast<std::size_t>(
            std::lround(fCpu * static_cast<double>(size)));
        if (cfg.npuOnly)
            nCpu = 0;
        else if (!cfg.useMixedPrecision)
            nCpu = size;
        else
            nCpu = std::clamp<std::size_t>(nCpu, 1, size - 1);
        o.split = o.begin + nCpu;
        o.ran = true;
    }

    // The two halves of every group step run as two pool items: even
    // items train the FP32 replica, odd items the INT8 replica. They
    // touch disjoint replicas (and no shared RNG) until the merge, and
    // each writes only its own result slot. All cross-group
    // accumulation (loss/acc/samples, the compute-time max, trace
    // spans) happens in the serial fold below, in ascending group
    // order, so the timeline stays bit-exact at any thread count
    // (DESIGN.md ch. 9).
    globalThreadPool().parallelFor(2 * roster.size(), [&](std::size_t it) {
        GroupStepOut &o = ep.outs[it / 2];
        GroupState &g = roster.state(it / 2);
        const auto &shard = ep.shards[it / 2];
        const bool cpu = it % 2 == 0;
        const std::size_t lo = cpu ? o.begin : o.split;
        const std::size_t hi = cpu ? o.split : o.end;
        if (!o.ran || lo == hi)
            return;
        auto [x, y] = bundle.train.batch(std::vector<std::size_t>(
            shard.begin() + static_cast<std::ptrdiff_t>(lo),
            shard.begin() + static_cast<std::ptrdiff_t>(hi)));
        if (cpu) {
            g.fp32.zeroGrad();
            o.rCpu = g.fp32.trainStep(x, y);
            g.sgd->step();
        } else {
            o.rNpu = g.int8Trainer->trainStep(x, y);
        }
    });

    // On-chip aggregation (Eq. 5), then intra-group sync (implicit:
    // the group replica is the synced state). Groups are independent
    // again here, one item each.
    globalThreadPool().parallelFor(roster.size(), [&](std::size_t gi) {
        GroupStepOut &o = ep.outs[gi];
        if (!o.ran)
            return;
        GroupState &g = roster.state(gi);
        if (o.split > o.begin && o.split < o.end)
            mergeReplicas(mpc, g.fp32, g.int8);
        else if (o.split == o.begin)
            g.fp32.copyParamsFrom(g.int8);
        else
            g.int8.copyParamsFrom(g.fp32);
        o.gSec = groupComputeSeconds(roster.members(gi), fCpu);
    });

    // Serial fold, ascending group order (bit-exact vs serial).
    obs::Tracer &tr = obs::tracer();
    for (std::size_t gi = 0; gi < roster.size(); ++gi) {
        const GroupStepOut &o = ep.outs[gi];
        if (!o.ran)
            continue;
        ep.train.loss +=
            o.rCpu.loss * static_cast<double>(o.rCpu.samples) +
            o.rNpu.loss * static_cast<double>(o.rNpu.samples);
        ep.train.acc +=
            o.rCpu.accuracy * static_cast<double>(o.rCpu.samples) +
            o.rNpu.accuracy * static_cast<double>(o.rNpu.samples);
        ep.train.samples += o.rCpu.samples + o.rNpu.samples;
        if (ep.tracing) {
            tr.recordSpan("compute", "compute",
                          obs::kTrackGroupBase + static_cast<int>(gi),
                          ep.t0, o.gSec * ep.f,
                          {{"group", static_cast<double>(gi)},
                           {"cpu_fraction", fCpu}});
        }
        ep.stepComputeS = std::max(ep.stepComputeS, o.gSec);
    }

    // This step's communication waves: mid-wave crashes and corrupted
    // chunks fire here. The wave itself is charged at the healthy cost
    // by chargeStep; each recovery path accounts its own extra seconds
    // (timeout + backoff + resumed tail) in the tally.
    advanceFaultClock(fault::FaultPoint{epochCounter, step,
                                        fault::FaultPhase::Wave1},
                      step);
    advanceFaultClock(fault::FaultPoint{epochCounter, step,
                                        fault::FaultPhase::Wave2},
                      step);
    reshardIfChanged();
    return !fleetDown;
}

void
SoCFlowTrainer::chargeStep(EpochRun &ep, EpochRecord &rec,
                           std::size_t step)
{
    // Timing: groups compute concurrently; syncs follow the CG plan
    // and overlap with the next step's compute when enabled.
    const double f = ep.f;
    const double computeS = ep.stepComputeS;
    const double syncS = ep.stepSync;
    const StepTimeline tl{computeS, syncS, ep.updateS, ep.overlap};
    rec.computeSeconds += computeS;
    rec.syncSeconds += syncS;
    rec.updateSeconds += ep.updateS;
    const double stepWallS = tl.wallS();
    rec.simSeconds += stepWallS;

    if (ep.profiling) {
        // The trace layout at paper scale on the epoch-relative clock;
        // the waves are shared by every group (kAllSlots).
        for (std::size_t gi = 0; gi < ep.outs.size(); ++gi) {
            const GroupStepOut &o = ep.outs[gi];
            profileCompute(gi, ep.profT, o.ran ? o.gSec * f : 0.0,
                           computeS * f);
        }
        profileStep(tl, obs::kAllSlots, ep.profT, f, ep.waves,
                    {obs::Phase::Wave1Sync, obs::Phase::Wave2Sync,
                     obs::Phase::Wave1Sync});
        obs::profiler().noteSlotCount(roster.size());
        ep.profT += stepWallS * f;
    }

    if (ep.tracing) {
        obs::Tracer &tr = obs::tracer();
        tl.forEachWave(ep.waves, ep.t0, f,
                       [&tr](std::size_t w, double t, double d) {
                           tr.recordSpan("sync wave", "comm",
                                         obs::kTrackComm, t, d,
                                         {{"wave", static_cast<double>(w)}});
                       });
        tr.recordSpan("update", "update", obs::kTrackUpdate,
                      tl.updateStart(ep.t0, f), ep.updateS * f);
        tr.recordSpan("step", "control", obs::kTrackControl, ep.t0,
                      stepWallS * f,
                      {{"step", static_cast<double>(step)}});
    }
    // Heartbeats: each live member's arrival lands at its own
    // compute-rate-scaled offset into the step, so a straggler's
    // cadence stretches (and the phi window adapts) instead of
    // tripping a binary timeout. Peak phi is sampled just before each
    // arrival -- the most suspicious instant of the gap.
    heartbeatSweep(ep.t0, computeS * f);
    simClockS += stepWallS * f;
    TrainerMetrics &m = trainerMetrics();
    m.steps.add(1.0);
    m.stepComputeS.observe(computeS);
    m.stepSyncS.observe(syncS);

    // Per-group collective-latency sketches (the per-epoch leader
    // fan-in merges these into the *_cluster series).
    if (groupDigests.size() != roster.size()) {
        groupDigests.clear();
        for (std::size_t gi = 0; gi < roster.size(); ++gi) {
            groupDigests.push_back(&obs::metrics().tdigest(
                "collective_seconds_digest",
                {{"group", std::to_string(gi)}}));
        }
    }
    for (std::size_t gi = 0; gi < roster.size(); ++gi) {
        const std::size_t wave =
            gi < plan.commGroup.size() ? plan.commGroup[gi] : 0;
        groupDigests[gi]->observe(
            wave < ep.waves.size() ? ep.waves[wave] : syncS);
    }

    // Energy: CPU/NPU busy shares plus comm power.
    const double batch = static_cast<double>(cfg.groupBatch) *
                         static_cast<double>(roster.size());
    ep.cpuSocS += ep.fCpu * batch * profile.cpuMsPerSample / 1000.0;
    ep.npuSocS += (1.0 - ep.fCpu) * batch * profile.cpuMsPerSample /
                  (profile.npuSpeedup * 1000.0);
    ep.commSocS += syncS * static_cast<double>(cfg.numSocs);
}

void
SoCFlowTrainer::aggregateLeaders(EpochRun &ep, EpochRecord &rec)
{
    // Delayed cross-group aggregation (leaders' ring + broadcast).
    // Chunks travel CRC32-tagged; pending GradCorrupt events from the
    // injector hit arriving chunks and force retransmissions. A burst
    // outlasting the retry budget drops the whole aggregation for
    // this epoch (groups keep their local weights -- a deferred
    // consensus, never a silently corrupt one).
    TrainerMetrics &m = trainerMetrics();
    obs::Tracer &tr = obs::tracer();
    if (roster.size() > 1) {
        // Every leader-ring contribution is stamped with the group's
        // generation; stale stamps are fenced out before the average
        // forms (split-brain guard, membership/membership.hh). In
        // steady state every active group is current -- the fence
        // only fires on traffic replayed across a membership change.
        std::vector<std::vector<float>> weights;
        weights.reserve(roster.size());
        for (const auto &g : roster.active()) {
            if (gate.admit(g.state->generation))
                weights.push_back(g.state->fp32.flatParams());
            else
                ++fencedTotal;
        }
        std::vector<std::vector<float> *> ptrs;
        for (auto &w : weights)
            ptrs.push_back(&w);
        std::function<bool()> corrupt;
        if (faults)
            corrupt = [this] { return faults->corruptNextChunk(); };
        const std::size_t chunkElems = std::max<std::size_t>(
            1, roster.state(0).fp32.flatParams().size() / roster.size());
        const collectives::VerifiedReduceOutcome vr =
            collectives::verifiedAllReduceAverage(
                ptrs, chunkElems, corrupt,
                engine.syncPolicy().maxRetries);
        tally.gradCorruptDetected += vr.corruptDetected;
        tally.chunksRetransmitted += vr.retransmitted;
        tally.recoverySeconds += static_cast<double>(vr.retransmitted) *
                                 engine.syncPolicy().backoffBaseS;
        if (vr.applied && !weights.empty()) {
            // Fenced groups could not contribute, but they still
            // receive the consensus and are re-stamped current.
            for (const auto &g : roster.active()) {
                g.state->fp32.setFlatParams(weights.front());
                g.state->int8.setFlatParams(weights.front());
                g.state->generation = gate.current();
            }
        } else {
            ++tally.syncFailures;
            m.syncFailures.add(1.0);
            warn("epoch ", epochCounter,
                 " cross-group aggregation dropped after ",
                 vr.corruptDetected, " corrupt chunks: ",
                 collectives::syncErrorName(
                     collectives::SyncError::CorruptRetryExhausted));
            tr.recordInstant("aggregation dropped", "fault",
                             obs::kTrackControl, simClockS);
            obs::flightRecorder().dumpPostMortem(
                "corrupt-retry-exhausted", timeline.value());
        }
        timeline.mixAll(vr.corruptDetected, vr.retransmitted, vr.applied);
    }
    // Delayed aggregation happens once per epoch and is not scaled.
    const double epochSync = pricer.epochSeconds();
    rec.syncSeconds += epochSync;
    rec.simSeconds += epochSync;
    ep.commSocS += epochSync * static_cast<double>(cfg.numSocs);
    if (ep.tracing) {
        tr.recordSpan("epoch sync", "comm", obs::kTrackComm, simClockS,
                      epochSync,
                      {{"groups", static_cast<double>(roster.size())}});
    }
    simClockS += epochSync;

    if (ep.profiling) {
        obs::Profiler &prof = obs::profiler();
        prof.addSpan(obs::kAllSlots, obs::Phase::HierarchicalSync,
                     ep.profT, ep.profT + epochSync);
        prof.noteEpochComm(epochSync);
        prof.attributeCommCritical(epochSync, epochSync);
        // The epoch aggregation runs once at paper scale (unscaled).
        foldCapture(profEpochUse, pricer.epochCapture(), 1.0);
        ep.profT += epochSync;
    }

    // Per-group digest fan-in: each leader ships its group's
    // collective-latency sketch with the epoch aggregation (t-digests
    // merge losslessly), and the merged cluster-wide view exports as
    // collective_seconds_digest_cluster. reset() first -- merge is
    // additive and the per-group sketches are cumulative.
    if (!groupDigests.empty()) {
        m.clusterDigest.reset();
        for (obs::TDigest *d : groupDigests)
            m.clusterDigest.merge(*d);
    }
}

void
SoCFlowTrainer::closeEpoch(EpochRun &ep, EpochRecord &rec)
{
    // Recovery work (timeouts + backoff + resumed/degraded re-syncs,
    // partition detection, rejoin catch-up) happened once at paper
    // scale, like the epoch aggregation. Every exit -- trained,
    // paused or powered off -- drains the whole tally.
    rec.crashes = tally.crashes;
    rec.recoverySeconds = tally.recoverySeconds;
    rec.waveResumes = tally.waveResumes;
    rec.leaderElections = tally.leaderElections;
    rec.gradCorruptDetected = tally.gradCorruptDetected;
    rec.chunksRetransmitted = tally.chunksRetransmitted;
    rec.syncFailures = tally.syncFailures;
    rec.partitions = tally.partitions;
    rec.rejoins = tally.rejoins;
    rec.fencedStaleMsgs = fencedTotal - fencedReported;
    fencedReported = fencedTotal;
    rec.syncSeconds += tally.recoverySeconds;
    rec.simSeconds += tally.recoverySeconds;
    tally = EpochRecord{};
    rec.energyJoules = meter.totalJoules();
    ep.train.fill(rec);

    if (ep.profiling) {
        profileRecovery(obs::kAllSlots, ep.profT, rec.recoverySeconds,
                        rec.paused);
        ep.profT += rec.recoverySeconds;
    }

    TrainerMetrics &m = trainerMetrics();
    obs::Tracer &tr = obs::tracer();
    if (rec.paused) {
        ++epochCounter;
        // 'Q': quorum pause
        timeline.mixAll(0x51, epochCounter, gate.current());
        m.pausedEpochs.add(1.0);
        tr.recordInstant("epoch paused (no quorum)", "fault",
                         obs::kTrackControl, simClockS);
        inform("epoch ", epochCounter - 1,
               " paused: no partition side holds quorum; state "
               "preserved, awaiting heal");
    } else if (!rec.powerLost) {
        for (const auto &g : roster.active()) {
            g.state->sgd->decayLearningRate();
            g.state->int8Trainer->optimizer().decayLearningRate();
        }
        ++epochCounter;
        timeline.mixAll(epochCounter, rec.simSeconds, gate.current());
        if (ep.tracing) {
            tr.recordSpan("epoch", "control", obs::kTrackControl,
                          ep.epochStartS, simClockS - ep.epochStartS,
                          {{"epoch", static_cast<double>(epochCounter)},
                           {"sim_seconds", rec.simSeconds}});
        }
        m.epochs.add(1.0);
        m.alpha.set(mpc.alpha());
        m.cpuFraction.set(ep.fCpu);
        m.activeGroups.set(static_cast<double>(roster.size()));
        if (ep.profiling)
            noteResourceUsage(cluster.network(), profEpochUse);
    }
    if (ep.profiling) {
        obs::profiler().noteTimelineHash(timeline.value());
        obs::profiler().endEpoch(rec.simSeconds);
    }
}

} // namespace core
} // namespace socflow
