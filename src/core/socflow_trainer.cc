#include "core/socflow_trainer.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "collectives/reduce.hh"
#include "core/checkpoint.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace core {

namespace {

/** Magic prefix of the in-memory checkpoint blob ("SFCKPT1\0"). */
constexpr std::uint64_t kBlobMagic = 0x5346434b50543100ULL;

/**
 * Cached handles into the metrics registry for the trainer hot path
 * (registration takes the registry mutex; these lookups run once).
 */
struct TrainerMetrics {
    obs::Counter &steps = obs::metrics().counter("trainer_steps_total");
    obs::Counter &epochs = obs::metrics().counter("trainer_epochs_total");
    obs::Counter &preemptions =
        obs::metrics().counter("trainer_preemptions_total");
    obs::Counter &rebuilds =
        obs::metrics().counter("trainer_topology_rebuilds_total");
    obs::Counter &checkpointSaves =
        obs::metrics().counter("trainer_checkpoint_saves_total");
    obs::Counter &checkpointLoads =
        obs::metrics().counter("trainer_checkpoint_loads_total");
    obs::Counter &checkpointErrors =
        obs::metrics().counter("trainer_checkpoint_errors_total");
    obs::Counter &crashes = obs::metrics().counter("trainer_crashes_total");
    obs::Counter &waveResumes = obs::metrics().counter("wave_resume_total");
    obs::Counter &leaderElections =
        obs::metrics().counter("leader_elections_total");
    obs::Counter &syncFailures =
        obs::metrics().counter("trainer_sync_failures_total");
    obs::Counter &rejoins = obs::metrics().counter("rejoin_total");
    obs::Counter &pausedEpochs =
        obs::metrics().counter("trainer_paused_epochs_total");
    obs::Gauge &suspicionMax =
        obs::metrics().gauge("membership_suspicion_phi_max");
    obs::Gauge &alpha = obs::metrics().gauge("trainer_alpha");
    obs::Gauge &cpuFraction = obs::metrics().gauge("trainer_cpu_fraction");
    obs::Gauge &activeGroups = obs::metrics().gauge("trainer_active_groups");
    obs::Histogram &stepComputeS =
        obs::metrics().histogram("trainer_step_compute_seconds");
    obs::Histogram &stepSyncS =
        obs::metrics().histogram("trainer_step_sync_seconds");
    obs::Histogram &recoveryS =
        obs::metrics().histogram("fault_recovery_seconds");
    obs::TDigest &recoveryDigest =
        obs::metrics().tdigest("fault_recovery_seconds_digest");
    obs::TDigest &rejoinDigest =
        obs::metrics().tdigest("rejoin_seconds_digest");
    obs::TDigest &clusterDigest =
        obs::metrics().tdigest("collective_seconds_digest_cluster");
};

TrainerMetrics &
trainerMetrics()
{
    static TrainerMetrics m;
    return m;
}

} // namespace

SoCFlowTrainer::GroupState::GroupState(std::vector<sim::SocId> socs_in,
                                       const nn::Model &proto,
                                       const nn::SgdConfig &scfg,
                                       const quant::QuantConfig &qcfg,
                                       std::uint64_t seed)
    : socs(std::move(socs_in)), fp32(proto), int8(proto)
{
    sgd = std::make_unique<nn::Sgd>(fp32, scfg);
    int8Trainer =
        std::make_unique<quant::Int8Trainer>(int8, scfg, qcfg, seed);
}

void
SoCFlowTrainer::GroupState::restoreFrom(const std::vector<float> &w)
{
    fp32.setFlatParams(w);
    int8.setFlatParams(w);
    sgd->resetState();
}

SoCFlowTrainer::SoCFlowTrainer(SoCFlowConfig config,
                               const data::DataBundle &bundle_in,
                               const std::vector<float> *initial)
    : cfg(std::move(config)), bundle(bundle_in),
      profile(sim::modelProfile(cfg.modelFamily)),
      cluster(clusterFor(cfg.clusterTemplate, cfg.numSocs)),
      engine(cluster), compute(),
      meter(), dvfs(cfg.numSocs, cfg.dvfs, cfg.seed ^ 0xdf5),
      fullMapping(mapGroups(cfg.numSocs, cluster.config().socsPerBoard,
                            cfg.numGroups, cfg.mapping)),
      mpc(profile.cpuMsPerSample,
          profile.cpuMsPerSample / profile.npuSpeedup),
      rng(cfg.seed)
{
    if (cfg.numGroups == 0 || cfg.numGroups > cfg.numSocs)
        fatal("invalid group count ", cfg.numGroups);
    engine.setSyncPolicy(cfg.sync);
    bootGroups(initial);
}

void
SoCFlowTrainer::bootGroups(const std::vector<float> *initial)
{
    membership::PhiConfig pc;
    pc.threshold = cfg.phiThreshold;
    pc.windowSize = cfg.phiWindow;
    detector = membership::PhiAccrualDetector(pc);

    const nn::Model proto = buildInitialModel(cfg.modelFamily, bundle.spec,
                                              cfg.seed, initial);

    mapping = fullMapping;
    plan = planCommGroups(
        conflictGraph(mapping, cluster.config().socsPerBoard));
    groups.clear();
    groups.reserve(mapping.numGroups());
    for (std::size_t g = 0; g < mapping.numGroups(); ++g) {
        groups.push_back(std::make_unique<GroupState>(
            mapping.members[g], proto, cfg.sgd, cfg.quant,
            cfg.seed + 101 * (g + 1)));
    }

    groupDigests.clear();
    invalidateSyncCaches();
    obsTracksNamed = false;
}

double
SoCFlowTrainer::cpuFraction() const
{
    if (cfg.npuOnly)
        return 0.0;
    if (!cfg.useMixedPrecision)
        return 1.0;
    if (cfg.fixedCpuFraction >= 0.0)
        return cfg.fixedCpuFraction;
    return mpc.cpuFraction();
}

std::size_t
SoCFlowTrainer::mappingConflictC() const
{
    return conflictC(mapping, cluster.config().socsPerBoard,
                     cluster.config().numBoards());
}

double
SoCFlowTrainer::groupComputeSeconds(const GroupState &g,
                                    double cpu_fraction) const
{
    const double batch = static_cast<double>(cfg.groupBatch);
    const double cpuMs = profile.cpuMsPerSample;
    const double npuMs = profile.cpuMsPerSample / profile.npuSpeedup;
    // Per-sample time of one SoC running its CPU and NPU in parallel
    // on its share, given the batch split.
    const double perSampleMs =
        std::max(cpu_fraction * cpuMs, (1.0 - cpu_fraction) * npuMs);

    // Effective per-SoC rate: DVFS clock times any injected
    // straggler slowdown.
    const auto rate = [this](sim::SocId s) {
        double r = dvfs.clockFactor(s);
        if (faults)
            r *= faults->computeFactor(s);
        return r;
    };

    if (cfg.rebalanceUnderclock) {
        // Workload rebalancing: shares proportional to clock factor,
        // so the group finishes together.
        double clockSum = 0.0;
        for (sim::SocId s : g.socs)
            clockSum += rate(s);
        return perSampleMs * batch / (1000.0 * clockSum);
    }
    // Equal shares: the slowest SoC dominates.
    double minClock = 1.0;
    for (sim::SocId s : g.socs)
        minClock = std::min(minClock, rate(s));
    const double perSoc = batch / static_cast<double>(g.socs.size());
    return perSampleMs * perSoc / (1000.0 * minClock);
}

SyncSchedule
SoCFlowTrainer::priceStepSync() const
{
    const double bytes = profile.paramBytes();
    if (cfg.usePlanning)
        return planSyncSchedule(engine, mapping, plan, bytes);
    SyncSchedule sched;
    sched.total = unplannedSyncCost(engine, mapping, bytes);
    sched.waveSeconds.assign(1, sched.total.seconds);
    return sched;
}

double
SoCFlowTrainer::priceLeaderSync() const
{
    if (groups.size() <= 1)
        return 0.0;
    std::vector<sim::SocId> leaders;
    for (const auto &g : groups)
        leaders.push_back(g->socs.front());
    const double aggregateS = leaderAggregateSeconds(std::move(leaders));
    // Leaders broadcast the averaged weights inside their groups
    // (groups run concurrently; charge the slowest).
    double worstBcast = 0.0;
    for (const auto &g : groups) {
        if (g->socs.size() <= 1)
            continue;
        std::vector<sim::SocId> members(g->socs.begin() + 1,
                                        g->socs.end());
        worstBcast = std::max(
            worstBcast,
            engine.broadcast(g->socs.front(), members,
                             profile.paramBytes())
                .seconds);
    }
    return aggregateS + worstBcast;
}

double
SoCFlowTrainer::stepSyncSeconds() const
{
    if (cachedStepSyncS >= 0.0)
        return cachedStepSyncS;
    SyncSchedule sched = priceStepSync();
    cachedWaveS = std::move(sched.waveSeconds);
    cachedStepSyncS = sched.total.seconds;
    return cachedStepSyncS;
}

double
SoCFlowTrainer::epochSyncSeconds() const
{
    if (cachedEpochSyncS >= 0.0)
        return cachedEpochSyncS;
    double total = priceLeaderSync();
    // Cross-group data shuffle: each SoC receives a fresh shard from
    // the control plane through the 20 Gbps switch.
    const double shardBytes =
        static_cast<double>(bundle.train.size()) * 4.0 *
        static_cast<double>(bundle.train.sampleNumel()) /
        static_cast<double>(cfg.numSocs);
    total += shardBytes / (cluster.config().socLinkBps / 8.0) +
             cluster.config().messageLatencyS;
    cachedEpochSyncS = total;
    return total;
}

void
SoCFlowTrainer::invalidateSyncCaches()
{
    cachedStepSyncS = -1.0;
    cachedEpochSyncS = -1.0;
    cachedWaveS.clear();
    profCaptureValid = false;
}

double
SoCFlowTrainer::leaderAggregateSeconds(
    std::vector<sim::SocId> leaders) const
{
    // Order the ring by SoC id so neighbouring leaders share boards
    // (and racks) where possible -- fewer NIC and uplink crossings.
    std::sort(leaders.begin(), leaders.end());
    if (cluster.numRacks() > 1) {
        // Third aggregation tier (DESIGN.md ch. 10): per-rack leader
        // rings reduce locally, then a cluster ring over one
        // representative per rack crosses the core.
        return engine
            .hierarchicalAllReduce(leaders, profile.paramBytes())
            .seconds;
    }
    return engine.ringAllReduce(leaders, profile.paramBytes()).seconds;
}

void
SoCFlowTrainer::captureSyncAttribution() const
{
    // Replay the memoized sync pricers with a capture sink armed:
    // same inputs, same const code paths, results discarded. The sink
    // suppresses the replay's metric side effects
    // (sim/flow_network.hh beginCapture), so this cannot perturb the
    // timeline -- it only prices where the sync time goes.
    const sim::FlowNetwork &net = cluster.network();
    profStepCap = sim::FlowCapture{};
    profEpochCap = sim::FlowCapture{};
    net.beginCapture(&profStepCap);
    priceStepSync();
    net.endCapture();
    net.beginCapture(&profEpochCap);
    priceLeaderSync();
    net.endCapture();
    profCaptureValid = true;
}

void
SoCFlowTrainer::foldCapture(const sim::FlowCapture &cap, double scale)
{
    if (profEpochUse.size() < cap.usage.size())
        profEpochUse.resize(cap.usage.size());
    for (std::size_t r = 0; r < cap.usage.size(); ++r) {
        const sim::ResourceUsage &u = cap.usage[r];
        profEpochUse[r].busySeconds += u.busySeconds * scale;
        profEpochUse[r].bytes += u.bytes * scale;
        profEpochUse[r].bindingSeconds += u.bindingSeconds * scale;
    }
}

void
SoCFlowTrainer::registerProfilerLayers()
{
    if (profLayersRegistered || groups.empty())
        return;
    std::vector<std::pair<std::string, std::size_t>> table;
    for (const nn::Param *p : groups.front()->fp32.params())
        table.emplace_back(p->name, p->value.numel());
    obs::profiler().registerLayers(table);
    profLayersRegistered = true;
}

void
SoCFlowTrainer::profileAlpha()
{
    if (!cfg.useMixedPrecision || cfg.fixedCpuFraction >= 0.0 ||
        cfg.npuOnly)
        return;
    const std::size_t n =
        std::min(cfg.validationSamples, bundle.train.size());
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = rng.uniformInt(bundle.train.size());
    auto [x, y] = bundle.train.batch(idx);
    GroupState &g = *groups.front();

    // Confidence probe. The paper profiles the CPU/NPU error gap on
    // a validation slice (Eq. 4 uses logits). Because our on-chip
    // merge re-synchronizes the replicas every batch, the *logit*
    // cosine saturates near 1; the *gradient* cosine between the
    // FP32 and INT8 paths (UI8's direction-deviation metric, which
    // the paper builds on) reproduces the reported exponential decay
    // of alpha as training converges, so the probe uses gradients.
    g.fp32.zeroGrad();
    g.fp32.trainStep(x, y);
    std::vector<float> gradFp = g.fp32.flatGrads();
    g.fp32.zeroGrad();
    std::vector<float> gradInt = g.int8Trainer->probeGradients(x, y);

    const std::size_t flat = gradFp.size();
    tensor::Tensor tf =
        tensor::Tensor::fromValues({flat}, std::move(gradFp));
    tensor::Tensor ti =
        tensor::Tensor::fromValues({flat}, std::move(gradInt));
    mpc.updateAlpha(tf, ti);
}

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
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
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
        invalidateSyncCaches();
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
        registerProfilerLayers();
        obs::profiler().beginEpoch(groups.size());
        profEpochUse.assign(cluster.network().numResources(),
                            sim::ResourceUsage{});
    }

    // Quorum rule: with no partition side holding a majority, the
    // epoch pauses in place -- every group keeps its full state
    // (weights AND momentum), nothing trains, nothing is lost, and
    // training resumes the epoch the cut heals.
    if (quorumLost) {
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
    ep.shards = data::shardIid(bundle.train.size(), groups.size(), rng);
    ep.cursor.assign(groups.size(), 0);
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
        if (groups.size() != ep.shards.size()) {
            ep.shards =
                data::shardIid(bundle.train.size(), groups.size(), rng);
            ep.cursor.assign(groups.size(), 0);
        }
    };

    // Step-granular faults land before this step's compute.
    advanceFaultClock(fault::FaultPoint{epochCounter, step,
                                        fault::FaultPhase::Compute},
                      step);
    reshardIfChanged();
    if (fleetDown)
        return false; // power lost before this step's compute
    ep.stepSync = stepSyncSeconds();
    ep.t0 = simClockS;
    ep.stepComputeS = 0.0;

    // Profiler: snapshot the wave layout and per-resource attribution
    // matching the stepSync just read -- a wave-phase fault below may
    // rebuild the topology and drop both caches before the spans are
    // laid out.
    if (ep.profiling) {
        if (!profCaptureValid)
            captureSyncAttribution();
        ep.profWaves = cachedWaveS;
        foldCapture(profStepCap, ep.f);
    }

    // Per-group training steps are independent until the wave sync:
    // each worker touches only its own GroupState, its own cursor
    // slot, and its own result slot. All cross-group accumulation
    // (loss/acc/samples, the compute-time max, trace spans) happens in
    // the serial fold below, in ascending group order -- the exact
    // accumulation order of the old serial loop, so the timeline
    // stays bit-exact at any thread count (DESIGN.md ch. 9).
    ep.outs.assign(groups.size(), GroupStepOut{});
    const double fCpu = ep.fCpu;
    globalThreadPool().parallelFor(groups.size(), [&](std::size_t gi) {
        GroupState &g = *groups[gi];
        const auto &shard = ep.shards[gi];
        if (shard.empty())
            return;

        // Assemble this group's batch from its shard.
        std::size_t &cursor = ep.cursor[gi];
        std::vector<std::size_t> batchIdx;
        batchIdx.reserve(cfg.groupBatch);
        for (std::size_t i = 0;
             i < cfg.groupBatch && cursor < shard.size(); ++i, ++cursor)
            batchIdx.push_back(shard[cursor]);
        if (batchIdx.empty())
            return;

        // Split CPU/NPU portions of the batch.
        std::size_t nCpu = static_cast<std::size_t>(
            std::lround(fCpu * static_cast<double>(batchIdx.size())));
        if (cfg.npuOnly)
            nCpu = 0;
        else if (!cfg.useMixedPrecision)
            nCpu = batchIdx.size();
        else
            nCpu = std::clamp<std::size_t>(nCpu, 1, batchIdx.size() - 1);

        GroupStepOut &o = ep.outs[gi];
        if (nCpu > 0) {
            std::vector<std::size_t> front(batchIdx.begin(),
                                           batchIdx.begin() + nCpu);
            auto [xc, yc] = bundle.train.batch(front);
            g.fp32.zeroGrad();
            o.rCpu = g.fp32.trainStep(xc, yc);
            g.sgd->step();
        }
        if (nCpu < batchIdx.size()) {
            std::vector<std::size_t> back(batchIdx.begin() + nCpu,
                                          batchIdx.end());
            auto [xn, yn] = bundle.train.batch(back);
            o.rNpu = g.int8Trainer->trainStep(xn, yn);
        }

        // On-chip aggregation (Eq. 5), then intra-group sync
        // (implicit: the group replica is the synced state).
        if (nCpu > 0 && nCpu < batchIdx.size()) {
            std::vector<float> merged;
            mpc.mergeWeights(g.fp32.flatParams(), g.int8.flatParams(),
                             merged);
            g.fp32.setFlatParams(merged);
            g.int8.setFlatParams(merged);
        } else if (nCpu == 0) {
            g.fp32.setFlatParams(g.int8.flatParams());
        } else {
            g.int8.setFlatParams(g.fp32.flatParams());
        }
        o.gSec = groupComputeSeconds(g, fCpu);
        o.ran = true;
    });

    // Serial fold, ascending group order (bit-exact vs serial).
    obs::Tracer &tr = obs::tracer();
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const GroupStepOut &o = ep.outs[gi];
        if (!o.ran)
            continue;
        ep.lossSum += o.rCpu.loss * static_cast<double>(o.rCpu.samples) +
                      o.rNpu.loss * static_cast<double>(o.rNpu.samples);
        ep.accSum +=
            o.rCpu.accuracy * static_cast<double>(o.rCpu.samples) +
            o.rNpu.accuracy * static_cast<double>(o.rNpu.samples);
        ep.sampleSum += o.rCpu.samples + o.rNpu.samples;
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
    rec.computeSeconds += computeS;
    rec.syncSeconds += syncS;
    rec.updateSeconds += ep.updateS;
    const double stepWallS =
        ep.overlap ? std::max(computeS, syncS) + ep.updateS
                   : computeS + syncS + ep.updateS;
    rec.simSeconds += stepWallS;

    if (ep.profiling)
        profileStep(ep, stepWallS);

    if (ep.tracing) {
        // Sync waves: concurrent with compute under the CG plan,
        // strictly after it otherwise; waves run in sequence.
        obs::Tracer &tr = obs::tracer();
        double waveT = ep.overlap ? ep.t0 : ep.t0 + computeS * f;
        for (std::size_t w = 0; w < cachedWaveS.size(); ++w) {
            tr.recordSpan("sync wave", "comm", obs::kTrackComm, waveT,
                          cachedWaveS[w] * f,
                          {{"wave", static_cast<double>(w)}});
            waveT += cachedWaveS[w] * f;
        }
        tr.recordSpan("update", "update", obs::kTrackUpdate,
                      ep.t0 + (stepWallS - ep.updateS) * f,
                      ep.updateS * f);
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
    if (groupDigests.size() != groups.size()) {
        groupDigests.clear();
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            groupDigests.push_back(&obs::metrics().tdigest(
                "collective_seconds_digest",
                {{"group", std::to_string(gi)}}));
        }
    }
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const std::size_t wave =
            gi < plan.commGroup.size() ? plan.commGroup[gi] : 0;
        groupDigests[gi]->observe(
            wave < cachedWaveS.size() ? cachedWaveS[wave] : syncS);
    }

    // Energy: CPU/NPU busy shares plus comm power.
    const double batch = static_cast<double>(cfg.groupBatch) *
                         static_cast<double>(groups.size());
    ep.cpuSocS += ep.fCpu * batch * profile.cpuMsPerSample / 1000.0;
    ep.npuSocS += (1.0 - ep.fCpu) * batch * profile.cpuMsPerSample /
                  (profile.npuSpeedup * 1000.0);
    ep.commSocS += syncS * static_cast<double>(cfg.numSocs);
}

void
SoCFlowTrainer::profileStep(EpochRun &ep, double step_wall_s)
{
    // Span layout mirrors the trace spans, at paper scale on the
    // epoch-relative clock. Per group: forward is the first third of
    // its compute, the gap to the slowest group is straggler stall.
    // Waves are shared (kAllSlots) and tile the step's sync window
    // exactly (conservation); the residual guard absorbs per-wave fp
    // rounding and a mid-step cache drop.
    obs::Profiler &prof = obs::profiler();
    const double f = ep.f;
    const double base = ep.profT;
    const double cMaxS = ep.stepComputeS * f;
    const double syncS = ep.stepSync * f;
    for (std::size_t gi = 0; gi < ep.outs.size(); ++gi) {
        const double cg = ep.outs[gi].ran ? ep.outs[gi].gSec * f : 0.0;
        if (cg > 0.0) {
            prof.addSpan(gi, obs::Phase::Forward, base, base + cg / 3.0);
            prof.addSpan(gi, obs::Phase::Backward, base + cg / 3.0,
                         base + cg);
        }
        if (cg < cMaxS)
            prof.addSpan(gi, obs::Phase::Stall, base + cg, base + cMaxS);
    }
    const double waveStart = ep.overlap ? base : base + cMaxS;
    double waveT = waveStart;
    for (std::size_t w = 0; w < ep.profWaves.size(); ++w) {
        prof.addSpan(obs::kAllSlots,
                     w == 0 ? obs::Phase::Wave1Sync
                            : obs::Phase::Wave2Sync,
                     waveT, waveT + ep.profWaves[w] * f);
        waveT += ep.profWaves[w] * f;
    }
    if (waveT < waveStart + syncS)
        prof.addSpan(obs::kAllSlots, obs::Phase::Wave1Sync, waveT,
                     waveStart + syncS);
    prof.addSpan(obs::kAllSlots, obs::Phase::Update,
                 base + (step_wall_s - ep.updateS) * f,
                 base + step_wall_s * f);
    prof.noteStepWindows(cMaxS, syncS, ep.overlap);
    // Critical path of the step: under overlap the longer of
    // compute/comm binds and relieving it saves the excess; without
    // overlap both windows are fully critical. Comm shares resolve
    // against the flow capture at epoch close.
    if (ep.overlap) {
        if (cMaxS >= syncS)
            prof.attributeCritical("compute", cMaxS, cMaxS - syncS);
        else
            prof.attributeCommCritical(syncS, syncS - cMaxS);
    } else {
        prof.attributeCritical("compute", cMaxS, cMaxS);
        prof.attributeCommCritical(syncS, syncS);
    }
    prof.attributeCritical("optimizer", ep.updateS * f,
                           ep.updateS * f);
    prof.noteSlotCount(groups.size());
    ep.profT += step_wall_s * f;
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
    if (groups.size() > 1) {
        // Every leader-ring contribution is stamped with the group's
        // generation; stale stamps are fenced out before the average
        // forms (split-brain guard, membership/membership.hh). In
        // steady state every active group is current -- the fence
        // only fires on traffic replayed across a membership change.
        std::vector<std::vector<float>> weights;
        weights.reserve(groups.size());
        for (auto &g : groups) {
            if (gate.admit(g->generation))
                weights.push_back(g->fp32.flatParams());
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
            1, groups.front()->fp32.flatParams().size() / groups.size());
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
            for (auto &g : groups) {
                g->fp32.setFlatParams(weights.front());
                g->int8.setFlatParams(weights.front());
                g->generation = gate.current();
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
        timeline.mix(static_cast<std::uint64_t>(vr.corruptDetected));
        timeline.mix(static_cast<std::uint64_t>(vr.retransmitted));
        timeline.mix(std::uint64_t{vr.applied ? 1u : 0u});
    }
    // Delayed aggregation happens once per epoch and is not scaled.
    const double epochSync = epochSyncSeconds();
    rec.syncSeconds += epochSync;
    rec.simSeconds += epochSync;
    ep.commSocS += epochSync * static_cast<double>(cfg.numSocs);
    if (ep.tracing) {
        tr.recordSpan("epoch sync", "comm", obs::kTrackComm, simClockS,
                      epochSync,
                      {{"groups", static_cast<double>(groups.size())}});
    }
    simClockS += epochSync;

    if (ep.profiling) {
        obs::Profiler &prof = obs::profiler();
        if (!profCaptureValid)
            captureSyncAttribution();
        prof.addSpan(obs::kAllSlots, obs::Phase::HierarchicalSync,
                     ep.profT, ep.profT + epochSync);
        prof.noteEpochComm(epochSync);
        prof.attributeCommCritical(epochSync, epochSync);
        // The epoch aggregation runs once at paper scale (unscaled).
        foldCapture(profEpochCap, 1.0);
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
    tally = RecoveryTally{};
    rec.energyJoules = meter.totalJoules();
    rec.trainLoss = ep.sampleSum ? ep.lossSum / ep.sampleSum : 0.0;
    rec.trainAcc = ep.sampleSum ? ep.accSum / ep.sampleSum : 0.0;

    obs::Profiler &prof = obs::profiler();
    if (ep.profiling && (rec.paused || rec.recoverySeconds > 0.0)) {
        prof.addSpan(obs::kAllSlots,
                     rec.paused ? obs::Phase::Paused
                                : obs::Phase::Recovery,
                     ep.profT, ep.profT + rec.recoverySeconds);
        prof.attributeCritical("fault-recovery", rec.recoverySeconds,
                               rec.recoverySeconds);
        ep.profT += rec.recoverySeconds;
    }

    TrainerMetrics &m = trainerMetrics();
    obs::Tracer &tr = obs::tracer();
    if (rec.paused) {
        ++epochCounter;
        timeline.mix(std::uint64_t{0x51}); // 'Q': quorum pause
        timeline.mix(static_cast<std::uint64_t>(epochCounter));
        timeline.mix(gate.current());
        m.pausedEpochs.add(1.0);
        tr.recordInstant("epoch paused (no quorum)", "fault",
                         obs::kTrackControl, simClockS);
        inform("epoch ", epochCounter - 1,
               " paused: no partition side holds quorum; state "
               "preserved, awaiting heal");
    } else if (!rec.powerLost) {
        for (auto &g : groups) {
            g->sgd->decayLearningRate();
            g->int8Trainer->optimizer().decayLearningRate();
        }
        ++epochCounter;
        timeline.mix(static_cast<std::uint64_t>(epochCounter));
        timeline.mix(rec.simSeconds);
        timeline.mix(gate.current());
        if (ep.tracing) {
            tr.recordSpan("epoch", "control", obs::kTrackControl,
                          ep.epochStartS, simClockS - ep.epochStartS,
                          {{"epoch", static_cast<double>(epochCounter)},
                           {"sim_seconds", rec.simSeconds}});
        }
        m.epochs.add(1.0);
        m.alpha.set(mpc.alpha());
        m.cpuFraction.set(ep.fCpu);
        m.activeGroups.set(static_cast<double>(groups.size()));
        if (ep.profiling) {
            const sim::FlowNetwork &net = cluster.network();
            for (sim::ResourceId r = 0; r < profEpochUse.size(); ++r) {
                const sim::ResourceUsage &u = profEpochUse[r];
                if (u.busySeconds <= 0.0)
                    continue;
                prof.noteResourceUsage(net.name(r), net.capacity(r),
                                       u.busySeconds, u.bytes,
                                       u.bindingSeconds);
            }
        }
    }
    if (ep.profiling) {
        prof.noteTimelineHash(timeline.value());
        prof.endEpoch(rec.simSeconds);
    }
}

double
SoCFlowTrainer::testAccuracy()
{
    return core::testAccuracy(groups.front()->fp32, bundle.test);
}

void
SoCFlowTrainer::preemptGroup(std::size_t group_index)
{
    if (groups.size() <= 1)
        fatal("cannot preempt the last remaining logical group");
    SOCFLOW_ASSERT(group_index < groups.size(), "group out of range");
    groups.erase(groups.begin() +
                 static_cast<std::ptrdiff_t>(group_index));
    rebuildTopology();
    trainerMetrics().preemptions.add(1.0);
    obs::tracer().recordInstant("preempt group", "control",
                                obs::kTrackControl, simClockS);
    inform("preempted logical group ", group_index, "; ",
           groups.size(), " groups remain");
}

void
SoCFlowTrainer::setActiveGroups(std::size_t n)
{
    if (n == 0 || n > fullMapping.numGroups()) {
        fatal("active group count must be in [1, ",
              fullMapping.numGroups(), "], got ", n);
    }
    if (n == groups.size())
        return;
    if (n < groups.size()) {
        trainerMetrics().preemptions.add(
            static_cast<double>(groups.size() - n));
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(n),
                     groups.end());
    } else {
        // Re-admit groups seeded from the consensus checkpoint.
        // Crashed SoCs never come back, and SoCs a crash-recovery
        // remap moved into another active group must not be claimed
        // twice, so candidate member lists are filtered first.
        const std::vector<float> w = globalWeights();
        nn::Model proto = groups.front()->fp32;
        proto.setFlatParams(w);
        std::set<sim::SocId> inUse;
        for (const auto &g : groups)
            inUse.insert(g->socs.begin(), g->socs.end());
        while (groups.size() < n) {
            const std::size_t g = groups.size();
            std::vector<sim::SocId> members;
            for (sim::SocId s : fullMapping.members[g]) {
                if (deadSocs.count(s) || inUse.count(s))
                    continue;
                if (faults && !faults->socAlive(s))
                    continue;
                members.push_back(s);
            }
            if (members.empty()) {
                warn("cannot re-admit logical group ", g,
                     ": no usable SoC left");
                break;
            }
            inUse.insert(members.begin(), members.end());
            groups.push_back(std::make_unique<GroupState>(
                std::move(members), proto, cfg.sgd, cfg.quant,
                cfg.seed + 997 * (g + 1) + epochCounter));
        }
    }
    rebuildTopology();
    // Elastic resize is a membership change like any other: bump the
    // generation so anything a preempted group left in flight is
    // fenced, never folded into a later aggregate.
    bumpGeneration();
    obs::tracer().recordInstant("resize active groups", "control",
                                obs::kTrackControl, simClockS);
}

void
SoCFlowTrainer::attachFaultInjector(fault::FaultInjector *injector)
{
    faults = injector;
    engine.setFaultModel(injector);
    invalidateSyncCaches();
}

std::size_t
SoCFlowTrainer::markCrashed(sim::SocId soc, std::string_view instant)
{
    deadSocs.insert(soc);
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

double
SoCFlowTrainer::injectCrash(sim::SocId soc)
{
    const std::size_t gi = markCrashed(soc, "soc crash");
    if (gi == groups.size())
        return 0.0;

    // The in-flight sync: each attempt stalls for the timeout and
    // backs off exponentially, then the ring degrades to the group's
    // survivors (collectives::SyncPolicy envelope).
    const std::vector<sim::SocId> deadList(deadSocs.begin(),
                                           deadSocs.end());
    const collectives::SyncOutcome sync =
        engine.ringAllReduceResilient(groups[gi]->socs,
                                      profile.paramBytes(), &deadList);
    const double recoveryS = sync.stats.seconds;

    // Consensus weights survive on the other groups' leaders; the
    // crashed group's own replica state (momentum included) is lost.
    const std::size_t donor =
        (gi == 0 && groups.size() > 1) ? 1 : 0;
    const std::vector<float> consensus =
        groups[donor]->fp32.flatParams();

    // Survivor set across all active groups.
    std::vector<sim::SocId> live;
    for (const auto &g : groups)
        for (sim::SocId s : g->socs)
            if (!deadSocs.count(s))
                live.push_back(s);
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
    timeline.mix(std::uint64_t{0x58}); // 'X': full crash recovery
    timeline.mix(static_cast<std::uint64_t>(soc));
    timeline.mix(static_cast<std::uint64_t>(live.size()));
    timeline.mix(recoveryS);
    chargeRecovery(recoveryS, "crash recovery",
                   {{"soc", static_cast<double>(soc)},
                    {"retries", static_cast<double>(sync.retries)}});
    inform("SoC ", soc, " crashed; recovered onto ", live.size(),
           " survivors in ", groups.size(), " groups");
    return recoveryS;
}

std::size_t
SoCFlowTrainer::owningGroup(sim::SocId soc) const
{
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const auto &socs = groups[g]->socs;
        if (std::find(socs.begin(), socs.end(), soc) != socs.end())
            return g;
    }
    return groups.size();
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
        timeline.mix(static_cast<std::uint64_t>(spec.kind));
        timeline.mix(static_cast<std::uint64_t>(spec.epoch));
        timeline.mix(static_cast<std::uint64_t>(spec.step));
        timeline.mix(static_cast<std::uint64_t>(spec.phase));
        timeline.mix(static_cast<std::uint64_t>(spec.soc));
        switch (spec.kind) {
        case fault::FaultKind::SocCrash:
            injectCrash(spec.soc);
            break;
        case fault::FaultKind::PsServerCrash:
            // Group-wise training has no parameter-server tier; the
            // shard host is just another member dying, but it must
            // run the same recovery path (not fall through to the
            // rate-window default) so PS/group-wise head-to-heads see
            // identical seeded fault mixes.
            injectCrash(spec.soc);
            break;
        case fault::FaultKind::SocCrashMidWave:
            injectMidWaveCrash(
                spec.soc, spec.progress, step,
                spec.phase == fault::FaultPhase::Wave2 ? 1 : 0);
            break;
        case fault::FaultKind::LeaderCrash:
            injectLeaderCrash(spec.soc);
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
    timeline.mix(std::uint64_t{0x43}); // 'C': corrupt-chunk recovery
    timeline.mix(static_cast<std::uint64_t>(burst));
    timeline.mix(static_cast<std::uint64_t>(sync.chunksRetransmitted));
    timeline.mix(extraS);
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
        const std::size_t donor = (gi == 0 && groups.size() > 1) ? 1 : 0;
        if (donor != gi)
            groups[gi]->restoreFrom(groups[donor]->fp32.flatParams());
        obs::tracer().recordInstant("sync failure", "fault",
                                    obs::kTrackControl, simClockS);
        obs::flightRecorder().dumpPostMortem("corrupt-retry-exhausted",
                                             timeline.value());
    }
}

double
SoCFlowTrainer::injectMidWaveCrash(sim::SocId soc, double progress,
                                   std::size_t step, std::size_t wave)
{
    const std::size_t gi = markCrashed(soc, "soc crash mid-wave");
    if (gi == groups.size())
        return 0.0;

    // The acked share of the in-flight AllReduce survives (its chunk
    // CRC tags verified on arrival), so only the tail rounds re-run
    // on the survivor ring.
    const std::vector<sim::SocId> ring = groups[gi]->socs;
    const std::size_t totalRounds =
        ring.size() >= 2 ? 2 * (ring.size() - 1) : 0;
    progress = std::clamp(progress, 0.0, 1.0);
    const std::size_t acked = static_cast<std::size_t>(
        progress * static_cast<double>(totalRounds));
    const std::vector<sim::SocId> deadList(deadSocs.begin(),
                                           deadSocs.end());
    const collectives::SyncOutcome sync = engine.resumeFromChunk(
        ring, profile.paramBytes(), acked, &deadList);
    const double recoveryS = sync.stats.seconds;

    // Unlike a full crash, the group replica -- weights AND momentum
    // -- is preserved: the member list just shrinks.
    auto &socs = groups[gi]->socs;
    socs.erase(std::remove(socs.begin(), socs.end(), soc), socs.end());
    if (socs.empty()) {
        if (groups.size() == 1)
            fatal("SoC ", soc,
                  " crashed mid-wave and no live SoC remains");
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(gi));
    }
    rebuildTopology();

    ++tally.crashes;
    ++tally.waveResumes;
    trainerMetrics().waveResumes.add(1.0);
    timeline.mix(std::uint64_t{0x57}); // 'W': wave resume
    timeline.mix(static_cast<std::uint64_t>(soc));
    timeline.mix(static_cast<std::uint64_t>(acked));
    timeline.mix(static_cast<std::uint64_t>(sync.chunksResumed));
    timeline.mix(recoveryS);
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
    return recoveryS;
}

double
SoCFlowTrainer::injectLeaderCrash(sim::SocId soc)
{
    const std::size_t gi = markCrashed(soc, "leader crash");
    if (gi == groups.size())
        return 0.0;

    GroupState &g = *groups[gi];
    const bool wasLeader = g.socs.front() == soc;
    g.socs.erase(std::remove(g.socs.begin(), g.socs.end(), soc),
                 g.socs.end());

    // Detecting the dead leader costs one timeout + one backoff;
    // re-forming the leader ring re-runs the delayed aggregation over
    // the new leader set.
    double recoveryS =
        engine.syncPolicy().timeoutS + engine.syncPolicy().backoffBaseS;
    bool elected = false;
    sim::SocId newLeader = 0;
    if (g.socs.empty()) {
        // The leader died with its whole group: the partial aggregate
        // it alone held is lost. Fall back to the consensus weights
        // the surviving groups carry -- i.e. drop the group.
        if (groups.size() == 1)
            fatal("SoC ", soc,
                  " was the last leader and no live SoC remains");
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(gi));
    } else if (wasLeader) {
        // Deterministic re-election: highest surviving SoC id leads.
        auto it = std::max_element(g.socs.begin(), g.socs.end());
        std::iter_swap(g.socs.begin(), it);
        newLeader = g.socs.front();
        elected = true;
    }
    if (groups.size() > 1) {
        std::vector<sim::SocId> leaders;
        for (const auto &grp : groups)
            leaders.push_back(grp->socs.front());
        recoveryS += leaderAggregateSeconds(std::move(leaders));
    }
    rebuildTopology();

    ++tally.crashes;
    if (elected) {
        ++tally.leaderElections;
        trainerMetrics().leaderElections.add(1.0);
    }
    timeline.mix(std::uint64_t{0x4c}); // 'L': leader recovery
    timeline.mix(static_cast<std::uint64_t>(soc));
    timeline.mix(std::uint64_t{elected ? 1u : 0u});
    timeline.mix(recoveryS);
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
    return recoveryS;
}

sim::SocId
SoCFlowTrainer::groupLeader(std::size_t g) const
{
    SOCFLOW_ASSERT(g < groups.size(), "group out of range");
    return groups[g]->socs.front();
}

std::vector<sim::SocId>
SoCFlowTrainer::groupMembers(std::size_t g) const
{
    SOCFLOW_ASSERT(g < groups.size(), "group out of range");
    return groups[g]->socs;
}

void
SoCFlowTrainer::rebuildTopology()
{
    obs::ScopedSpan span(obs::tracer(), "rebuildTopology", "trainer");
    mapping.members.clear();
    for (const auto &g : groups)
        mapping.members.push_back(g->socs);
    plan = planCommGroups(
        conflictGraph(mapping, cluster.config().socsPerBoard));
    invalidateSyncCaches();
    // New groups may exist; re-emit track names on the next epoch.
    obsTracksNamed = false;
    groupDigests.clear();
    trainerMetrics().rebuilds.add(1.0);
    trainerMetrics().activeGroups.set(
        static_cast<double>(groups.size()));
}

void
SoCFlowTrainer::bumpGeneration()
{
    gate.bump();
    for (auto &g : groups)
        g->generation = gate.current();
}

void
SoCFlowTrainer::heartbeatSweep(double step_start_s,
                               double step_compute_s)
{
    double maxPhi = 0.0;
    for (const auto &g : groups) {
        for (sim::SocId s : g->socs) {
            if (deadSocs.count(s))
                continue;
            double rate = 1.0;
            if (faults)
                rate = std::max(faults->computeFactor(s), 1e-6);
            const double arrival =
                step_start_s + step_compute_s / rate;
            maxPhi = std::max(maxPhi, detector.phi(s, arrival));
            detector.heartbeat(s, arrival);
        }
    }
    peakPhi = std::max(peakPhi, maxPhi);
    trainerMetrics().suspicionMax.set(maxPhi);
}

void
SoCFlowTrainer::remapLiveMembership()
{
    std::vector<sim::SocId> live;
    for (const auto &g : groups)
        for (sim::SocId s : g->socs)
            if (!deadSocs.count(s) && (!faults || faults->socAlive(s)))
                live.push_back(s);
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
            SOCFLOW_ASSERT(!deadSocs.count(s),
                           "dead SoC still mapped");
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
    std::vector<sim::SocId> reachable, cut;
    for (const auto &g : groups) {
        for (sim::SocId s : g->socs) {
            if (deadSocs.count(s))
                continue;
            if (faults->boardReachable(cluster.board(s)))
                reachable.push_back(s);
            else
                cut.push_back(s);
        }
    }
    ++tally.partitions;
    timeline.mix(std::uint64_t{0x50}); // 'P': partition
    timeline.mix(static_cast<std::uint64_t>(spec.board));
    timeline.mix(static_cast<std::uint64_t>(cut.size()));
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

    const std::size_t totalLive = reachable.size() + cut.size();
    sim::SocId lowest = cut.front();
    for (sim::SocId s : reachable)
        lowest = std::min(lowest, s);
    for (sim::SocId s : cut)
        lowest = std::min(lowest, s);

    if (!membership::hasQuorum(reachable, totalLive, lowest)) {
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
    std::size_t parked = 0, stripped = 0;
    for (std::size_t i = groups.size(); i-- > 0;) {
        GroupState &g = *groups[i];
        bool anyReachable = false;
        for (sim::SocId s : g.socs) {
            if (!deadSocs.count(s) &&
                faults->boardReachable(cluster.board(s))) {
                anyReachable = true;
                break;
            }
        }
        if (!anyReachable) {
            if (groups.size() == 1)
                break; // never park the last group; pause instead
            for (sim::SocId s : g.socs)
                isolatedSinceS.emplace(s, simClockS);
            pausedGroups.push_back(
                {std::move(groups[i]), staleGen, simClockS});
            groups.erase(groups.begin() +
                         static_cast<std::ptrdiff_t>(i));
            ++parked;
        } else {
            for (auto it = g.socs.begin(); it != g.socs.end();) {
                if (!deadSocs.count(*it) &&
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
           " SoCs; majority of ", reachable.size(),
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
    timeline.mix(std::uint64_t{0x42}); // 'B': blackout (power loss)
    timeline.mix(static_cast<std::uint64_t>(firstRack));
    timeline.mix(static_cast<std::uint64_t>(racksLost));
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
        for (const auto &g : groups)
            for (sim::SocId s : g->socs)
                if (!deadSocs.count(s) && !reachableNow(s))
                    return;
        quorumLost = false;
        bumpGeneration();
        timeline.mix(std::uint64_t{0x48}); // 'H': heal, quorum back
        timeline.mix(gate.current());
        tr.recordInstant("partition healed (quorum restored)",
                         "fault", obs::kTrackControl, simClockS);
        inform("partition healed; training resumes under generation ",
               gate.current());
    }

    std::size_t rejoined = 0;
    double oldestCutS = simClockS;
    bool changed = false;
    // Rejoin latency: from the cut (or crash) to a productive member.
    const auto endIsolation = [&](sim::SocId s) {
        auto it = isolatedSinceS.find(s);
        if (it == isolatedSinceS.end())
            return;
        oldestCutS = std::min(oldestCutS, it->second);
        m.rejoinDigest.observe(simClockS - it->second);
        isolatedSinceS.erase(it);
    };

    // Resume groups parked on the minority side whose boards are back.
    for (std::size_t i = pausedGroups.size(); i-- > 0;) {
        PausedGroup &pg = pausedGroups[i];
        auto &socs = pg.state->socs;
        // Members that died while parked never come back.
        socs.erase(std::remove_if(socs.begin(), socs.end(),
                                  [this](sim::SocId s) {
                                      return deadSocs.count(s) != 0 ||
                                             !faults->socAlive(s);
                                  }),
                   socs.end());
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
        if (!groups.empty()) {
            std::vector<sim::SocId> ring;
            std::vector<std::uint64_t> stamps;
            for (const auto &g : groups) {
                ring.push_back(g->socs.front());
                stamps.push_back(g->generation);
            }
            ring.push_back(socs.front());
            stamps.push_back(pg.staleGeneration);
            const collectives::SyncOutcome fencedSync =
                engine.ringAllReduceFenced(ring, profile.paramBytes(),
                                           stamps, gate.current());
            fencedTotal += fencedSync.fencedStale;
            tally.recoverySeconds += fencedSync.stats.seconds;

            pg.state->restoreFrom(globalWeights());
        }
        for (sim::SocId s : socs)
            endIsolation(s);
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
        if (deadSocs.count(s) || !faults->socAlive(s)) {
            it = isolatedSocs.erase(it); // died while isolated
            continue;
        }
        if (!reachableNow(s)) {
            ++it;
            continue;
        }
        // Weight catch-up: the rejoining SoC fetches the current
        // group weights + generation from a leader.
        if (!groups.empty()) {
            tally.recoverySeconds +=
                engine.broadcast(groups.front()->socs.front(), {s},
                                 profile.paramBytes())
                    .seconds;
        }
        endIsolation(s);
        groups.front()->socs.push_back(s);
        ++rejoined;
        it = isolatedSocs.erase(it);
        changed = true;
    }

    if (changed) {
        remapLiveMembership();
        tally.rejoins += rejoined;
        m.rejoins.add(static_cast<double>(rejoined));
        timeline.mix(std::uint64_t{0x52}); // 'R': rejoin wave
        timeline.mix(static_cast<std::uint64_t>(rejoined));
        timeline.mix(gate.current());
        tr.recordSpan("membership heal", "fault", obs::kTrackControl,
                      simClockS, simClockS - oldestCutS,
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
    deadSocs.erase(soc);
    isolatedSocs.erase(soc);

    // Catch-up protocol: fetch the current group weights and the
    // current generation from a leader, then re-map the live set.
    const double catchUpS =
        engine.broadcast(groups.front()->socs.front(), {soc},
                         profile.paramBytes())
            .seconds;
    groups.front()->socs.push_back(soc);
    remapLiveMembership();

    ++tally.rejoins;
    m.rejoins.add(1.0);
    double downS = catchUpS;
    auto it = isolatedSinceS.find(soc);
    if (it != isolatedSinceS.end()) {
        downS = simClockS - it->second;
        isolatedSinceS.erase(it);
    }
    m.rejoinDigest.observe(downS);
    timeline.mix(std::uint64_t{0x4a}); // 'J': SoC rejoin
    timeline.mix(static_cast<std::uint64_t>(soc));
    timeline.mix(gate.current());
    chargeRecovery(catchUpS, "soc rejoin",
                   {{"soc", static_cast<double>(soc)},
                    {"down_seconds", downS},
                    {"generation", static_cast<double>(gate.current())}});
    inform("SoC ", soc, " rejoined after ", downS,
           " s; caught up from its leader under generation ",
           gate.current());
}

std::vector<float>
SoCFlowTrainer::pausedGroupWeights(std::size_t i) const
{
    SOCFLOW_ASSERT(i < pausedGroups.size(),
                   "paused group out of range");
    return pausedGroups[i].state->fp32.flatParams();
}

std::vector<float>
SoCFlowTrainer::globalWeights() const
{
    return groups.front()->fp32.flatParams();
}

std::vector<float>
SoCFlowTrainer::groupWeights(std::size_t g) const
{
    SOCFLOW_ASSERT(g < groups.size(), "group out of range");
    return groups[g]->fp32.flatParams();
}

double
SoCFlowTrainer::groupMomentumNorm(std::size_t g) const
{
    SOCFLOW_ASSERT(g < groups.size(), "group out of range");
    return groups[g]->sgd->velocityNorm();
}

/*
 * Blob layout (little-endian, host byte order):
 *   [magic u64][epoch u64][alpha f64][n u64][weights f32 x n]
 *   [FNV-1a checksum u64 over everything before it]
 */
std::vector<std::uint8_t>
SoCFlowTrainer::saveCheckpoint() const
{
    obs::ScopedSpan span(obs::tracer(), "saveCheckpoint", "checkpoint");
    const std::vector<float> w = globalWeights();
    const std::uint64_t epoch = epochCounter;
    const double alphaVal = mpc.alpha();
    const std::uint64_t n = w.size();

    std::vector<std::uint8_t> out;
    out.reserve(5 * sizeof(std::uint64_t) + n * sizeof(float));
    const auto put = [&out](const void *src, std::size_t len) {
        const auto *b = static_cast<const std::uint8_t *>(src);
        out.insert(out.end(), b, b + len);
    };
    put(&kBlobMagic, sizeof(kBlobMagic));
    put(&epoch, sizeof(epoch));
    put(&alphaVal, sizeof(alphaVal));
    put(&n, sizeof(n));
    put(w.data(), n * sizeof(float));
    const std::uint64_t sum = checkpointChecksum(out);
    put(&sum, sizeof(sum));
    trainerMetrics().checkpointSaves.add(1.0);
    return out;
}

void
SoCFlowTrainer::loadCheckpoint(const std::vector<std::uint8_t> &bytes)
{
    obs::ScopedSpan span(obs::tracer(), "loadCheckpoint", "checkpoint");
    // Validate the whole blob before touching any trainer state, so
    // a corrupted checkpoint leaves the trainer usable.
    const auto reject = [](const std::string &why) {
        trainerMetrics().checkpointErrors.add(1.0);
        throw CheckpointError("bad checkpoint blob: " + why);
    };

    std::uint64_t magic = 0, epoch = 0, n = 0;
    double alphaVal = 1.0;
    const std::size_t fixed = sizeof(magic) + sizeof(epoch) +
                              sizeof(alphaVal) + sizeof(n) +
                              sizeof(std::uint64_t);
    if (bytes.size() < fixed)
        reject("truncated header");
    const std::uint8_t *p = bytes.data();
    const auto get = [&p](void *dst, std::size_t len) {
        std::memcpy(dst, p, len);
        p += len;
    };
    get(&magic, sizeof(magic));
    if (magic != kBlobMagic)
        reject("wrong magic");
    get(&epoch, sizeof(epoch));
    get(&alphaVal, sizeof(alphaVal));
    get(&n, sizeof(n));
    if (bytes.size() != fixed + n * sizeof(float))
        reject("size mismatch");

    std::vector<std::uint8_t> body(bytes.begin(),
                                   bytes.end() - sizeof(std::uint64_t));
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
                sizeof(stored));
    if (checkpointChecksum(body) != stored)
        reject("checksum mismatch (corrupted payload)");

    if (n != groups.front()->fp32.flatParams().size())
        reject("weight count does not match the built model");
    if (!(alphaVal >= 0.0 && alphaVal <= 1.0))
        reject("alpha out of range");

    std::vector<float> w(n);
    get(w.data(), n * sizeof(float));
    for (auto &g : groups)
        g->restoreFrom(w);
    epochCounter = epoch;
    mpc.setAlpha(alphaVal);
    trainerMetrics().checkpointLoads.add(1.0);
}

void
SoCFlowTrainer::rebuildAllGroups()
{
    // Boot state of a power-cycled fleet: every volatile structure
    // (group replicas, momentum, dead sets, pauses, isolation, the
    // failure detector's arrival windows) is reconstructed exactly as
    // the constructor built it. The data RNG is deliberately NOT
    // rewound -- the restarted fleet draws fresh shards, like any
    // real restart would.
    deadSocs.clear();
    isolatedSocs.clear();
    isolatedSinceS.clear();
    pausedGroups.clear();
    quorumLost = false;
    bootGroups(nullptr);
}

std::size_t
SoCFlowTrainer::restoreAfterPowerLoss(
    const std::vector<std::uint8_t> &bytes)
{
    obs::ScopedSpan span(obs::tracer(), "restoreAfterPowerLoss",
                         "checkpoint");
    const std::size_t epochsBefore = epochCounter;
    rebuildAllGroups();
    // loadCheckpoint validates everything before mutating weights; a
    // corrupt blob throws here and the fleet STAYS down (groups are
    // rebooted but fleetDown holds until a valid restore), so the
    // caller can try the next surviving replica.
    loadCheckpoint(bytes);
    fleetDown = false;
    // Everything that survived did so through durable storage; any
    // pre-outage in-flight traffic that somehow resurfaces must be
    // fenced as stale -- but the rebooted groups themselves restart
    // current, or the first post-restore aggregation would fence its
    // own members.
    bumpGeneration();

    // RPO accounting: epochs completed after the restored checkpoint
    // was taken are lost work (the aborted epoch itself never closed,
    // so it is not counted -- nothing of it was ever durable).
    const std::size_t lost =
        epochsBefore > epochCounter ? epochsBefore - epochCounter : 0;
    static obs::Gauge &lostWork =
        obs::metrics().gauge("ckpt_lost_work_epochs");
    lostWork.set(static_cast<double>(lost));

    timeline.mix(std::uint64_t{0x56}); // 'V': power-loss restore
    timeline.mix(static_cast<std::uint64_t>(epochCounter));
    timeline.mix(static_cast<std::uint64_t>(lost));
    timeline.mix(gate.current());
    obs::tracer().recordInstant("fleet restored from checkpoint",
                                "checkpoint", obs::kTrackControl,
                                simClockS);
    inform("fleet restored from durable checkpoint at epoch ",
           epochCounter, " (", lost,
           " epochs of work lost, generation ", gate.current(), ")");
    return lost;
}

} // namespace core
} // namespace socflow
