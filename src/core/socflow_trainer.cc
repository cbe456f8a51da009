#include "core/socflow_trainer.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/checkpoint.hh"
#include "core/socflow_metrics.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace core {

namespace {

/** Envelope magic of the checkpoint blob ("SFCKPT1\0"). */
constexpr std::uint64_t kBlobMagic = 0x5346434b50543100ULL;
/** Checkpoint payload bytes before the weights: epoch u64 + alpha f64. */
constexpr std::size_t kBlobHeader = sizeof(std::uint64_t) + sizeof(double);

/** Per-epoch cross-group data shuffle: each SoC receives a fresh shard
 *  from the control plane through the 20 Gbps switch. */
double
shuffleSeconds(const data::DataBundle &bundle, const sim::ClusterConfig &c,
               std::size_t num_socs)
{
    const double shardBytes =
        static_cast<double>(bundle.train.size()) * 4.0 *
        static_cast<double>(bundle.train.sampleNumel()) /
        static_cast<double>(num_socs);
    return shardBytes / (c.socLinkBps / 8.0) + c.messageLatencyS;
}

} // namespace

TrainerMetrics &
trainerMetrics()
{
    static TrainerMetrics m;
    return m;
}

SoCFlowTrainer::GroupState::GroupState(const nn::Model &proto,
                                       const nn::SgdConfig &scfg,
                                       const quant::QuantConfig &qcfg,
                                       std::uint64_t seed)
    : fp32(proto), int8(proto)
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
      pricer(engine, mapping, plan, profile.paramBytes(), cfg.usePlanning,
             shuffleSeconds(bundle, cluster.config(), cfg.numSocs)),
      mpc(profile.cpuMsPerSample,
          profile.cpuMsPerSample / profile.npuSpeedup),
      roster(cluster), rng(cfg.seed)
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

    roster.boot(fullMapping.members, [&](std::size_t g) {
        return std::make_unique<GroupState>(proto, cfg.sgd, cfg.quant,
                                            cfg.seed + 101 * (g + 1));
    });
    mapping.members.clear();
    for (const auto &g : roster.active())
        mapping.members.push_back(g.socs);
    plan = planCommGroups(
        conflictGraph(mapping, cluster.config().socsPerBoard));

    groupDigests.clear();
    pricer.invalidate();
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
SoCFlowTrainer::groupComputeSeconds(const std::vector<sim::SocId> &socs,
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
        for (sim::SocId s : socs)
            clockSum += rate(s);
        return perSampleMs * batch / (1000.0 * clockSum);
    }
    // Equal shares: the slowest SoC dominates.
    double minClock = 1.0;
    for (sim::SocId s : socs)
        minClock = std::min(minClock, rate(s));
    const double perSoc = batch / static_cast<double>(socs.size());
    return perSampleMs * perSoc / (1000.0 * minClock);
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
    GroupState &g = roster.state(0);

    // Confidence probe. The paper profiles the CPU/NPU error gap on
    // a validation slice (Eq. 4 uses logits). Because our on-chip
    // merge re-synchronizes the replicas every batch, the *logit*
    // cosine saturates near 1; the *gradient* cosine between the
    // FP32 and INT8 paths (UI8's direction-deviation metric, which
    // the paper builds on) reproduces the reported exponential decay
    // of alpha as training converges, so the probe uses gradients.
    // The FP32 and INT8 passes run as two pool items, like the two
    // halves of a group step: they touch disjoint replicas (and only
    // the INT8 trainer's own RNG), each writes only its own gradient
    // vector, and alpha is formed after the join, so it is bit-exact
    // at any thread count (DESIGN.md ch. 9).
    std::vector<float> gradFp, gradInt;
    globalThreadPool().parallelFor(2, [&](std::size_t it) {
        if (it == 0) {
            g.fp32.zeroGrad();
            g.fp32.trainStep(x, y);
            gradFp = g.fp32.flatGrads();
            g.fp32.zeroGrad();
        } else {
            gradInt = g.int8Trainer->probeGradients(x, y);
        }
    });

    const std::size_t flat = gradFp.size();
    tensor::Tensor tf =
        tensor::Tensor::fromValues({flat}, std::move(gradFp));
    tensor::Tensor ti =
        tensor::Tensor::fromValues({flat}, std::move(gradInt));
    mpc.updateAlpha(tf, ti);
}

double
SoCFlowTrainer::testAccuracy()
{
    return core::testAccuracy(roster.state(0).fp32, bundle.test);
}

void
SoCFlowTrainer::setActiveGroups(std::size_t n)
{
    if (n == 0 || n > fullMapping.numGroups()) {
        fatal("active group count must be in [1, ",
              fullMapping.numGroups(), "], got ", n);
    }
    if (n == roster.size())
        return;
    if (n < roster.size()) {
        trainerMetrics().preemptions.add(
            static_cast<double>(roster.size() - n));
        roster.shrink(n);
    } else {
        // Re-admit groups seeded from the consensus checkpoint, over
        // the SoCs the roster admits: crashed SoCs, SoCs behind an
        // open cut and SoCs some holder already holds stay out.
        nn::Model proto = roster.state(0).fp32;
        proto.setFlatParams(globalWeights());
        const std::size_t admitted =
            roster.regrow(n, fullMapping.members, [&](std::size_t g) {
                return std::make_unique<GroupState>(
                    proto, cfg.sgd, cfg.quant,
                    cfg.seed + 997 * (g + 1) + epochCounter);
            });
        if (admitted == 0)
            return; // membership unchanged: nothing to re-plan or fence
    }
    rebuildTopology();
    // Elastic resize is a membership change like any other: bump the
    // generation so anything a preempted group left in flight is
    // fenced, never folded into a later aggregate.
    bumpGeneration();
    assertMembershipInvariants();
    obs::tracer().recordInstant("resize active groups", "control",
                                obs::kTrackControl, simClockS);
}

void
SoCFlowTrainer::attachFaultInjector(fault::FaultInjector *injector)
{
    faults = injector;
    roster.setFaultModel(injector);
    engine.setFaultModel(injector);
    pricer.invalidate();
}

sim::SocId
SoCFlowTrainer::groupLeader(std::size_t g) const
{
    SOCFLOW_ASSERT(g < roster.size(), "group out of range");
    return roster.members(g).front();
}

std::vector<sim::SocId>
SoCFlowTrainer::groupMembers(std::size_t g) const
{
    SOCFLOW_ASSERT(g < roster.size(), "group out of range");
    return roster.members(g);
}

void
SoCFlowTrainer::rebuildTopology()
{
    obs::ScopedSpan span(obs::tracer(), "rebuildTopology", "trainer");
    mapping.members.clear();
    for (const auto &g : roster.active())
        mapping.members.push_back(g.socs);
    plan = planCommGroups(
        conflictGraph(mapping, cluster.config().socsPerBoard));
    pricer.invalidate();
    // New groups may exist; re-emit track names on the next epoch.
    obsTracksNamed = false;
    groupDigests.clear();
    trainerMetrics().rebuilds.add(1.0);
    trainerMetrics().activeGroups.set(
        static_cast<double>(roster.size()));
}

void
SoCFlowTrainer::bumpGeneration()
{
    gate.bump();
    for (const auto &g : roster.active())
        g.state->generation = gate.current();
}

std::vector<float>
SoCFlowTrainer::pausedGroupWeights(std::size_t i) const
{
    SOCFLOW_ASSERT(i < roster.parked().size(),
                   "paused group out of range");
    return roster.parked()[i].state->fp32.flatParams();
}

std::vector<float>
SoCFlowTrainer::globalWeights() const
{
    return roster.state(0).fp32.flatParams();
}

std::vector<float>
SoCFlowTrainer::groupWeights(std::size_t g) const
{
    SOCFLOW_ASSERT(g < roster.size(), "group out of range");
    return roster.state(g).fp32.flatParams();
}

double
SoCFlowTrainer::groupMomentumNorm(std::size_t g) const
{
    SOCFLOW_ASSERT(g < roster.size(), "group out of range");
    return roster.state(g).sgd->velocityNorm();
}

/*
 * Blob: the payload [epoch u64][alpha f64][weights f32 x n] (host
 * byte order) sealed by core::sealEnvelope under kBlobMagic, 40 + 4n
 * bytes in all.
 */
std::vector<std::uint8_t>
SoCFlowTrainer::saveCheckpoint() const
{
    obs::ScopedSpan span(obs::tracer(), "saveCheckpoint", "checkpoint");
    const std::vector<float> w = globalWeights();
    const std::uint64_t epoch = epochCounter;
    const double alphaVal = mpc.alpha();

    std::vector<std::uint8_t> payload(kBlobHeader + w.size() * sizeof(float));
    std::memcpy(payload.data(), &epoch, sizeof(epoch));
    std::memcpy(payload.data() + sizeof(epoch), &alphaVal, sizeof(alphaVal));
    std::memcpy(payload.data() + kBlobHeader, w.data(),
                w.size() * sizeof(float));
    trainerMetrics().checkpointSaves.add(1.0);
    return sealEnvelope(kBlobMagic, payload);
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

    std::vector<std::uint8_t> payload;
    try {
        payload = openEnvelope(kBlobMagic, bytes);
    } catch (const CheckpointError &e) {
        reject(e.what());
    }
    if (payload.size() < kBlobHeader ||
        (payload.size() - kBlobHeader) % sizeof(float) != 0)
        reject("payload size mismatch");
    const std::size_t n = (payload.size() - kBlobHeader) / sizeof(float);
    if (n != roster.state(0).fp32.flatParams().size())
        reject("weight count does not match the built model");
    std::uint64_t epoch = 0;
    double alphaVal = 1.0;
    std::memcpy(&epoch, payload.data(), sizeof(epoch));
    std::memcpy(&alphaVal, payload.data() + sizeof(epoch), sizeof(alphaVal));
    if (!(alphaVal >= 0.0 && alphaVal <= 1.0))
        reject("alpha out of range");

    std::vector<float> w(n);
    std::memcpy(w.data(), payload.data() + kBlobHeader, n * sizeof(float));
    for (const auto &g : roster.active())
        g.state->restoreFrom(w);
    epochCounter = epoch;
    mpc.setAlpha(alphaVal);
    trainerMetrics().checkpointLoads.add(1.0);
}

std::size_t
SoCFlowTrainer::restoreAfterPowerLoss(
    const std::vector<std::uint8_t> &bytes)
{
    obs::ScopedSpan span(obs::tracer(), "restoreAfterPowerLoss",
                         "checkpoint");
    const std::size_t epochsBefore = epochCounter;
    // Boot state of a power-cycled fleet: every volatile structure
    // (group replicas, momentum, pauses, isolation, the failure
    // detector's arrival windows) is reconstructed exactly as the
    // constructor built it, over the SoCs the fault model reports
    // alive (a power cycle reboots machines, it does not revive
    // crashed ones). The data RNG is deliberately NOT rewound -- the
    // restarted fleet draws fresh shards, like any real restart would.
    bootGroups(nullptr);
    // loadCheckpoint validates everything before mutating weights; a
    // corrupt blob throws here and the fleet STAYS down (groups are
    // rebooted but fleetDown holds until a valid restore), so the
    // caller can try the next surviving replica.
    loadCheckpoint(bytes);
    // A cut still open at reboot fences the rebooted groups exactly
    // as its partition fenced the old ones: pause without quorum,
    // otherwise isolate cut members and park fully cut groups. With
    // no live SoC behind a cut this changes nothing.
    applyCut(roster.splitLive());
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

    // 'V': power-loss restore
    timeline.mixAll(0x56, epochCounter, lost, gate.current());
    assertMembershipInvariants();
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
