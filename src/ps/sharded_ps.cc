#include "ps/sharded_ps.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "data/dataset.hh"
#include "obs/metrics.hh"
#include "core/sync_pricer.hh"
#include "obs/profiler.hh"
#include "sim/energy.hh"
#include "util/logging.hh"

namespace socflow {
namespace ps {

namespace {

/** Hot-path counters, cached once. */
struct PsMetrics {
    obs::Counter &pushes = obs::metrics().counter("ps_push_total");
    obs::Counter &pulls = obs::metrics().counter("ps_pull_total");
    obs::Counter &pushBytes = obs::metrics().counter("ps_push_bytes_total");
    obs::Counter &pullBytes = obs::metrics().counter("ps_pull_bytes_total");
    obs::Counter &failoverTotal =
        obs::metrics().counter("shard_failover_total");
    obs::Counter &rebalanceTotal =
        obs::metrics().counter("ps_rebalance_total");
    obs::Counter &stalenessBlocks =
        obs::metrics().counter("ps_staleness_blocks_total");
    obs::Counter &fencedPushes =
        obs::metrics().counter("ps_fenced_pushes_total");
    obs::Counter &pausedEpochs =
        obs::metrics().counter("ps_paused_epochs_total");
    obs::Gauge &stalenessAge = obs::metrics().gauge("ps_staleness_age_max");
};

PsMetrics &
psMetrics()
{
    static PsMetrics m;
    return m;
}

} // namespace

ShardedPsTrainer::ShardedPsTrainer(ShardedPsConfig config,
                                   const data::DataBundle &bundle_in,
                                   const std::vector<float> *initial)
    : cfg(std::move(config)), bundle(bundle_in),
      profile(sim::modelProfile(cfg.modelFamily)),
      cluster(core::clusterFor(cfg.clusterTemplate, cfg.numSocs)),
      engine(cluster),
      model(core::buildInitialModel(cfg.modelFamily, bundle_in.spec,
                                    cfg.seed, initial)),
      map(ShardMapConfig{cfg.numShards, model.paramCount(),
                         cfg.numSocs,
                         cluster.config().socsPerBoard}),
      learningRate(cfg.sgd.learningRate), rng(cfg.seed)
{
    engine.setSyncPolicy(cfg.sync);
    global = model.flatParams();
    velocity.assign(global.size(), 0.0f);

    const auto &servers = map.servers();
    for (std::size_t soc = 0; soc < cfg.numSocs; ++soc) {
        if (std::find(servers.begin(), servers.end(),
                      static_cast<sim::SocId>(soc)) != servers.end())
            continue;
        Worker w;
        w.soc = static_cast<sim::SocId>(soc);
        w.snapshot = global;
        // Maximally stale at start: every worker must pull before its
        // first gradient (the bound is enforced, not advisory).
        w.sincePull = cfg.staleness + 1;
        workers.push_back(std::move(w));
    }
    if (workers.empty())
        fatal("sharded PS needs at least one non-server SoC: ",
              cfg.numSocs, " SoCs, ", servers.size(), " servers");
    active.resize(workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i)
        active[i] = i;
}

void
ShardedPsTrainer::attachFaultInjector(fault::FaultInjector *inj)
{
    faults = inj;
    engine.setFaultModel(inj);
}

double
ShardedPsTrainer::bytesPerParam()
{
    return model.paramCount() ? profile.paramBytes() /
                                    static_cast<double>(model.paramCount())
                              : 0.0;
}

bool
ShardedPsTrainer::refreshMembership()
{
    active.clear();
    for (std::size_t i = 0; i < workers.size(); ++i)
        if (membership::usable(faults, cluster, workers[i].soc))
            active.push_back(i);
    std::vector<sim::SocId> socs(cfg.numSocs);
    std::iota(socs.begin(), socs.end(), sim::SocId{0});
    return !active.empty() &&
           membership::splitByReachability(faults, cluster, socs).quorum;
}

void
ShardedPsTrainer::noteFired(const std::vector<fault::FaultSpec> &fired,
                            core::EpochRecord &rec)
{
    for (const fault::FaultSpec &s : fired) {
        timeline.mixAll(s.kind, s.epoch, s.step, s.soc, s.board);
        if (!core::countFault(s, rec, cfg.sync.timeoutS))
            continue;
        // A rejoining SoC lost its snapshot: force a pull before its
        // next gradient so it can never push over-stale work.
        for (Worker &w : workers) {
            if (w.soc == s.soc)
                w.sincePull = cfg.staleness + 1;
        }
    }
}

void
ShardedPsTrainer::runFailover(core::EpochRecord &rec)
{
    const auto moves =
        map.failover([this](sim::SocId s) {
            return membership::usable(faults, cluster, s);
        });
    if (moves.empty())
        return;
    const double nicRate = cluster.config().boardNicBps / 8.0;
    for (const ShardMove &mv : moves) {
        ++failovers;
        psMetrics().failoverTotal.add(1.0);
        const ShardRange &r = map.range(mv.shard);
        // The new owner restores the shard's weights from the chain
        // replica (acked pushes survive); only the optimizer momentum
        // slice is lost and resets to zero -- the state-loss table in
        // DESIGN.md ch. 11.
        std::fill(velocity.begin() + static_cast<long>(r.begin),
                  velocity.begin() + static_cast<long>(r.end), 0.0f);
        const double shardBytes =
            bytesPerParam() * static_cast<double>(r.count());
        rec.recoverySeconds += cfg.sync.timeoutS +
                               cfg.sync.backoffBaseS +
                               shardBytes / nicRate +
                               cluster.config().messageLatencyS;
        timeline.mixAll(0xFA170BE5ULL, mv.shard, mv.from, mv.to,
                        map.gate().current());
    }
}

void
ShardedPsTrainer::applyPush(const std::vector<float> &grads)
{
    // Same math as nn::Sgd, element-wise on the flat vectors so a
    // failed-over shard's momentum slice can be reset independently.
    float clipScale = 1.0f;
    if (cfg.sgd.clipNorm > 0.0) {
        double sq = 0.0;
        for (float g : grads)
            sq += static_cast<double>(g) * g;
        const double norm = std::sqrt(sq);
        if (norm > cfg.sgd.clipNorm)
            clipScale = static_cast<float>(cfg.sgd.clipNorm / norm);
    }
    const float lr = static_cast<float>(learningRate);
    const float mu = static_cast<float>(cfg.sgd.momentum);
    const float wd = static_cast<float>(cfg.sgd.weightDecay);
    for (std::size_t i = 0; i < global.size(); ++i) {
        const float grad = clipScale * grads[i] + wd * global[i];
        velocity[i] = mu * velocity[i] + grad;
        global[i] -= lr * velocity[i];
    }
}

void
ShardedPsTrainer::digestShards()
{
    if (shardDigests.empty()) {
        shardDigests.reserve(map.numShards());
        for (std::size_t s = 0; s < map.numShards(); ++s) {
            shardDigests.push_back(&obs::metrics().gauge(
                "ps_shard_digest",
                {{"shard", std::to_string(s)}}));
        }
    }
    for (std::size_t s = 0; s < map.numShards(); ++s) {
        const ShardRange &r = map.range(s);
        const std::uint32_t crc =
            r.count() ? crc32(global.data() + r.begin,
                              r.count() * sizeof(float))
                      : 0;
        shardDigests[s]->set(static_cast<double>(crc));
        timeline.mix(static_cast<std::uint64_t>(crc));
    }
}

double
ShardedPsTrainer::maybeRebalance(const collectives::PsExchange &ex)
{
    if (cfg.rebalanceFactor <= 0.0 || ex.endpoints.size() < 2)
        return 0.0;
    // Owning endpoints only (zero-byte servers host nothing).
    std::size_t hot = ex.endpoints.size();
    double hotDrain = 0.0, otherSum = 0.0;
    std::size_t others = 0;
    for (std::size_t i = 0; i < ex.endpoints.size(); ++i) {
        const auto &ep = ex.endpoints[i];
        if (ep.pushBytes <= 0.0)
            continue;
        if (hot == ex.endpoints.size() ||
            ep.pushSeconds > hotDrain) {
            if (hot != ex.endpoints.size()) {
                otherSum += hotDrain;
                ++others;
            }
            hot = i;
            hotDrain = ep.pushSeconds;
        } else {
            otherSum += ep.pushSeconds;
            ++others;
        }
    }
    if (hot == ex.endpoints.size() || others == 0)
        return 0.0;
    const double mean = otherSum / static_cast<double>(others);
    if (mean <= 0.0 || hotDrain <= cfg.rebalanceFactor * mean)
        return 0.0;

    const sim::SocId donor = ex.endpoints[hot].server;
    const auto owned = map.shardsOwnedBy(donor);
    if (owned.empty())
        return 0.0;
    // Smallest shard moves (least migration traffic), to the
    // least-loaded usable endpoint.
    std::size_t shard = owned.front();
    for (std::size_t s : owned)
        if (map.range(s).count() < map.range(shard).count())
            shard = s;
    sim::SocId target = donor;
    double targetDrain = 0.0;
    bool haveTarget = false;
    for (const auto &ep : ex.endpoints) {
        if (ep.server == donor ||
            !membership::usable(faults, cluster, ep.server))
            continue;
        if (!haveTarget || ep.pushSeconds < targetDrain ||
            (ep.pushSeconds == targetDrain && ep.server < target)) {
            target = ep.server;
            targetDrain = ep.pushSeconds;
            haveTarget = true;
        }
    }
    if (!haveTarget || !map.rebalance(shard, target))
        return 0.0;

    ++rebalances;
    psMetrics().rebalanceTotal.add(1.0);
    // A planned move is a coordinated view change: live workers learn
    // the new generation synchronously, so unlike failover it fences
    // nothing.
    for (std::size_t i : active)
        workers[i].gen = map.gate().current();
    const double shardBytes =
        bytesPerParam() * static_cast<double>(map.range(shard).count());
    const double migrationS =
        shardBytes / (cluster.config().boardNicBps / 8.0) +
        cluster.config().messageLatencyS;
    timeline.mixAll(0x2EBA1A4CULL, shard, donor, target);
    return migrationS;
}

core::EpochRecord
ShardedPsTrainer::runEpoch()
{
    core::EpochRecord rec;
    rec.epoch = epochIdx;
    PsMetrics &pm = psMetrics();
    const double paramBytes = profile.paramBytes();

    // Time-attribution profiler (obs/profiler.hh): the PS epoch is a
    // single timeline (slot 0) -- workers stream pushes/pulls while
    // computing, so overlap here is epoch-granular. Passive consumer;
    // enabling it cannot change timings, weights, or the timeline.
    obs::Profiler &prof = obs::profiler();
    const bool profiling = prof.enabled();
    if (profiling) {
        core::registerProfilerLayers(model, profLayersRegistered);
        prof.beginEpoch(1);
    }

    const auto pull = [&](Worker &w) {
        w.snapshot = global;
        w.sincePull = 0;
        w.gen = map.gate().current();
        pm.pulls.add(1.0);
        pm.pullBytes.add(paramBytes);
    };

    // Epoch start: fire pending faults, expire partition windows,
    // re-check quorum, and re-home shards orphaned since last epoch.
    if (faults) {
        const auto fired = faults->advanceTo(
            fault::FaultPoint{epochIdx, 0,
                              fault::FaultPhase::Compute});
        noteFired(fired, rec);
    }
    bool quorum = refreshMembership();
    if (quorum)
        runFailover(rec);
    if (!quorum || !map.orphaned().empty()) {
        // Minority side (or no surviving shard host): train nothing,
        // preserve all state, resume on heal.
        rec.paused = true;
        rec.simSeconds = cfg.sync.timeoutS;
        pm.pausedEpochs.add(1.0);
        timeline.mixAll(0xDEADBEA7ULL, epochIdx);
        if (profiling) {
            core::profileRecovery(0, 0.0, rec.simSeconds, true);
            prof.noteTimelineHash(timeline.value());
            prof.endEpoch(rec.simSeconds);
        }
        ++epochIdx;
        return rec;
    }

    data::BatchIterator it(bundle.train.size(), cfg.globalBatch,
                           rng.split());
    core::TrainSums sums;
    std::size_t steps = 0;
    double epochMinFactor = 1.0;
    std::size_t epochMaxAge = 0;

    while (!it.epochDone()) {
        const auto idx = it.next();

        // Step-granular fault clock: a shard host can die mid-epoch
        // and the survivors re-home its shards before the next push.
        if (faults) {
            const auto fired = faults->advanceTo(
                fault::FaultPoint{epochIdx, steps,
                                  fault::FaultPhase::Compute});
            if (!fired.empty()) {
                noteFired(fired, rec);
                if (!refreshMembership()) {
                    rec.paused = true;
                    break;
                }
                runFailover(rec);
                if (!map.orphaned().empty()) {
                    rec.paused = true;
                    break;
                }
            }
        }

        auto [x, y] = bundle.train.batch(idx);
        Worker &w = workers[active[steps % active.size()]];

        // Hard staleness bound, enforced *before* compute: a worker
        // past the bound blocks on a pull, it never trains on
        // over-stale weights (staleness = 0 degenerates to a
        // synchronous PS).
        if (w.sincePull > cfg.staleness) {
            pull(w);
            ++blocks;
            pm.stalenessBlocks.add(1.0);
        }
        epochMaxAge = std::max(epochMaxAge, w.sincePull);
        maxAgeSeen = std::max(maxAgeSeen, w.sincePull);

        model.setFlatParams(w.snapshot);
        model.zeroGrad();
        const nn::StepResult r = model.trainStep(x, y);
        if (faults) {
            epochMinFactor = std::min(epochMinFactor,
                                      faults->computeFactor(w.soc));
        }

        // Push, generation-fenced: after an uncoordinated failover
        // the worker's stamp is stale, so its push is rejected at
        // admission (never folded into a shard that moved) and the
        // worker re-pulls.
        if (w.gen < map.gate().current()) {
            map.gate().admit(w.gen);
            ++fenced;
            ++rec.fencedStaleMsgs;
            pm.fencedPushes.add(1.0);
            pull(w);
        } else {
            // CRC-tagged payload: a corrupt arrival is retransmitted
            // under the SyncPolicy envelope; a burst outlasting the
            // budget drops the push as a typed failure -- never a
            // silent wrong sum.
            std::size_t rt = 0;
            bool dropped = false;
            double backoff = cfg.sync.backoffBaseS;
            while (faults && faults->corruptNextChunk()) {
                ++rec.gradCorruptDetected;
                if (rt == cfg.sync.maxRetries) {
                    dropped = true;
                    ++pushDrops;
                    ++rec.syncFailures;
                    break;
                }
                ++rt;
                ++retransmits;
                ++rec.chunksRetransmitted;
                rec.recoverySeconds += backoff;
                backoff = std::min(backoff * cfg.sync.backoffMultiplier,
                                   cfg.sync.backoffMaxS);
            }
            if (!dropped) {
                const std::vector<float> grads = model.flatGrads();
                ++acked;
                applyPush(grads);
                ++applied;
                pm.pushes.add(1.0);
                pm.pushBytes.add(paramBytes);
            }
        }
        ++w.sincePull;

        sums.add(r);
        ++steps;
    }

    // Epoch-end sweep: faults scheduled past our last batch step
    // still fire inside this epoch (failover lands before the next
    // epoch's first push).
    if (faults) {
        const auto fired = faults->advanceTo(epochIdx);
        if (!fired.empty()) {
            noteFired(fired, rec);
            if (refreshMembership())
                runFailover(rec);
        }
    }

    // Timing: workers stream pushes/pulls while computing; each shard
    // endpoint drains its own board NIC, and the joint max-min solve
    // prices both the per-endpoint incast and cross-endpoint fabric
    // contention.
    const double f = bundle.timeScale();
    const double stepsD = static_cast<double>(steps) * f;
    const std::size_t nActive = std::max<std::size_t>(
        active.empty() ? workers.size() : active.size(), 1);
    const double perWorkerSteps =
        stepsD / static_cast<double>(nActive);
    double computeS = perWorkerSteps *
                      static_cast<double>(cfg.globalBatch) *
                      profile.cpuMsPerSample / 1000.0;
    if (epochMinFactor > 0.0 && epochMinFactor < 1.0)
        computeS /= epochMinFactor;

    double syncS = 0.0;
    collectives::PsExchange ex;
    sim::FlowCapture psCap;
    double profPushShare = 0.5;
    if (steps > 0) {
        const double pullFraction =
            1.0 / static_cast<double>(cfg.staleness + 1);
        std::vector<sim::SocId> workerSocs;
        workerSocs.reserve(active.size());
        for (std::size_t i : active)
            workerSocs.push_back(workers[i].soc);
        std::vector<double> pushB(map.servers().size(), 0.0);
        std::vector<double> pullB(map.servers().size(), 0.0);
        for (std::size_t s = 0; s < map.servers().size(); ++s) {
            const double ownedBytes =
                bytesPerParam() * static_cast<double>(
                               map.paramsOwnedBy(map.servers()[s]));
            pushB[s] = stepsD * ownedBytes /
                       static_cast<double>(nActive);
            pullB[s] = pushB[s] * pullFraction;
        }
        ex = engine.shardedParamServer(workerSocs, map.servers(),
                                       pushB, pullB,
                                       cfg.chainReplication);
        syncS = ex.stats.seconds;
        if (profiling) {
            // Attribution replay of the cost query just made, with a
            // capture sink armed: same inputs, same const code path,
            // result discarded, metric side effects suppressed
            // (sim/flow_network.hh) -- prices where the sync time
            // went without perturbing anything.
            psCap = core::captureFlows(cluster.network(), [&] {
                engine.shardedParamServer(workerSocs, map.servers(), pushB,
                                          pullB, cfg.chainReplication);
            });
            double tp = 0.0, tl = 0.0;
            for (std::size_t s = 0; s < map.servers().size(); ++s) {
                tp += pushB[s];
                tl += pullB[s];
            }
            if (tp + tl > 0.0)
                profPushShare = tp / (tp + tl);
        }
        syncS += maybeRebalance(ex);
    }

    rec.computeSeconds = computeS;
    rec.syncSeconds = syncS;
    rec.updateSeconds = stepsD * profile.updateMsPerBatch / 1000.0;
    // The whole epoch is one overlapped step: workers stream
    // pushes/pulls while computing.
    const core::StepTimeline tl{computeS, syncS, rec.updateSeconds, true};
    rec.simSeconds = tl.wallS() + rec.recoverySeconds;

    if (profiling) {
        // One slot; the sync window splits into push then pull by byte
        // share, and recovery serializes after the update. The spans
        // tile [0, simSeconds) exactly (conservation invariant).
        core::profileCompute(0, 0.0, computeS, computeS);
        core::profileStep(tl, 0, 0.0, 1.0, {syncS * profPushShare},
                          {obs::Phase::PsPush, obs::Phase::PsPush,
                           obs::Phase::PsPull});
        core::profileRecovery(0, tl.wallS(), rec.recoverySeconds, false);
    }

    sim::EnergyMeter meter;
    meter.accumulate(sim::PowerState::CpuTrain,
                     computeS * static_cast<double>(nActive));
    meter.accumulate(sim::PowerState::Comm, syncS, nActive);
    const double totalSocSeconds =
        rec.simSeconds * static_cast<double>(cfg.numSocs);
    const double busy = (computeS + syncS) *
                        static_cast<double>(nActive);
    meter.fillIdle(totalSocSeconds, busy);
    rec.energyJoules = meter.totalJoules();
    sums.fill(rec);

    pm.stalenessAge.set(static_cast<double>(epochMaxAge));
    digestShards();
    timeline.mixAll(epochIdx, steps, acked, fenced, blocks, retransmits,
                    pushDrops, failovers, rebalances, map.gate().current(),
                    rec.simSeconds);

    if (profiling) {
        core::noteResourceUsage(cluster.network(), psCap.usage);
        prof.noteTimelineHash(timeline.value());
        prof.endEpoch(rec.simSeconds);
    }

    learningRate *= cfg.sgd.lrDecayPerEpoch;
    ++epochIdx;
    return rec;
}

double
ShardedPsTrainer::testAccuracy()
{
    model.setFlatParams(global);
    return core::testAccuracy(model, bundle.test);
}

} // namespace ps
} // namespace socflow
