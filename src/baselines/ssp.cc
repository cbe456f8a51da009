#include "baselines/ssp.hh"

#include <algorithm>
#include <cmath>

#include "membership/membership.hh"
#include "sim/energy.hh"
#include "util/logging.hh"

namespace socflow {
namespace baselines {

SspTrainer::SspTrainer(BaselineConfig config,
                       const data::DataBundle &bundle_in,
                       std::size_t staleness,
                       const std::vector<float> *initial)
    : cfg(std::move(config)), bundle(bundle_in),
      profile(sim::modelProfile(cfg.modelFamily)),
      cluster(core::clusterFor(cfg.clusterTemplate, cfg.numSocs)),
      engine(cluster), bound(staleness),
      model(core::buildInitialModel(cfg.modelFamily, bundle_in.spec,
                                    cfg.seed, initial)),
      rng(cfg.seed)
{
    sgd = std::make_unique<nn::Sgd>(model, cfg.sgd);
    globalWeights = model.flatParams();
    workers.resize(cfg.numSocs);
    for (auto &w : workers) {
        w.snapshot = globalWeights;
        // Treat the initial snapshot as maximally stale so every
        // worker pulls fresh weights before its first gradient.
        w.sincePull = bound + 1;
    }
}

core::EpochRecord
SspTrainer::runEpoch()
{
    core::EpochRecord rec;
    rec.epoch = epochIdx;

    // Fault replay (satellite of the sharded-PS work): the monolithic
    // SSP server is SoC 0 with no failover tier, so a server crash or
    // an unreachable server board pauses the epoch outright. Worker
    // casualties just shrink the rotation. With no injector attached
    // the rotation is the identity and every formula below reduces to
    // the historical fault-free math bit-for-bit.
    std::vector<std::size_t> activeIdx;
    double minComputeFactor = 1.0;
    if (faults) {
        const auto fired = faults->advanceTo(epochIdx);
        for (const fault::FaultSpec &s : fired) {
            timeline.mixAll(s.kind, s.epoch, s.step, s.soc);
            // The rejoiner lost its snapshot: force a pull before its
            // next gradient.
            if (core::countFault(s, rec, engine.syncPolicy().timeoutS) &&
                s.soc < workers.size())
                workers[s.soc].sincePull = bound + 1;
        }
        const bool serverDown =
            !membership::usable(faults, cluster, kServerSoc);
        for (std::size_t i = 0; i < workers.size(); ++i) {
            const auto soc = static_cast<sim::SocId>(i);
            if (membership::usable(faults, cluster, soc)) {
                activeIdx.push_back(i);
                minComputeFactor = std::min(
                    minComputeFactor, faults->computeFactor(soc));
            }
        }
        if (serverDown || activeIdx.empty()) {
            rec.paused = true;
            rec.simSeconds = engine.syncPolicy().timeoutS;
            timeline.mixAll(0xDEADBEA7ULL, epochIdx);
            ++epochIdx;
            return rec;
        }
    } else {
        activeIdx.resize(workers.size());
        for (std::size_t i = 0; i < workers.size(); ++i)
            activeIdx[i] = i;
    }

    data::BatchIterator it(bundle.train.size(), cfg.globalBatch,
                           rng.split());
    core::TrainSums sums;
    std::size_t steps = 0;

    while (!it.epochDone()) {
        const auto idx = it.next();
        auto [x, y] = bundle.train.batch(idx);
        Worker &w = workers[activeIdx[steps % activeIdx.size()]];

        // Bounded staleness, checked before compute: a worker whose
        // snapshot is older than `bound` steps must re-pull first
        // (bound = 0 therefore degenerates to synchronous PS).
        if (w.sincePull > bound) {
            w.snapshot = globalWeights;
            w.sincePull = 0;
        }

        // Gradient against the worker's (possibly stale) snapshot.
        model.setFlatParams(w.snapshot);
        model.zeroGrad();
        const nn::StepResult r = model.trainStep(x, y);
        const std::vector<float> grads = model.flatGrads();

        // Server applies the (stale) gradient to the global model;
        // momentum is server-side state.
        model.setFlatParams(globalWeights);
        model.setFlatGrads(grads);
        sgd->step();
        globalWeights = model.flatParams();

        ++w.sincePull;

        sums.add(r);
        ++steps;
    }

    // Timing: no barrier -- workers stream pushes/pulls to the
    // server while computing, so the epoch is bounded by the larger
    // of aggregate compute (spread over workers) and the server's
    // NIC drain rate under fan-in congestion.
    const double f = bundle.timeScale();
    const double stepsD = static_cast<double>(steps) * f;
    const std::size_t nActive = activeIdx.size();
    const double perWorkerSteps =
        stepsD / static_cast<double>(nActive);
    double computeS = perWorkerSteps *
                      static_cast<double>(cfg.globalBatch) *
                      profile.cpuMsPerSample / 1000.0;
    if (minComputeFactor > 0.0 && minComputeFactor < 1.0)
        computeS /= minComputeFactor;
    const double pullFraction =
        1.0 / static_cast<double>(bound + 1);
    const double wireBytes =
        stepsD * profile.paramBytes() * (1.0 + pullFraction);
    double serverRate =
        (cluster.config().socLinkBps / 8.0) *
        std::pow(static_cast<double>(nActive),
                 -cluster.config().congestionExponent);
    // A degraded NIC on the server's board throttles every exchange.
    if (faults)
        serverRate *= faults->linkFactor(cluster.board(kServerSoc));
    const double syncS = wireBytes / serverRate;

    rec.computeSeconds = computeS;
    rec.syncSeconds = syncS;
    rec.updateSeconds =
        stepsD * profile.updateMsPerBatch / 1000.0;
    rec.simSeconds = std::max(computeS, syncS) + rec.updateSeconds +
                     rec.recoverySeconds;

    sim::EnergyMeter meter;
    meter.accumulate(sim::PowerState::CpuTrain,
                     computeS * static_cast<double>(nActive));
    meter.accumulate(sim::PowerState::Comm, syncS, nActive);
    const double totalSocSeconds =
        rec.simSeconds * static_cast<double>(cfg.numSocs);
    const double busy = computeS * static_cast<double>(nActive) +
                        syncS * static_cast<double>(nActive);
    meter.fillIdle(totalSocSeconds, busy);
    rec.energyJoules = meter.totalJoules();
    sums.fill(rec);
    sgd->decayLearningRate();

    timeline.mixAll(epochIdx, steps, rec.simSeconds, rec.trainLoss);
    ++epochIdx;
    return rec;
}

double
SspTrainer::testAccuracy()
{
    model.setFlatParams(globalWeights);
    return core::testAccuracy(model, bundle.test);
}

} // namespace baselines
} // namespace socflow
