#include "baselines/exact_sync.hh"

#include <algorithm>
#include <cmath>

#include "collectives/reduce.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace socflow {
namespace baselines {

namespace {

std::vector<sim::SocId>
allSocs(std::size_t n)
{
    std::vector<sim::SocId> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

} // namespace

ExactSyncTrainer::ExactSyncTrainer(BaselineConfig config,
                                   const data::DataBundle &bundle_in,
                                   const std::vector<float> *initial)
    : cfg(std::move(config)), bundle(bundle_in),
      profile(sim::modelProfile(cfg.modelFamily)),
      cluster(core::clusterFor(cfg.clusterTemplate, cfg.numSocs)),
      engine(cluster), compute(),
      model(core::buildInitialModel(cfg.modelFamily, bundle_in.spec,
                                    cfg.seed, initial)),
      rng(cfg.seed)
{
    sgd = std::make_unique<nn::Sgd>(model, cfg.sgd);
}

double
ExactSyncTrainer::computeSecondsPerBatch(std::size_t samples) const
{
    // Data-parallel: each SoC computes its share of the batch.
    const double perSoc =
        std::ceil(static_cast<double>(samples) /
                  static_cast<double>(cfg.numSocs));
    return perSoc * profile.cpuMsPerSample / 1000.0;
}

core::EpochRecord
ExactSyncTrainer::runEpoch()
{
    core::EpochRecord rec;
    sim::EnergyMeter meter;

    obs::Tracer &tr = obs::tracer();
    obs::ScopedSpan hostEpoch(tr, "runEpoch", "baseline");
    const bool tracing = tr.enabled();
    const std::string method = methodName();
    obs::Counter &stepCtr = obs::metrics().counter(
        "baseline_steps_total", {{"method", method}});
    obs::Histogram &stepSyncHist = obs::metrics().histogram(
        "baseline_step_sync_seconds", {{"method", method}});
    const double f = bundle.timeScale();

    data::BatchIterator it(bundle.train.size(), cfg.globalBatch,
                           rng.split());
    const double syncS = syncSecondsPerBatch();
    const double updateS = compute.updateSeconds(profile);

    core::TrainSums sums;
    double cpuSocSeconds = 0.0;
    double commSocSeconds = 0.0;

    while (!it.epochDone()) {
        const auto idx = it.next();
        auto [x, y] = bundle.train.batch(idx);
        model.zeroGrad();
        nn::StepResult r = model.trainStep(x, y);
        transformGradients();
        sgd->step();

        sums.add(r);

        const double computeS = computeSecondsPerBatch(idx.size());
        rec.computeSeconds += computeS;
        rec.syncSeconds += syncS;
        rec.updateSeconds += updateS;
        const core::StepTimeline tl{computeS, syncS, updateS,
                                    overlapsCompute()};
        const double stepWallS = tl.wallS();
        rec.simSeconds += stepWallS;
        stepCtr.add(1.0);
        stepSyncHist.observe(syncS);
        if (tracing) {
            const double t0 = simClockS;
            tr.recordSpan("compute", "compute",
                          obs::kTrackGroupBase, t0, computeS * f);
            tr.recordSpan("sync", "comm", obs::kTrackComm,
                          tl.syncStart(t0, f), syncS * f);
            tr.recordSpan("step", "control", obs::kTrackControl, t0,
                          stepWallS * f);
        }
        simClockS += stepWallS * f;

        // Every SoC burns CPU power for its share, then comm power.
        cpuSocSeconds += static_cast<double>(idx.size()) *
                         profile.cpuMsPerSample / 1000.0;
        commSocSeconds += syncS * static_cast<double>(cfg.numSocs);
    }

    // Replicate per-step timing to a paper-scale epoch (the math ran
    // on the small synthetic stand-in; the simulated hardware would
    // iterate over the full dataset).
    rec.computeSeconds *= f;
    rec.syncSeconds *= f;
    rec.updateSeconds *= f;
    rec.simSeconds *= f;

    meter.accumulate(sim::PowerState::CpuTrain, cpuSocSeconds * f);
    meter.accumulate(sim::PowerState::Comm, commSocSeconds * f);
    const double totalSocSeconds =
        rec.simSeconds * static_cast<double>(cfg.numSocs);
    const double busySocSeconds =
        cpuSocSeconds * f + commSocSeconds * f;
    meter.fillIdle(totalSocSeconds, busySocSeconds);

    rec.energyJoules = meter.totalJoules();
    sums.fill(rec);
    sgd->decayLearningRate();
    return rec;
}

double
ExactSyncTrainer::testAccuracy()
{
    return core::testAccuracy(model, bundle.test);
}

// ------------------------------------------------------------------ PS

double
PsTrainer::syncSecondsPerBatch() const
{
    if (cachedSyncS < 0.0) {
        cachedSyncS = engine
                          .paramServer(allSocs(cfg.numSocs), 0,
                                       profile.paramBytes())
                          .seconds;
    }
    return cachedSyncS;
}

// ---------------------------------------------------------------- RING

double
RingTrainer::syncSecondsPerBatch() const
{
    if (cachedSyncS < 0.0) {
        cachedSyncS =
            engine.ringAllReduce(allSocs(cfg.numSocs),
                                 profile.paramBytes())
                .seconds;
    }
    return cachedSyncS;
}

// ------------------------------------------------------------- HiPress

HiPressTrainer::HiPressTrainer(BaselineConfig config,
                               const data::DataBundle &bundle,
                               const std::vector<float> *initial)
    : ExactSyncTrainer(std::move(config), bundle, initial)
{
    residual.assign(model.paramCount(), 0.0f);
}

double
HiPressTrainer::syncSecondsPerBatch() const
{
    if (cachedSyncS < 0.0) {
        // Sparse payload: 4-byte value + 4-byte index per kept entry.
        // Sparse gradients cannot reduce-scatter along a ring (the
        // index sets differ), so HiPress aggregates hierarchically --
        // modeled as a binary aggregation/broadcast tree, which also
        // avoids paying the ring's 2(N-1) per-round latencies on a
        // payload this small.
        const double bytes =
            profile.paramBytes() * cfg.compressionRatio * 2.0;
        cachedSyncS =
            engine.treeAggregate(allSocs(cfg.numSocs), bytes).seconds;
    }
    return cachedSyncS;
}

double
HiPressTrainer::computeSecondsPerBatch(std::size_t samples) const
{
    return ExactSyncTrainer::computeSecondsPerBatch(samples) *
           (1.0 + cfg.compressionOverhead);
}

void
HiPressTrainer::transformGradients()
{
    // DGC: keep top-k by magnitude, bank the rest in the residual.
    std::vector<float> grad = model.flatGrads();
    collectives::SparseGrad sparse =
        collectives::compressTopK(grad, residual, cfg.compressionRatio);
    std::vector<float> dense(grad.size(), 0.0f);
    collectives::applySparse(sparse, dense);
    model.setFlatGrads(dense);
}

// ------------------------------------------------------------ 2D-Paral

double
TwoDParTrainer::syncSecondsPerBatch() const
{
    if (cachedSyncS < 0.0) {
        // Ring data parallelism across pipeline-group leaders. Every
        // group still pushes a full model gradient; stage shards sync
        // in parallel rings, so leaders carry the whole payload here.
        const std::size_t p =
            std::max<std::size_t>(1, cfg.pipelineGroupSize);
        std::vector<sim::SocId> leaders;
        for (std::size_t g = 0; g * p < cfg.numSocs; ++g)
            leaders.push_back(g * p);
        cachedSyncS =
            engine.ringAllReduce(leaders, profile.paramBytes()).seconds;
    }
    return cachedSyncS;
}

double
TwoDParTrainer::computeSecondsPerBatch(std::size_t samples) const
{
    // Pipeline of p stages over m microbatches: bubble factor
    // (m + p - 1) / m; activations hop between adjacent stages.
    const double p =
        static_cast<double>(std::max<std::size_t>(1,
                                                  cfg.pipelineGroupSize));
    const double m = static_cast<double>(
        std::max<std::size_t>(1, cfg.pipelineMicrobatches));
    const double groupCount =
        std::max(1.0, static_cast<double>(cfg.numSocs) / p);
    const double perGroupSamples =
        std::ceil(static_cast<double>(samples) / groupCount);
    const double idealS =
        perGroupSamples * profile.cpuMsPerSample / (1000.0 * p);
    const double pipelineS = idealS * (m + p - 1.0) / m;
    // Inter-stage activation traffic (intra-board at 1 Gbps).
    const double actS = perGroupSamples * (p - 1.0) *
                        cfg.activationBytesPerSample /
                        (cluster.config().socLinkBps / 8.0);
    return pipelineS + actS;
}

} // namespace baselines
} // namespace socflow
