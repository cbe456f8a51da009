#include "core/train_common.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace socflow {
namespace core {

double
TrainResult::totalSeconds() const
{
    double s = 0.0;
    for (const auto &e : epochs)
        s += e.simSeconds;
    return s;
}

double
TrainResult::totalEnergyJoules() const
{
    double s = 0.0;
    for (const auto &e : epochs)
        s += e.energyJoules;
    return s;
}

double
TrainResult::finalTestAcc() const
{
    return epochs.empty() ? 0.0 : epochs.back().testAcc;
}

double
TrainResult::bestTestAcc() const
{
    double best = 0.0;
    for (const auto &e : epochs)
        best = std::max(best, e.testAcc);
    return best;
}

double
TrainResult::secondsToAccuracy(double target) const
{
    double s = 0.0;
    for (const auto &e : epochs) {
        s += e.simSeconds;
        if (e.testAcc >= target)
            return s;
    }
    return s;
}

double
TrainResult::joulesToAccuracy(double target) const
{
    double s = 0.0;
    for (const auto &e : epochs) {
        s += e.energyJoules;
        if (e.testAcc >= target)
            return s;
    }
    return s;
}

bool
TrainResult::reached(double target) const
{
    for (const auto &e : epochs)
        if (e.testAcc >= target)
            return true;
    return false;
}

bool
countFault(const fault::FaultSpec &s, EpochRecord &rec, double timeout_s)
{
    switch (s.kind) {
      case fault::FaultKind::SocCrash:
      case fault::FaultKind::SocCrashMidWave:
      case fault::FaultKind::LeaderCrash:
      case fault::FaultKind::PsServerCrash:
        ++rec.crashes;
        rec.recoverySeconds += timeout_s;
        return false;
      case fault::FaultKind::BoardPartition:
      case fault::FaultKind::SwitchPartition:
        ++rec.partitions;
        return false;
      case fault::FaultKind::SocRejoin:
        ++rec.rejoins;
        return true;
      default:
        return false;
    }
}

nn::Model
buildInitialModel(const std::string &family, const nn::NetSpec &spec,
                  std::uint64_t seed, const std::vector<float> *initial)
{
    Rng init_rng(seed ^ 0xbeef);
    nn::Model m = nn::buildModel(family, spec, init_rng);
    if (initial)
        m.setFlatParams(*initial);
    return m;
}

sim::ClusterConfig
clusterFor(const sim::ClusterConfig &cluster_template,
           std::size_t num_socs)
{
    sim::ClusterConfig c = cluster_template;
    c.numSocs = num_socs;
    return c;
}

double
chunkedAccuracy(const data::Dataset &test, const CorrectCounter &correct)
{
    const std::size_t chunk = 256;
    std::size_t right = 0;
    for (std::size_t start = 0; start < test.size(); start += chunk) {
        std::vector<std::size_t> idx;
        for (std::size_t i = start;
             i < std::min(test.size(), start + chunk); ++i)
            idx.push_back(i);
        auto [x, y] = test.batch(idx);
        right += correct(x, y);
    }
    return static_cast<double>(right) /
           static_cast<double>(test.size());
}

void
mergeReplicas(const MixedPrecisionController &mpc, nn::Model &fp32,
              nn::Model &int8)
{
    const std::vector<nn::Param *> p32 = fp32.params();
    const std::vector<nn::Param *> p8 = int8.params();
    SOCFLOW_ASSERT(p32.size() == p8.size(),
                   "replica parameter tensor count mismatch");
    for (std::size_t i = 0; i < p32.size(); ++i) {
        std::vector<float> &w = p32[i]->value.values();
        mpc.mergeWeights(w, p8[i]->value.values(), w);
    }
    int8.copyParamsFrom(fp32);
}

double
testAccuracy(nn::Model &model, const data::Dataset &test)
{
    return chunkedAccuracy(
        test, [&model](const tensor::Tensor &x, const std::vector<int> &y) {
            const nn::StepResult r = model.evaluate(x, y);
            return static_cast<std::size_t>(
                std::lround(r.accuracy * static_cast<double>(r.samples)));
        });
}

void
profileCompute(std::size_t slot, double t0, double compute_s,
               double slowest_s)
{
    obs::Profiler &prof = obs::profiler();
    if (compute_s > 0.0) {
        prof.addSpan(slot, obs::Phase::Forward, t0, t0 + compute_s / 3.0);
        prof.addSpan(slot, obs::Phase::Backward, t0 + compute_s / 3.0,
                     t0 + compute_s);
    }
    if (compute_s < slowest_s)
        prof.addSpan(slot, obs::Phase::Stall, t0 + compute_s,
                     t0 + slowest_s);
}

void
profileStep(const StepTimeline &tl, std::size_t slot, double t0,
            double f, const std::vector<double> &segments,
            const SyncPhases &phases)
{
    obs::Profiler &prof = obs::profiler();
    const double end = tl.forEachWave(
        segments, t0, f, [&](std::size_t w, double t, double d) {
            prof.addSpan(slot, w == 0 ? phases.first : phases.later, t,
                         t + d);
        });
    const double windowEnd = tl.syncStart(t0, f) + tl.syncS * f;
    if (end < windowEnd)
        prof.addSpan(slot, phases.residual, end, windowEnd);
    prof.addSpan(slot, obs::Phase::Update, tl.updateStart(t0, f),
                 t0 + tl.wallS() * f);

    const double computeS = tl.computeS * f;
    const double syncS = tl.syncS * f;
    prof.noteStepWindows(computeS, syncS, tl.overlap);
    if (!tl.overlap) {
        prof.attributeCritical("compute", computeS, computeS);
        prof.attributeCommCritical(syncS, syncS);
    } else if (computeS >= syncS) {
        prof.attributeCritical("compute", computeS, computeS - syncS);
    } else {
        prof.attributeCommCritical(syncS, syncS - computeS);
    }
    prof.attributeCritical("optimizer", tl.updateS * f, tl.updateS * f);
}

void
profileRecovery(std::size_t slot, double t0, double seconds, bool paused)
{
    if (seconds <= 0.0 && !paused)
        return;
    obs::profiler().addSpan(slot,
                            paused ? obs::Phase::Paused
                                   : obs::Phase::Recovery,
                            t0, t0 + seconds);
    obs::profiler().attributeCritical("fault-recovery", seconds, seconds);
}

void
registerProfilerLayers(nn::Model &model, bool &registered)
{
    if (registered)
        return;
    std::vector<std::pair<std::string, std::size_t>> table;
    for (const nn::Param *p : model.params())
        table.emplace_back(p->name, p->value.numel());
    obs::profiler().registerLayers(table);
    registered = true;
}

TrainResult
runTraining(DistTrainer &trainer, std::size_t max_epochs,
            double target_acc, std::size_t patience)
{
    TrainResult result;
    result.method = trainer.methodName();
    const obs::Labels labels{{"method", result.method}};
    obs::Counter &epochCtr =
        obs::metrics().counter("training_epochs_total", labels);
    obs::Counter &simSecCtr =
        obs::metrics().counter("training_sim_seconds_total", labels);
    obs::Counter &energyCtr =
        obs::metrics().counter("training_energy_joules_total", labels);
    obs::Gauge &accGauge =
        obs::metrics().gauge("training_test_accuracy", labels);
    obs::ScopedSpan run(obs::tracer(), "runTraining", "driver");

    double best = 0.0;
    std::size_t sinceBest = 0;
    for (std::size_t e = 0; e < max_epochs; ++e) {
        obs::ScopedSpan epochSpan(obs::tracer(), "epoch", "driver");
        EpochRecord rec = trainer.runEpoch();
        rec.epoch = e;
        rec.testAcc = trainer.testAccuracy();
        result.epochs.push_back(rec);
        epochCtr.add(1.0);
        simSecCtr.add(rec.simSeconds);
        energyCtr.add(rec.energyJoules);
        accGauge.set(rec.testAcc);
        if (target_acc > 0.0 && rec.testAcc >= target_acc)
            break;
        if (rec.testAcc > best + 1e-9) {
            best = rec.testAcc;
            sinceBest = 0;
        } else if (patience > 0 && ++sinceBest >= patience) {
            break;
        }
    }
    return result;
}

} // namespace core
} // namespace socflow
