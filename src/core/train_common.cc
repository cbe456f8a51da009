#include "core/train_common.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"

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
