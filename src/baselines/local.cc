#include "baselines/local.hh"

#include "baselines/exact_sync.hh"
#include "baselines/fedavg.hh"
#include "baselines/ssp.hh"
#include "tensor/ops.hh"
#include "sim/energy.hh"
#include "util/logging.hh"

namespace socflow {
namespace baselines {

LocalTrainer::LocalTrainer(BaselineConfig config,
                           const data::DataBundle &bundle_in,
                           sim::Device device_in,
                           const std::vector<float> *initial)
    : cfg(std::move(config)), bundle(bundle_in),
      profile(sim::modelProfile(cfg.modelFamily)), device(device_in),
      compute(),
      model(core::buildInitialModel(cfg.modelFamily, bundle_in.spec,
                                    cfg.seed, initial)),
      rng(cfg.seed)
{
    if (device == sim::Device::SocNpu) {
        int8 = std::make_unique<quant::Int8Trainer>(
            model, cfg.sgd, quant::QuantConfig{}, cfg.seed ^ 0x1117);
    } else {
        sgd = std::make_unique<nn::Sgd>(model, cfg.sgd);
    }
}

std::string
LocalTrainer::methodName() const
{
    switch (device) {
      case sim::Device::SocCpu:
        return "Local-CPU";
      case sim::Device::SocNpu:
        return "Local-NPU";
      case sim::Device::GpuV100:
        return "V100";
      case sim::Device::GpuA100:
        return "A100";
    }
    panic("unknown device");
}

core::EpochRecord
LocalTrainer::runEpoch()
{
    core::EpochRecord rec;
    sim::EnergyMeter meter;

    data::BatchIterator it(bundle.train.size(), cfg.globalBatch,
                           rng.split());
    core::TrainSums sums;

    while (!it.epochDone()) {
        const auto idx = it.next();
        auto [x, y] = bundle.train.batch(idx);
        nn::StepResult r;
        if (int8) {
            r = int8->trainStep(x, y);
        } else {
            model.zeroGrad();
            r = model.trainStep(x, y);
            sgd->step();
        }
        sums.add(r);

        const double stepS =
            compute.batchSeconds(profile, device, idx.size());
        const double updS = compute.updateSeconds(profile);
        rec.computeSeconds += stepS;
        rec.updateSeconds += updS;
        rec.simSeconds += stepS + updS;

        const sim::PowerState state =
            device == sim::Device::SocCpu   ? sim::PowerState::CpuTrain
            : device == sim::Device::SocNpu ? sim::PowerState::NpuTrain
                                            : sim::PowerState::GpuTrain;
        // The device stays at training power through the optimizer
        // update as well.
        meter.accumulate(state, stepS + updS, 1, device);
    }

    // Replicate per-step timing/energy to the paper-scale dataset.
    const double f = bundle.timeScale();
    rec.computeSeconds *= f;
    rec.updateSeconds *= f;
    rec.simSeconds *= f;
    rec.energyJoules = meter.totalJoules() * f;
    sums.fill(rec);
    if (sgd)
        sgd->decayLearningRate();
    else
        int8->optimizer().decayLearningRate();
    return rec;
}

double
LocalTrainer::testAccuracy()
{
    if (!int8)
        return core::testAccuracy(model, bundle.test);
    // Evaluate under quantized weights (what the NPU serves).
    return core::chunkedAccuracy(
        bundle.test,
        [this](const tensor::Tensor &x, const std::vector<int> &y) {
            const auto preds = tensor::argmaxRows(int8->logits(x));
            std::size_t ok = 0;
            for (std::size_t i = 0; i < y.size(); ++i)
                ok += preds[i] == y[i] ? 1 : 0;
            return ok;
        });
}

std::unique_ptr<core::DistTrainer>
makeBaseline(const std::string &method, const BaselineConfig &config,
             const data::DataBundle &bundle,
             const std::vector<float> *initial)
{
    if (method == "PS")
        return std::make_unique<PsTrainer>(config, bundle, initial);
    if (method == "RING")
        return std::make_unique<RingTrainer>(config, bundle, initial);
    if (method == "HiPress")
        return std::make_unique<HiPressTrainer>(config, bundle, initial);
    if (method == "2D-Paral")
        return std::make_unique<TwoDParTrainer>(config, bundle, initial);
    if (method == "FedAvg") {
        return std::make_unique<FedAvgTrainer>(
            config, bundle, FedAggregation::Star, initial);
    }
    if (method == "T-FedAvg") {
        return std::make_unique<FedAvgTrainer>(
            config, bundle, FedAggregation::Tree, initial);
    }
    if (method == "SSP") {
        return std::make_unique<SspTrainer>(config, bundle,
                                            config.sspStaleness,
                                            initial);
    }
    if (method == "Local-CPU") {
        return std::make_unique<LocalTrainer>(
            config, bundle, sim::Device::SocCpu, initial);
    }
    if (method == "Local-NPU") {
        return std::make_unique<LocalTrainer>(
            config, bundle, sim::Device::SocNpu, initial);
    }
    if (method == "V100") {
        return std::make_unique<LocalTrainer>(
            config, bundle, sim::Device::GpuV100, initial);
    }
    if (method == "A100") {
        return std::make_unique<LocalTrainer>(
            config, bundle, sim::Device::GpuA100, initial);
    }
    fatal("unknown baseline method: ", method);
}

} // namespace baselines
} // namespace socflow
