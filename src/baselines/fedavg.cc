#include "baselines/fedavg.hh"

#include <algorithm>

#include "collectives/reduce.hh"
#include "sim/energy.hh"
#include "util/logging.hh"

namespace socflow {
namespace baselines {

FedAvgTrainer::Client::Client(const nn::Model &proto,
                              const nn::SgdConfig &scfg)
    : model(proto)
{
    sgd = std::make_unique<nn::Sgd>(model, scfg);
}

FedAvgTrainer::FedAvgTrainer(BaselineConfig config,
                             const data::DataBundle &bundle_in,
                             FedAggregation aggregation,
                             const std::vector<float> *initial)
    : cfg(std::move(config)), bundle(bundle_in),
      profile(sim::modelProfile(cfg.modelFamily)),
      cluster(core::clusterFor(cfg.clusterTemplate, cfg.numSocs)),
      engine(cluster), agg(aggregation),
      rng(cfg.seed), currentLr(cfg.sgd.learningRate)
{
    nn::Model proto = core::buildInitialModel(
        cfg.modelFamily, bundle.spec, cfg.seed, initial);
    globalWeights = proto.flatParams();

    // Static client shards (federated data does not shuffle across
    // clients -- the key difference from SoCFlow's cross-group
    // shuffle).
    Rng shardRng(cfg.seed ^ 0x5a5a);
    std::vector<std::vector<std::size_t>> shards;
    if (cfg.fedLabelSkew > 0.0) {
        shards = data::shardByLabelSkew(bundle.train.labels(),
                                        cfg.numSocs, cfg.fedLabelSkew,
                                        bundle.train.classes(), shardRng);
    } else {
        shards = data::shardIid(bundle.train.size(), cfg.numSocs,
                                shardRng);
    }

    clients.reserve(cfg.numSocs);
    for (std::size_t c = 0; c < cfg.numSocs; ++c) {
        clients.push_back(std::make_unique<Client>(proto, cfg.sgd));
        clients.back()->shard = std::move(shards[c]);
    }
}

std::string
FedAvgTrainer::methodName() const
{
    return agg == FedAggregation::Star ? "FedAvg" : "T-FedAvg";
}

core::EpochRecord
FedAvgTrainer::runEpoch()
{
    core::EpochRecord rec;
    sim::EnergyMeter meter;

    core::TrainSums sums;
    std::size_t maxShard = 0;

    for (auto &clientPtr : clients) {
        Client &client = *clientPtr;
        client.model.setFlatParams(globalWeights);
        client.sgd->resetState();
        client.sgd->config().learningRate = currentLr;
        maxShard = std::max(maxShard, client.shard.size());

        for (std::size_t pass = 0; pass < cfg.fedLocalEpochs; ++pass) {
            rng.shuffle(client.shard);
            for (std::size_t start = 0; start < client.shard.size();
                 start += cfg.fedLocalBatch) {
                const std::size_t end = std::min(
                    client.shard.size(), start + cfg.fedLocalBatch);
                std::vector<std::size_t> idx(
                    client.shard.begin() + start,
                    client.shard.begin() + end);
                auto [x, y] = bundle.train.batch(idx);
                client.model.zeroGrad();
                nn::StepResult r = client.model.trainStep(x, y);
                client.sgd->step();
                sums.add(r);
            }
        }
    }

    // Aggregate client weights (equal shards -> plain average).
    std::vector<std::vector<float> *> ptrs;
    std::vector<std::vector<float>> weights;
    weights.reserve(clients.size());
    for (auto &client : clients)
        weights.push_back(client->model.flatParams());
    for (auto &w : weights)
        ptrs.push_back(&w);
    collectives::allReduceAverage(ptrs);
    globalWeights = weights.front();

    // Timing: clients run concurrently; the slowest shard bounds the
    // compute phase, then one aggregation per round.
    const double computeS = static_cast<double>(maxShard) *
                            static_cast<double>(cfg.fedLocalEpochs) *
                            profile.cpuMsPerSample / 1000.0;
    if (cachedSyncS < 0.0) {
        std::vector<sim::SocId> socs(cfg.numSocs);
        for (std::size_t i = 0; i < cfg.numSocs; ++i)
            socs[i] = i;
        if (agg == FedAggregation::Star) {
            cachedSyncS =
                engine.paramServer(socs, 0, profile.paramBytes())
                    .seconds;
        } else {
            cachedSyncS =
                engine.treeAggregate(socs, profile.paramBytes())
                    .seconds;
        }
    }
    // The local-compute phase replicates to the paper-scale dataset;
    // aggregation still happens once per round.
    const double f = bundle.timeScale();
    rec.computeSeconds = computeS * f;
    rec.syncSeconds = cachedSyncS;
    rec.updateSeconds = 0.0;
    rec.simSeconds = rec.computeSeconds + cachedSyncS;

    const double cpuSocSeconds =
        static_cast<double>(sums.samples) * profile.cpuMsPerSample * f /
        1000.0;
    meter.accumulate(sim::PowerState::CpuTrain, cpuSocSeconds);
    meter.accumulate(sim::PowerState::Comm, cachedSyncS, cfg.numSocs);
    const double totalSocSeconds =
        rec.simSeconds * static_cast<double>(cfg.numSocs);
    const double busySocSeconds =
        cpuSocSeconds + cachedSyncS * static_cast<double>(cfg.numSocs);
    meter.fillIdle(totalSocSeconds, busySocSeconds);
    rec.energyJoules = meter.totalJoules();
    sums.fill(rec);
    currentLr *= cfg.sgd.lrDecayPerEpoch;
    return rec;
}

double
FedAvgTrainer::testAccuracy()
{
    nn::Model &m = clients.front()->model;
    m.setFlatParams(globalWeights);
    return core::testAccuracy(m, bundle.test);
}

} // namespace baselines
} // namespace socflow
