#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "sim/cluster.hh"
#include "trace/harvest.hh"
#include "trace/tidal.hh"

namespace socflow_bench {

using namespace socflow;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Test accuracy every workload must reach, and the target
 * steady-vgg11's sim_s_to_target is measured to. A floor that catches
 * broken training (chance is 0.10); final_test_acc tracks quality. Over
 * 15 trainer seeds steady-vgg11 reached it after 5-9 of its 12 epochs
 * (0.85 is out of reach for some seeds) and every harvest day ended
 * above 0.88.
 */
constexpr double kAccTarget = 0.75;

/** Size of one workload; a toy variant backs --smoke. */
struct Shape {
    const char *model;
    const char *dataset;
    std::size_t socs;
    std::size_t groups;
    std::size_t groupBatch;
    /** Harvest slot length; 0 = no harvest day (steady-vgg11). */
    double slotMinutes;
    /** Fleet layout; racks <= 1 keeps the single-rack cluster. */
    std::size_t racks;
    std::size_t boardsPerRack;
    std::size_t socsPerBoard;
    /** steady-vgg11: epochs in the timed loop. */
    std::size_t epochs;
    /** Lowest acceptable final test accuracy. */
    double accFloor;
};

Shape
shapeOf(WorkloadBit bit, bool toy)
{
    switch (bit) {
      case kFleet:
        return toy ? Shape{"lenet5", "fmnist", 8, 2, 64, 240.0, 2, 2, 2,
                           0, 0.0}
                   : Shape{"lenet5", "emnist", 240, 24, 32, 30.0, 4, 12,
                           5, 0, kAccTarget};
      case kSteady:
        return toy ? Shape{"lenet5", "fmnist", 8, 2, 64, 0.0, 1, 0, 0, 2,
                           0.0}
                   : Shape{"vgg11", "cifar10", 32, 8, 32, 0.0, 1, 0, 0,
                           12, kAccTarget};
      default:  // harvest-1rack and churn-1rack
        return toy ? Shape{"lenet5", "fmnist", 16, 4, 64, 240.0, 1, 0, 0,
                           0, 0.0}
                   : Shape{"lenet5", "emnist", 60, 12, 32, 30.0, 1, 0, 0,
                           0, kAccTarget};
    }
}

/** churn-1rack's fault schedule (see README.md for the mix). */
fault::FaultPlan
churnPlan(const Shape &sh, std::uint64_t daySeed, bool toy)
{
    fault::FaultPlanConfig p;
    p.horizonEpochs = toy ? 5 : 40;
    p.numSocs = sh.socs;
    p.crashes = toy ? 1 : 2;
    p.midWaveCrashes = toy ? 1 : 2;
    p.gradCorrupts = toy ? 1 : 2;
    p.leaderCrashes = 1;
    p.boardPartitions = toy ? 1 : 2;
    p.rejoins = toy ? 1 : 2;
    p.linkDegrades = toy ? 1 : 2;
    p.stragglers = toy ? 1 : 2;
    p.checkpointFailures = toy ? 1 : 2;
    p.rackPowerLosses = 1;
    p.ckptReplicaLosses = 1;
    p.seed = daySeed + 31;
    return fault::FaultPlan::random(p);
}

/** Everything one unit's timed loop needs, built by setUp(). */
struct Scenario {
    data::DataBundle bundle;
    core::SoCFlowConfig cfg;
    std::unique_ptr<trace::TidalTrace> tidal;
    fault::FaultInjector faults;
    trace::HarvestConfig harvest;
    /** Holds a reference to `bundle`: declared after it. */
    std::unique_ptr<core::SoCFlowTrainer> trainer;
};

std::unique_ptr<Scenario>
setUp(const Workload &w, const Shape &sh, std::uint64_t seed,
      std::uint64_t daySeed, bool toy)
{
    auto s = std::make_unique<Scenario>();
    if (toy) {
        data::SyntheticParams p = data::registryParams(sh.dataset);
        p.trainSamples = 256;
        p.testSamples = 128;
        s->bundle = data::makeSynthetic(p);
    } else {
        s->bundle = data::makeDatasetByName(sh.dataset);
    }
    s->cfg.modelFamily = sh.model;
    s->cfg.numSocs = sh.socs;
    s->cfg.numGroups = sh.groups;
    s->cfg.groupBatch = sh.groupBatch;
    s->cfg.seed = seed;
    if (sh.racks > 1) {
        s->cfg.clusterTemplate = sim::fleetClusterConfig(
            sim::FleetTopology{sh.racks, sh.boardsPerRack, sh.socsPerBoard});
        // bench_e2e_throughput's fleet defaults: a 100 Gbps core with
        // no oversubscription.
        s->cfg.clusterTemplate.coreBps = 100e9;
        s->cfg.clusterTemplate.coreOversub = 1.0;
    }
    s->trainer = std::make_unique<core::SoCFlowTrainer>(s->cfg, s->bundle);
    if (sh.slotMinutes > 0.0) {
        trace::TidalConfig tc;
        tc.numSocs = sh.socs;
        tc.slotMinutes = sh.slotMinutes;
        tc.seed = daySeed + 57;
        s->tidal = std::make_unique<trace::TidalTrace>(tc);
        s->harvest.socsPerGroup = sh.socs / sh.groups;
    }
    if (w.bit == kChurn) {
        s->faults = fault::FaultInjector(churnPlan(sh, daySeed, toy));
        s->harvest.faults = &s->faults;
        s->harvest.ckptReplicas = 2;
        s->harvest.ckptIntervalEpochs = toy ? 2 : 4;
    }
    return s;
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> w = {
        {"harvest-1rack", kHarvest},
        {"fleet-4rack", kFleet},
        {"steady-vgg11", kSteady},
        {"churn-1rack", kChurn},
    };
    return w;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : allWorkloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

Unit
runUnit(const Workload &w, std::uint64_t seed, std::uint64_t daySeed,
        bool toy, std::size_t setups)
{
    const Shape sh = shapeOf(w.bit, toy);
    Unit u;
    u.accFloor = sh.accFloor;
    std::unique_ptr<Scenario> s;
    for (std::size_t i = 0; i < std::max<std::size_t>(setups, 1); ++i) {
        s.reset();
        const Clock::time_point t0 = Clock::now();
        s = setUp(w, sh, seed, daySeed, toy);
        u.setupSeconds.push_back(since(t0));
    }

    // The registries are process-wide; zeroing them here leaves exactly
    // the timed loop's share behind. Both are passive: resetting them
    // does not change the simulation.
    obs::profiler().reset();
    obs::metrics().reset();
    layers::reset();

    const Clock::time_point t0 = Clock::now();
    if (sh.slotMinutes > 0.0) {
        const trace::HarvestReport r = trace::runHarvestDay(
            *s->trainer, s->cfg, *s->tidal, s->harvest);
        u.wallSeconds = since(t0);
        u.epochsTrained = r.epochsTrained;
        u.epochsFailed = r.pausedEpochs + r.powerLosses + r.downSlots;
        u.simSeconds = r.trainingHours * 3600.0;
        u.finalTestAcc = r.finalTestAcc;
        u.timelineHash = r.timelineHash;
    } else {
        for (std::size_t e = 0; e < sh.epochs; ++e) {
            const core::EpochRecord rec = s->trainer->runEpoch();
            u.simSeconds += rec.simSeconds;
            ++u.epochsTrained;
            u.finalTestAcc = s->trainer->testAccuracy();
            if (u.simSecondsToTarget < 0.0 && u.finalTestAcc >= kAccTarget)
                u.simSecondsToTarget = u.simSeconds;
        }
        u.wallSeconds = since(t0);
        u.timelineHash = s->trainer->timelineHash();
    }

    u.layers = layers::collect();
    u.profile = obs::profiler().report();
    u.counters = obs::metrics().snapshotValues();
    return u;
}

} // namespace socflow_bench
