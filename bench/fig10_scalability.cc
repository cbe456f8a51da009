/**
 * @file
 * Figure 10: training time to the same target accuracy as the SoC
 * count grows (8 -> 16 -> 32), for every method and workload.
 *
 * Math-sharing notes: the exact-sync methods' SGD trajectory depends
 * only on the global batch, not the SoC count, so it is computed
 * once per workload; FedAvg's trajectory is computed at 32 clients
 * and reused (shard-size effects on the math are second-order);
 * SoCFlow re-runs its math at every scale because the group count
 * changes with the SoC count.
 *
 * Fleet extension (EXPERIMENTS.md): a second sweep continues the
 * SoCFlow curve past the single rack -- 60 (1 rack), 240 (4 racks),
 * and 1020 (17 racks) SoCs behind the inter-rack core, using the
 * three-tier hierarchical aggregation. Per-epoch time should grow
 * gently (the cluster ring only carries one representative per rack)
 * until the oversubscribed core starts to dominate; tune with
 * --core-gbps / --oversub.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hh"

#include "baselines/exact_sync.hh"
#include "baselines/fedavg.hh"
#include "sim/cluster.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

const std::size_t socCounts[] = {8, 16, 32};

core::TrainResult
retime(const core::TrainResult &reference, const std::string &method,
       const core::EpochRecord &one)
{
    core::TrainResult out;
    out.method = method;
    out.epochs = reference.epochs;
    for (auto &e : out.epochs) {
        e.simSeconds = one.simSeconds;
        e.energyJoules = one.energyJoules;
    }
    return out;
}

void
sweepWorkload(const Workload &w)
{
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);
    // Tiny stub with the same paper-scale factor: identical per-epoch
    // timing at a fraction of the host cost (used for retiming only).
    data::SyntheticParams stubParams =
        data::registryParams(w.dataset);
    stubParams.trainSamples = 64;
    stubParams.testSamples = 16;
    const data::DataBundle stub = data::makeSynthetic(stubParams);
    const std::size_t epochs = scaledEpochs(10);

    // Reference math at 32 SoCs comes from the shared suite (cached
    // when fig08/fig09 ran first).
    const SuiteResult suite = runSuite(w, 32, 10);
    const core::TrainResult &ringRef = findRun(suite, "RING").result;
    const core::TrainResult &fedRef = findRun(suite, "FedAvg").result;
    const double target = suite.targetAcc;

    Table t("Figure 10: time to " +
            formatDouble(100.0 * target, 1) + "% accuracy vs SoC "
            "count (" + w.key + ")");
    std::vector<std::string> header = {"method"};
    for (std::size_t n : socCounts)
        header.push_back(std::to_string(n) + "-SoCs");
    t.setHeader(header);

    for (const auto &method : suiteMethods()) {
        std::vector<std::string> row = {method};
        for (std::size_t n : socCounts) {
            core::TrainResult result;
            if (method == "Ours") {
                if (n == 32) {
                    result = findRun(suite, "Ours").result;
                } else {
                    core::SoCFlowTrainer ours(
                        oursConfig(w, n,
                                   std::max<std::size_t>(1, n / 8)),
                        bundle);
                    result = core::runTraining(ours, epochs, target, 4);
                }
            } else if (method == "RING" || method == "PS" ||
                       method == "HiPress" || method == "2D-Paral") {
                auto trainer = baselines::makeBaseline(
                    method, baselineConfig(w, n), stub);
                result = retime(ringRef, method,
                                trainer->runEpoch());
            } else {  // FedAvg / T-FedAvg
                auto trainer = baselines::makeBaseline(
                    method, baselineConfig(w, n), stub);
                result =
                    retime(fedRef, method, trainer->runEpoch());
            }
            const bool reached = result.reached(target);
            std::string cell = reached ? "" : ">";
            cell += formatDuration(result.secondsToAccuracy(target));
            row.push_back(cell);
        }
        t.addRow(std::move(row));
    }
    t.print();
    std::printf("\n");
    std::fprintf(stderr, "[fig10] finished %s\n", w.key.c_str());
}

/**
 * Fleet continuation of the scalability curve: SoCFlow only (the
 * baselines have no multi-rack story), one rack up to 17 racks /
 * 1020 SoCs. Smoke tier shrinks the fleet to 2x2x2 so ctest stays
 * fast while still crossing a rack boundary.
 */
void
sweepFleet(const Workload &w)
{
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);
    const std::size_t epochs = options().smoke ? 1 : scaledEpochs(5);
    std::vector<sim::FleetTopology> points;
    if (options().smoke) {
        points = {{1, 2, 2}, {2, 2, 2}};
    } else {
        points = {{1, 12, 5}, {4, 12, 5}, {17, 12, 5}};
    }

    Table t("Figure 10 (extended): SoCFlow fleet scaling (" + w.key +
            ", core " + formatDouble(options().coreGbps, 0) +
            " Gbps, oversub " + formatDouble(options().oversub, 1) + ")");
    t.setHeader({"racks", "SoCs", "groups", "epoch-sim-s",
                 "epoch-sync-s", "wall-s"});
    for (const sim::FleetTopology &topo : points) {
        const std::size_t socs = topo.numSocs();
        const std::size_t groups =
            std::max<std::size_t>(1, socs / (options().smoke ? 2 : 10));
        core::SoCFlowConfig cfg = oursConfig(w, socs, groups);
        cfg.clusterTemplate = sim::fleetClusterConfig(topo);
        cfg.clusterTemplate.coreBps = options().coreGbps * 1e9;
        cfg.clusterTemplate.coreOversub = options().oversub;

        const auto start = std::chrono::steady_clock::now();
        core::SoCFlowTrainer ours(cfg, bundle);
        const core::TrainResult result =
            core::runTraining(ours, epochs);
        const double wallS =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();

        const core::EpochRecord &first = result.epochs.front();
        t.addRow({std::to_string(topo.racks), std::to_string(socs),
                  std::to_string(groups),
                  formatDouble(first.simSeconds, 1),
                  formatDouble(first.syncSeconds, 1),
                  formatDouble(wallS, 1)});
        std::fprintf(stderr, "[fig10] fleet %zu racks / %zu SoCs done\n",
                     topo.racks, socs);
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    setLogLevel(LogLevel::Warn);
    for (const auto &w : paperWorkloads())
        sweepWorkload(w);
    // The fleet continuation is one workload deep: the per-rack
    // timing is model-size dominated, so one curve tells the story.
    sweepFleet(paperWorkloads().front());
    std::printf("(paper: SoCFlow's advantage grows with scale -- "
                "474x vs PS and 49x vs RING at 32 SoCs, ~2.6x larger "
                "than at 8 SoCs)\n");
    return 0;
}
