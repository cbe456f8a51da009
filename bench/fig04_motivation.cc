/**
 * @file
 * Figure 4: the motivation measurements.
 *  (a) end-to-end single-SoC training time, CPU-FP32 vs NPU-INT8;
 *  (b) communication latency of Ring-AllReduce and Parameter Server
 *      as the SoC count grows (VGG-11 and ResNet-18 payloads);
 *  (c) convergence accuracy of CPU-FP32 vs NPU-INT8 training.
 */

#include <cstdio>

#include "bench_common.hh"
#include "collectives/engine.hh"
#include "sim/calibration.hh"
#include "sim/cluster.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

void
partA_and_C()
{
    Table a("Figure 4(a): single-SoC end-to-end training time");
    a.setHeader({"model", "CPU-FP32", "NPU-INT8", "npu-speedup"});
    Table c("Figure 4(c): single-SoC convergence accuracy");
    c.setHeader({"model", "CPU-FP32-acc%", "NPU-INT8-acc%", "gap"});

    std::vector<const Workload *> picks;
    for (const auto &cand : paperWorkloads())
        if (options().smoke || cand.key == "VGG11" ||
            cand.key == "ResNet18")
            picks.push_back(&cand);
    for (const Workload *w : picks) {
        const std::string &key = w->key;
        data::DataBundle bundle = data::makeDatasetByName(w->dataset);

        baselines::LocalTrainer cpu(baselineConfig(*w, 1), bundle,
                                    sim::Device::SocCpu);
        baselines::LocalTrainer npu(baselineConfig(*w, 1), bundle,
                                    sim::Device::SocNpu);
        const auto rc =
            core::runTraining(cpu, scaledEpochs(10), 0.0, 4);
        const auto rn =
            core::runTraining(npu, scaledEpochs(10), 0.0, 4);

        a.addRow({key, formatDuration(rc.totalSeconds()),
                  formatDuration(rn.totalSeconds()),
                  formatDouble(rc.totalSeconds() / rn.totalSeconds(),
                               2) +
                      "x"});
        c.addRow({key, formatDouble(100.0 * rc.bestTestAcc(), 1),
                  formatDouble(100.0 * rn.bestTestAcc(), 1),
                  formatDouble(
                      100.0 * (rc.bestTestAcc() - rn.bestTestAcc()),
                      1)});
    }
    a.print();
    std::printf("(paper: VGG-11 29.1 h CPU / ~7.5 h NPU; ResNet-18 "
                "233 h / 36 h -- hour-scale because the paper trains "
                "50k-sample CIFAR-10 for ~10x more epochs)\n\n");
    c.print();
    std::printf("(paper: INT8-only training loses 2.7-8.3 accuracy "
                "points)\n\n");
}

void
partB()
{
    Table b("Figure 4(b): per-sync communication latency vs SoC count");
    b.setHeader({"socs", "V11-Ring", "R18-Ring", "V11-PS", "R18-PS"});

    sim::ClusterConfig cc;
    cc.numSocs = 60;
    sim::Cluster cluster(cc);
    collectives::CollectiveEngine eng(cluster);
    const double vgg = sim::modelProfile("vgg11").paramBytes();
    const double r18 = sim::modelProfile("resnet18").paramBytes();

    for (std::size_t n : {4u, 8u, 12u, 16u, 20u, 24u, 28u, 32u}) {
        std::vector<sim::SocId> socs;
        for (sim::SocId s = 0; s < n; ++s)
            socs.push_back(s);
        b.addRow({std::to_string(n),
                  formatDuration(eng.ringAllReduce(socs, vgg).seconds),
                  formatDuration(eng.ringAllReduce(socs, r18).seconds),
                  formatDuration(
                      eng.paramServer(socs, 0, vgg).seconds),
                  formatDuration(
                      eng.paramServer(socs, 0, r18).seconds)});
    }
    b.print();
    std::printf("(paper anchors: 5-SoC ring 540/699 ms; 32-SoC ring "
                "1248/2225 ms; 32-SoC PS 20593/26505 ms)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    setLogLevel(LogLevel::Warn);
    partB();
    std::printf("\n");
    partA_and_C();
    return 0;
}
