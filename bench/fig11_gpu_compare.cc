/**
 * @file
 * Figure 11: SoCFlow on the full 60-SoC cluster vs datacenter GPUs
 * (V100, and the A100 against a newer-generation SoC modeled as a
 * 2.5x-faster NPU/CPU), comparing time and energy to the same
 * convergence target.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

const char *figModels[] = {"VGG11", "ResNet18", "LeNet5-EMNIST",
                           "LeNet5-FMNIST"};

void
compare(sim::Device gpu, double soc_speedup, const char *title)
{
    Table time(std::string("Figure 11 (time): ") + title);
    time.setHeader({"model", "Ours", "GPU", "ours-speedup"});
    Table energy(std::string("Figure 11 (energy): ") + title);
    energy.setHeader({"model", "Ours-kJ", "GPU-kJ", "saving"});

    std::vector<const Workload *> picks;
    for (const auto &cand : paperWorkloads()) {
        if (options().smoke) {
            picks.push_back(&cand);
            continue;
        }
        for (const char *key : figModels)
            if (cand.key == key)
                picks.push_back(&cand);
    }
    for (const Workload *w : picks) {
        const std::string &key = w->key;
        data::DataBundle bundle = data::makeDatasetByName(w->dataset);
        const std::size_t epochs = scaledEpochs(7);

        // GPU run (defines the common convergence target).
        auto gpuTrainer = baselines::makeBaseline(
            gpu == sim::Device::GpuV100 ? "V100" : "A100",
            baselineConfig(*w, 1), bundle);
        const auto gpuRes =
            core::runTraining(*gpuTrainer, epochs, 0.0, 4);
        const double target = 0.99 * gpuRes.bestTestAcc();

        // SoCFlow on all 60 SoCs; a newer SoC generation scales the
        // compute model uniformly (cpuMsPerSample / soc_speedup).
        core::SoCFlowConfig cfg = oursConfig(*w, 60, 15);
        core::SoCFlowTrainer ours(cfg, bundle);
        auto oursRes = core::runTraining(ours, epochs, target, 4);
        const double speed = soc_speedup;
        const double oursT =
            oursRes.secondsToAccuracy(target) / speed;
        const double oursE =
            oursRes.joulesToAccuracy(target) / 1000.0 / speed;

        const double gpuT = gpuRes.secondsToAccuracy(target);
        const double gpuE =
            gpuRes.joulesToAccuracy(target) / 1000.0;

        time.addRow({key, formatDuration(oursT),
                     formatDuration(gpuT),
                     formatDouble(gpuT / oursT, 2) + "x"});
        energy.addRow({key, formatDouble(oursE, 1),
                       formatDouble(gpuE, 1),
                       formatDouble(gpuE / oursE, 2) + "x"});
    }
    time.print();
    std::printf("\n");
    energy.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    setLogLevel(LogLevel::Warn);
    // Snapdragon 865 fleet vs V100.
    compare(sim::Device::GpuV100, 1.0, "60x Snapdragon 865 vs V100");
    // 8gen1-class SoCs (roughly 2.5x the 865's training throughput,
    // per the AI-benchmark trend the paper cites) vs A100.
    compare(sim::Device::GpuA100, 2.5, "60x Snapdragon 8gen1 vs A100");
    std::printf("(paper: 0.80-2.79x speedup over the V100 and "
                "2.31-10.23x lower energy at the same accuracy)\n");
    return 0;
}
