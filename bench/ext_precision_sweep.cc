/**
 * @file
 * Extension bench (§5, "Future applicability of SoCFlow"): newer
 * mobile NPUs expose INT4/INT8/INT16/FP16-class formats. SoCFlow is
 * orthogonal to the low-precision algorithm, so this sweep trains
 * the same workload with the NPU path quantized at different bit
 * widths (and speed scaled with format width) and reports the
 * accuracy/time trade-off the discussion section predicts.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

struct Format {
    const char *name;
    int bits;
    /** NPU speed multiplier vs the INT8 baseline format. */
    double speedVsInt8;
};

void
sweep(const Workload &w)
{
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);
    const std::size_t epochs = scaledEpochs(8);

    // Wider formats halve throughput per doubling, INT4 doubles it
    // (the Hexagon/8gen trend the paper cites).
    const Format formats[] = {
        {"INT4", 4, 2.0},
        {"INT8", 8, 1.0},
        {"INT16", 16, 0.5},
        {"FP16*", 16, 0.6},  // modeled as 16-bit fake-quantization
    };

    Table t("Extension: NPU format sweep (" + w.key + ", 32 SoCs)");
    t.setHeader({"format", "final-acc%", "epoch-time", "cpu-share"});

    for (const auto &f : formats) {
        core::SoCFlowConfig cfg = oursConfig(w, 32, 4);
        cfg.quant.bits = f.bits;
        core::SoCFlowTrainer trainer(cfg, bundle);
        double seconds = 0.0;
        for (std::size_t e = 0; e < epochs; ++e)
            seconds += trainer.runEpoch().simSeconds / f.speedVsInt8;
        t.addRow({f.name,
                  formatDouble(100.0 * trainer.testAccuracy(), 1),
                  formatDuration(seconds /
                                 static_cast<double>(epochs)),
                  formatDouble(trainer.cpuFraction(), 2)});
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
        if (options().smoke || w.key == "VGG11")
            sweep(w);
    std::printf("(the discussion's prediction: wider formats close "
                "the accuracy gap; SoCFlow's alpha/beta controller "
                "adapts the split to whatever format the NPU "
                "offers)\n");
    return 0;
}
