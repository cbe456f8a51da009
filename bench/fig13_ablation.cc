/**
 * @file
 * Figure 13: ablation of SoCFlow's technique stack. Starting from
 * flat Ring-AllReduce, each bar adds one mechanism:
 *   RING -> +Group -> +Mapping -> +Plan -> +Mixed.
 * Reported as time to the exact-sync convergence target, plus the
 * mapping-quality metrics (conflict C, comm groups) behind each step.
 */

#include <cstdio>

#include "bench_common.hh"

#include "baselines/exact_sync.hh"
#include "baselines/fedavg.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

void
ablate(const Workload &w)
{
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);
    const std::size_t epochs = scaledEpochs(8);

    // Convergence target from the exact-sync reference.
    baselines::RingTrainer ringMath(baselineConfig(w, 32), bundle);
    const auto ringRes = core::runTraining(ringMath, epochs, 0.0, 4);
    // Slightly softer relative target than Fig. 8 (97%): the ablation
    // compares *time*, and the CPU-only intermediate variants need
    // the headroom on the miniature datasets.
    const double target = 0.97 * ringRes.bestTestAcc();

    Table t("Figure 13: ablation (" + w.key + ", 32 SoCs, time to " +
            formatDouble(100.0 * target, 1) + "% acc)");
    t.setHeader({"variant", "time", "conflict-C", "comm-groups",
                 "reached"});

    // RING baseline row.
    {
        baselines::RingTrainer ring(baselineConfig(w, 32), bundle);
        const auto one = ring.runEpoch();
        double seconds = 0.0;
        bool reached = false;
        for (const auto &e : ringRes.epochs) {
            seconds += one.simSeconds;
            if (e.testAcc >= target) {
                reached = true;
                break;
            }
        }
        t.addRow({"RING", formatDuration(seconds), "-", "-",
                  reached ? "yes" : "no"});
    }

    // Stacked SoCFlow variants (8 groups of 4 on boards of 5).
    struct Variant {
        const char *name;
        core::MapStrategy mapping;
        bool plan, overlap, mixed;
    };
    const Variant variants[] = {
        {"+Group", core::MapStrategy::Sequential, false, false, false},
        {"+Mapping", core::MapStrategy::IntegrityGreedy, false, false,
         false},
        {"+Plan", core::MapStrategy::IntegrityGreedy, true, true,
         false},
        {"+Mixed", core::MapStrategy::IntegrityGreedy, true, true,
         true},
    };
    for (const auto &v : variants) {
        core::SoCFlowConfig cfg = oursConfig(w, 32, 8);
        cfg.mapping = v.mapping;
        cfg.usePlanning = v.plan;
        cfg.overlapCommCompute = v.overlap;
        cfg.useMixedPrecision = v.mixed;
        core::SoCFlowTrainer trainer(cfg, bundle);
        const auto res = core::runTraining(trainer,
                                           epochs + epochs / 3,
                                           target, 5);
        t.addRow({v.name,
                  formatDuration(res.secondsToAccuracy(target)),
                  std::to_string(trainer.mappingConflictC()),
                  std::to_string(trainer.numCommGroups()),
                  res.reached(target) ? "yes" : "no"});
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
        if (options().smoke || w.key == "VGG11" || w.key == "ResNet18")
            ablate(w);
    std::printf("(paper: grouping gains 8-57%%, mapping 1.05-1.10x, "
                "planning 1.69-1.78x, mixed precision 3.53-5.78x)\n");
    return 0;
}
