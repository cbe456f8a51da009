/**
 * @file
 * Figure 12: breakdown of per-epoch training time into gradient
 * computation (Compute), gradient/weight synchronization (Sync) and
 * parameter updates (Update) for VGG-11 and ResNet-18 at 32 SoCs.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hh"
#include "obs/profiler.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

/**
 * The profiler must agree with the bench's own EpochRecord
 * accounting: its compute window vs rec.computeSeconds and its comm
 * window vs the non-recovery share of rec.syncSeconds, both within
 * 5%. On the comm-bound VGG-11 workload the overlap ratio must also
 * be < 0.5 -- compute is too short to hide most of the exchange.
 */
void
crossCheckProfiler(const Workload &w, const core::EpochRecord &rec,
                   const obs::PerfReport &report)
{
    auto agree = [](double a, double b) {
        const double ref = std::fmax(std::fabs(a), std::fabs(b));
        return ref <= 1e-9 || std::fabs(a - b) <= 0.05 * ref;
    };
    const double comm = rec.syncSeconds - rec.recoverySeconds;
    if (!agree(report.computeWindowSeconds, rec.computeSeconds)) {
        std::fprintf(stderr,
                     "FAIL: %s profiler compute window %.6f s "
                     "disagrees with bench accounting %.6f s (>5%%)\n",
                     w.key.c_str(), report.computeWindowSeconds,
                     rec.computeSeconds);
        std::exit(1);
    }
    if (!agree(report.commWindowSeconds, comm)) {
        std::fprintf(stderr,
                     "FAIL: %s profiler comm window %.6f s disagrees "
                     "with bench accounting %.6f s (>5%%)\n",
                     w.key.c_str(), report.commWindowSeconds, comm);
        std::exit(1);
    }
    if (w.key == "VGG11" && report.overlapRatio >= 0.5) {
        std::fprintf(stderr,
                     "FAIL: VGG11 is comm-bound yet the profiler "
                     "claims %.2f of the exchange is hidden\n",
                     report.overlapRatio);
        std::exit(1);
    }
}

void
breakdown(const Workload &w)
{
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);
    Table t("Figure 12: per-epoch time breakdown (" + w.key +
            ", 32 SoCs)");
    t.setHeader({"method", "compute", "sync", "update", "sync-%"});

    auto addRow = [&](const std::string &name,
                      const core::EpochRecord &rec) {
        const double total = rec.computeSeconds + rec.syncSeconds +
                             rec.updateSeconds;
        t.addRow({name, formatDuration(rec.computeSeconds),
                  formatDuration(rec.syncSeconds),
                  formatDuration(rec.updateSeconds),
                  formatDouble(100.0 * rec.syncSeconds / total, 1)});
    };

    {
        core::SoCFlowTrainer ours(oursConfig(w, 32, 8), bundle);
        obs::Profiler &prof = obs::profiler();
        prof.reset();
        const core::EpochRecord rec = ours.runEpoch();
        addRow("Ours", rec);
        if (prof.enabled())
            crossCheckProfiler(w, rec, prof.report());
    }
    for (const char *m : {"RING", "HiPress", "2D-Paral", "FedAvg"}) {
        auto trainer = baselines::makeBaseline(
            m, baselineConfig(w, 32), bundle);
        addRow(m, trainer->runEpoch());
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
            breakdown(w);
    std::printf("(paper: sync is 81%% of RING, 71-77%% of "
                "HiPress/2D-Paral, 17-35%% of FedAvg, ~46%% of "
                "SoCFlow)\n");
    return 0;
}
