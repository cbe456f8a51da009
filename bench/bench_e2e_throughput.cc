/**
 * @file
 * End-to-end simulator throughput on a fixed-seed harvest day.
 *
 * Runs the same 24-hour co-location scenario (tidal trace, group
 * preemption, checkpoint/resume) at 1/2/4/8 worker threads and
 * reports simulated-epochs/sec, trainer-step events/sec, and
 * wall-clock per configuration, then repeats at a 4-rack / 240-SoC
 * fleet configuration (rows labeled "fleet-4rack") so the committed
 * perf trajectory covers the multi-rack path too. The timeline hash
 * must be identical across all thread counts of one scenario -- the
 * bench exits non-zero if the parallel core ever diverges from
 * serial.
 *
 * Flags (besides the shared observability set):
 *   --seed=<n>        root seed (default 42); committed BENCH_*.json
 *                     numbers are reproducible for a fixed seed
 *   --bench-json=<p>  write the machine-readable report here
 *   --baseline=<p>    compare against a committed BENCH_*.json and
 *                     exit non-zero if epochs/sec regressed by more
 *                     than 10% at the single-rack anchor thread
 *                     count, or on any labeled row whose label and
 *                     thread count the baseline also has
 *   --smoke           tiny scenario + {1,2} threads for ctest
 *
 * Workflow (see README "Performance baseline"):
 *   ./build/bench/bench_e2e_throughput --bench-json=BENCH_new.json \
 *       --baseline=BENCH_baseline.json
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "trace/harvest.hh"
#include "trace/tidal.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace socflow;

namespace {

/** One fixed harvest-day scenario, scaled down under --smoke. */
struct Scenario {
    const char *model;
    const char *dataset;
    std::size_t numSocs;
    std::size_t numGroups;
    std::size_t groupBatch;
    double slotMinutes;
    /** Fleet shape: racks > 1 spreads the SoCs across racks behind
     *  the inter-rack core (--core-gbps / --oversub apply). */
    std::size_t racks = 1;
    std::size_t boardsPerRack = 12;
    std::size_t socsPerBoard = 5;
    /** BenchRun label ("" = the default single-rack scenario). */
    const char *label = "";
};

Scenario
scenario()
{
    if (bench::options().smoke)
        return {"lenet5", "fmnist", 16, 4, 16, 120.0};
    return {"lenet5", "emnist", 60, 12, 32, 30.0};
}

/** The multi-rack configuration the perf trajectory also covers. */
Scenario
fleetScenario()
{
    if (bench::options().smoke)
        return {"lenet5", "fmnist", 8, 2, 16, 120.0,
                2, 2, 2, "fleet-2rack"};
    return {"lenet5", "emnist", 240, 24, 32, 30.0,
            4, 12, 5, "fleet-4rack"};
}

bench::BenchRun
runOnce(std::size_t threads, const Scenario &sc)
{
    setGlobalThreads(threads);

    data::DataBundle bundle = data::makeDatasetByName(sc.dataset);
    core::SoCFlowConfig cfg;
    cfg.modelFamily = sc.model;
    cfg.numSocs = sc.numSocs;
    cfg.numGroups = sc.numGroups;
    cfg.groupBatch = sc.groupBatch;
    cfg.seed = bench::options().seed;
    if (sc.racks > 1) {
        sim::FleetTopology topo{sc.racks, sc.boardsPerRack,
                                sc.socsPerBoard};
        cfg.clusterTemplate = sim::fleetClusterConfig(topo);
        cfg.clusterTemplate.coreBps = bench::options().coreGbps * 1e9;
        cfg.clusterTemplate.coreOversub = bench::options().oversub;
    }
    core::SoCFlowTrainer trainer(cfg, bundle);

    trace::TidalConfig tcfg;
    tcfg.numSocs = sc.numSocs;
    tcfg.slotMinutes = sc.slotMinutes;
    tcfg.seed = bench::options().seed + 57;
    trace::TidalTrace tidal(tcfg);

    trace::HarvestConfig hcfg;
    hcfg.socsPerGroup = sc.numSocs / sc.numGroups;

    const double steps0 =
        obs::metrics().counter("trainer_steps_total").value();
    const obs::PerfReport prof0 = obs::profiler().report();
    const auto t0 = std::chrono::steady_clock::now();
    const trace::HarvestReport report =
        trace::runHarvestDay(trainer, cfg, tidal, hcfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double steps1 =
        obs::metrics().counter("trainer_steps_total").value();
    const obs::PerfReport prof1 = obs::profiler().report();

    bench::BenchRun run;
    run.threads = threads;
    run.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    run.epochsTrained = report.epochsTrained;
    run.epochsPerSec = run.wallSeconds > 0.0
                           ? report.epochsTrained / run.wallSeconds
                           : 0.0;
    run.eventsPerSec = run.wallSeconds > 0.0
                           ? (steps1 - steps0) / run.wallSeconds
                           : 0.0;
    run.timelineHash = report.timelineHash;
    run.label = sc.label;

    // Per-phase breakdown columns from the critical-path profiler:
    // the cumulative-report delta isolates this run without resetting
    // accumulated state. Informational only -- the --baseline
    // comparison below reads epochs/sec, never these, so committed
    // BENCH_*.json files with and without them stay comparable.
    if (obs::profiler().enabled() && prof1.epochs > prof0.epochs) {
        const auto phase = [&](obs::Phase p) {
            const std::size_t i = static_cast<std::size_t>(p);
            return prof1.exclusiveSeconds[i] -
                   prof0.exclusiveSeconds[i];
        };
        run.hasPhases = true;
        run.phaseComputeSeconds =
            phase(obs::Phase::Forward) + phase(obs::Phase::Backward);
        run.phaseSyncSeconds = phase(obs::Phase::Wave1Sync) +
                               phase(obs::Phase::Wave2Sync) +
                               phase(obs::Phase::HierarchicalSync) +
                               phase(obs::Phase::PsPush) +
                               phase(obs::Phase::PsPull);
        run.phaseStallSeconds = phase(obs::Phase::Stall);
    }
    return run;
}

/**
 * Prefer the 4-thread row as the speedup anchor, else the fastest.
 * Labeled (fleet) rows are skipped: they gate only against baseline
 * rows of the same label and thread count, which pre-fleet baseline
 * JSONs do not have.
 */
const bench::BenchRun *
anchorRun(const bench::BenchReport &r, std::size_t want)
{
    const bench::BenchRun *best = nullptr;
    for (const auto &run : r.runs) {
        if (!run.label.empty())
            continue;
        if (run.threads == want)
            return &run;
        if (!best || run.epochsPerSec > best->epochsPerSec)
            best = &run;
    }
    return best;
}

/** Print one baseline comparison; false on a >10% regression. */
bool
withinBaseline(const bench::BenchRun &cur, const bench::BenchRun &ref)
{
    const double ratio = cur.epochsPerSec / ref.epochsPerSec;
    std::fprintf(stderr,
                 "baseline compare (%s, threads=%zu): %.3f vs %.3f "
                 "epochs/s (%.0f%% of baseline)\n",
                 cur.label.empty() ? "single-rack" : cur.label.c_str(),
                 cur.threads, cur.epochsPerSec, ref.epochsPerSec,
                 100.0 * ratio);
    return ratio >= 0.9;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    bench::initBenchObservability(argc, argv);

    const std::vector<std::size_t> sweep =
        bench::options().smoke ? std::vector<std::size_t>{1, 2}
                               : std::vector<std::size_t>{1, 2, 4, 8};

    const std::vector<std::size_t> fleetSweep =
        bench::options().smoke ? std::vector<std::size_t>{1, 2}
                               : std::vector<std::size_t>{1, 2, 8};

    bench::BenchReport report;
    report.bench = "bench_e2e_throughput";
    report.seed = bench::options().seed;
    report.scale = bench::benchScale();
    for (std::size_t t : sweep)
        report.runs.push_back(runOnce(t, scenario()));
    for (std::size_t t : fleetSweep)
        report.runs.push_back(runOnce(t, fleetScenario()));

    Table table("E2E throughput, fixed-seed harvest day (seed " +
                std::to_string(report.seed) + ")");
    table.setHeader({"scenario", "threads", "wall-s", "epochs",
                     "epochs/s", "events/s", "speedup"});
    const double base = report.runs.front().epochsPerSec;
    for (const auto &r : report.runs) {
        table.addRow({r.label.empty() ? "single-rack" : r.label,
                      std::to_string(r.threads),
                      formatDouble(r.wallSeconds, 2),
                      std::to_string(r.epochsTrained),
                      formatDouble(r.epochsPerSec, 3),
                      formatDouble(r.eventsPerSec, 0),
                      formatDouble(base > 0.0 ? r.epochsPerSec / base
                                              : 0.0,
                                   2)});
    }
    table.print();

    // Determinism cross-check: within each scenario (label), the
    // parallel core must be bit-exact across thread counts.
    for (const auto &r : report.runs) {
        const bench::BenchRun *first = nullptr;
        for (const auto &f : report.runs) {
            if (f.label == r.label) {
                first = &f;
                break;
            }
        }
        if (r.timelineHash != first->timelineHash) {
            std::fprintf(stderr,
                         "FAIL: timeline hash diverged at %zu threads "
                         "(%s scenario, %016llx vs %016llx)\n",
                         r.threads,
                         r.label.empty() ? "single-rack"
                                         : r.label.c_str(),
                         static_cast<unsigned long long>(r.timelineHash),
                         static_cast<unsigned long long>(
                             first->timelineHash));
            return 1;
        }
    }

    if (!bench::options().benchJson.empty()) {
        if (!bench::writeBenchJson(bench::options().benchJson, report)) {
            std::fprintf(stderr, "failed to write %s\n",
                         bench::options().benchJson.c_str());
            return 1;
        }
        std::fprintf(stderr, "bench report written to %s\n",
                     bench::options().benchJson.c_str());
    }

    if (!bench::options().baseline.empty()) {
        bench::BenchReport baseline;
        if (!bench::readBenchJson(bench::options().baseline,
                                  baseline)) {
            std::fprintf(stderr, "failed to read baseline %s\n",
                         bench::options().baseline.c_str());
            return 1;
        }
        const bench::BenchRun *cur = anchorRun(report, 4);
        const bench::BenchRun *ref = anchorRun(baseline, 4);
        if (!cur || !ref || ref->epochsPerSec <= 0.0) {
            std::fprintf(stderr, "baseline has no usable runs\n");
            return 1;
        }
        bool ok = withinBaseline(*cur, *ref);
        for (const auto &run : report.runs) {
            if (run.label.empty())
                continue;
            for (const auto &b : baseline.runs) {
                if (b.label == run.label && b.threads == run.threads &&
                    b.epochsPerSec > 0.0)
                    ok = withinBaseline(run, b) && ok;
            }
        }
        if (!ok) {
            std::fprintf(stderr,
                         "FAIL: epochs/sec regressed >10%% vs %s\n",
                         bench::options().baseline.c_str());
            return 1;
        }
    }
    return 0;
}
