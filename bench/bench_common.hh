/**
 * @file
 * Shared infrastructure for the figure/table reproduction benches.
 *
 * Methodology (mirrors §4 of the paper):
 *  - every workload is a (model family, dataset analog) pair from
 *    Table 2, trained with the same global batch across methods;
 *  - convergence target = 99% of the exactly-synchronized reference's
 *    best test accuracy (the paper's "99% relative convergence");
 *  - PS / RING / HiPress / 2D-Paral share their SGD math (identical
 *    accuracy, as in Table 3), so the reference trajectory is
 *    computed once and each method contributes its own per-epoch
 *    simulated time/energy; FedAvg and SoCFlow run their own math.
 *
 * Set SOCFLOW_BENCH_SCALE (e.g. 0.3) to shrink epoch budgets during
 * development; the default of 1.0 reproduces the reported numbers.
 */

#ifndef SOCFLOW_BENCH_BENCH_COMMON_HH
#define SOCFLOW_BENCH_BENCH_COMMON_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/local.hh"
#include "core/socflow_trainer.hh"
#include "core/train_common.hh"
#include "data/synthetic.hh"

namespace socflow {

namespace obs {
class MetricSeriesWriter;
}

namespace bench {

/** One evaluation workload (a row of Table 2). */
struct Workload {
    std::string key;      //!< label used in the paper's figures
    std::string model;    //!< model family
    std::string dataset;  //!< dataset analog
    std::size_t batch = 32;  //!< global / per-group batch size
};

/**
 * Every setting of the command line shared by the benches and the
 * examples. The flags, their defaults, bounds and help text live in
 * one table in bench_common.cc; flagTableMarkdown() renders it as the
 * README "Flag reference" table. Empty paths mean "not requested".
 */
struct BenchOptions {
    std::string traceOut;
    std::size_t traceRotateMb = 0;   //!< MiB; 0 = buffer-all export
    std::string metricsOut;
    std::size_t metricsInterval = 0; //!< 0 = plain end-of-run text dump
    std::string postmortemOut;
    std::size_t postmortemSpans = 0; //!< 0 = the recorder's own default
    std::size_t threads = 0;         //!< 0 = SOCFLOW_THREADS or all cores
    std::uint64_t seed = 42;         //!< root seed for bench RNGs
    bool smoke = false;              //!< ctest smoke tier
    std::size_t racks = 1;
    double coreGbps = 100.0;
    double oversub = 1.0;
    std::size_t psShards = 8;
    std::size_t staleness = 4;
    std::string profileOut;
    std::string benchJson;
    std::string baseline;
    // Fault policy: the same-named fields of core::SoCFlowConfig
    // (sync, phi*) and trace::HarvestConfig (checkpoint*, ckpt*).
    collectives::SyncPolicy sync;
    std::size_t checkpointMaxRetries = 3;
    double checkpointBackoffS = 2.0;
    std::size_t ckptReplicas = 1;       //!< store copies, >= 1
    std::size_t ckptIntervalEpochs = 0; //!< 0 = on preempt/suspend only
    double phiThreshold = 8.0;
    std::size_t phiWindow = 32;
    /** The NDJSON series writer initBenchObservability creates when
     *  both --metrics-out and --metrics-interval were given (wire into
     *  trace::HarvestConfig::metricSeries); never set by parsing. */
    obs::MetricSeriesWriter *metricSeries = nullptr;
};

/**
 * Parse the shared flags, each in the `--flag=value` or the
 * `--flag value` form, and remove them from argv (argc is updated;
 * the other arguments keep their order), so binaries with their own
 * parsing -- including google-benchmark's strict Initialize() --
 * never see them. A bad or out-of-bound value is a fatal
 * `bad value for --flag: '<v>'` exit. No side effects otherwise.
 */
BenchOptions parseBenchFlags(int &argc, char **argv);

/**
 * parseBenchFlags() into options(), then apply it: size the thread
 * pool, arm the flight recorder, enable the tracer (streaming when
 * rotation was asked for), open the metric series, and register the
 * atexit hook that writes the trace, metrics and profile outputs.
 * Every bench and example calls this once, at the top of main().
 */
void initBenchObservability(int &argc, char **argv);

/** The options of this process (defaults until initBenchObservability). */
const BenchOptions &options();

/** The flag table as the README's markdown table. */
std::string flagTableMarkdown();

/**
 * Apply the fleet flags to a cluster template: with --racks > 1 the
 * boards of `num_socs` SoCs are spread evenly across the racks and
 * the core bandwidth/oversubscription knobs are installed. A no-op
 * at the default single-rack setting, so oursConfig (which calls
 * this) keeps its pre-fleet configs bit-identical.
 */
void applyFleetFlags(sim::ClusterConfig &cluster, std::size_t num_socs);

/** One measured thread configuration of a throughput bench. */
struct BenchRun {
    std::size_t threads = 1;
    double wallSeconds = 0.0;
    std::size_t epochsTrained = 0;
    double epochsPerSec = 0.0;  //!< simulated epochs per wall second
    double eventsPerSec = 0.0;  //!< trainer step events per wall second
    std::uint64_t timelineHash = 0;  //!< must match across same-label rows
    /** Scenario tag ("" = the default single-rack scenario; fleet
     *  rows carry e.g. "fleet-4rack"). Hash equality is only required
     *  within one label. The regression anchor ignores labeled rows;
     *  a labeled row gates only against the baseline row with the
     *  same label and thread count. */
    std::string label;
    /** Optional per-phase breakdown from the critical-path profiler
     *  (simulated seconds over the run's epochs). Informational
     *  columns only: the --baseline regression comparison reads
     *  epochs/sec and never these, so committed BENCH_*.json files
     *  with and without them stay comparable. */
    bool hasPhases = false;
    double phaseComputeSeconds = 0.0;  //!< forward + backward
    double phaseSyncSeconds = 0.0;     //!< all sync/comm phases
    double phaseStallSeconds = 0.0;    //!< straggler stall residual
};

/**
 * Machine-readable throughput report: the committed BENCH_*.json
 * trajectory every later PR proves its speedup against.
 */
struct BenchReport {
    std::string bench;       //!< emitting binary, e.g. "bench_e2e_throughput"
    std::uint64_t seed = 42; //!< options().seed used for the run
    double scale = 1.0;      //!< benchScale() used for the run
    std::vector<BenchRun> runs;
};

/** Write a report as pretty-printed JSON. Returns false on I/O error. */
bool writeBenchJson(const std::string &path, const BenchReport &report);

/** Parse a report written by writeBenchJson. */
bool readBenchJson(const std::string &path, BenchReport &out);

/** The seven from-scratch workloads of Table 2 (in figure order). */
const std::vector<Workload> &paperWorkloads();

/** The transfer-learning workload (ResNet-50, CINIC-10 -> CIFAR). */
const Workload &transferWorkload();

/** SOCFLOW_BENCH_SCALE environment knob (default 1.0, min 0.05). */
double benchScale();

/** Scale an epoch budget: max(3, round(full * benchScale())). */
std::size_t scaledEpochs(std::size_t full);

/** Default SoCFlow configuration for a workload at a SoC count. */
core::SoCFlowConfig oursConfig(const Workload &w, std::size_t num_socs,
                               std::size_t num_groups);

/** Default baseline configuration for a workload at a SoC count. */
baselines::BaselineConfig baselineConfig(const Workload &w,
                                         std::size_t num_socs);

/** One method's outcome within a suite. */
struct MethodRun {
    std::string method;
    core::TrainResult result;
    /** True when the math trajectory was shared from the reference
     *  (timing/energy are still this method's own). */
    bool mathShared = false;
};

/** Everything measured for one workload at one SoC count. */
struct SuiteResult {
    Workload workload;
    std::size_t numSocs = 0;
    double referenceBestAcc = 0.0;  //!< exact-sync best accuracy
    double targetAcc = 0.0;         //!< 99% relative target
    std::vector<MethodRun> runs;
    /** Single-SoC CPU reference ("Local" column), when requested. */
    std::optional<core::TrainResult> local;
};

/** Methods covered by runSuite, in the paper's column order. */
const std::vector<std::string> &suiteMethods();

/**
 * Run every method on one workload.
 * @param num_socs cluster slice size (32 in most figures).
 * @param max_epochs full-scale epoch cap (scaled by benchScale()).
 * @param include_local also train the single-SoC reference.
 * @param initial optional pre-trained weights (transfer learning).
 */
SuiteResult runSuite(const Workload &w, std::size_t num_socs,
                     std::size_t max_epochs, bool include_local = false,
                     const std::vector<float> *initial = nullptr);

/** Find a method's run inside a suite result (fatal if missing). */
const MethodRun &findRun(const SuiteResult &suite,
                         const std::string &method);

/**
 * On-disk cache so sibling benches (fig08/fig09/table3) share one
 * suite computation instead of re-running identical math. Entries
 * are keyed by (workload, socs, epochs, bench scale) and stored
 * under .bench_cache/ next to the build. Delete the directory to
 * force recomputation.
 */
bool loadSuiteCache(const Workload &w, std::size_t num_socs,
                    std::size_t max_epochs, bool need_local,
                    SuiteResult &out);

/** Persist a suite result for sibling benches. */
void storeSuiteCache(const SuiteResult &suite,
                     std::size_t max_epochs);

} // namespace bench
} // namespace socflow

#endif // SOCFLOW_BENCH_BENCH_COMMON_HH
