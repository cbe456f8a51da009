#include "bench_common.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <sys/stat.h>

#include "baselines/exact_sync.hh"
#include "baselines/fedavg.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/snapshot.hh"
#include "obs/stream_sink.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace bench {

namespace {

/**
 * The options of this process. A function-local static constructed
 * by initBenchObservability before it registers the atexit writer,
 * so it outlives that writer.
 */
BenchOptions &
state()
{
    static BenchOptions o;
    return o;
}

/** The streaming trace sink, when rotation was requested (leaked; its
 *  flusher is joined by the atexit close below). */
obs::StreamingTraceSink *streamSink = nullptr;

/** One flag's value as given on the command line. */
struct FlagValue {
    const char *flag;
    std::string text;

    /**
     * The value as a number no smaller than `min` (larger, when
     * `open`). Integers take decimal digits only, so a sign, a
     * fraction, an exponent or an out-of-range value is fatal rather
     * than silently truncated or rounded.
     */
    template <typename T = std::size_t>
    T
    number(std::type_identity_t<T> min = {}, bool open = false) const
    {
        T v{};
        bool ok = !text.empty();
        if constexpr (std::is_integral_v<T>) {
            ok = ok && std::all_of(text.begin(), text.end(), [](char c) {
                     return c >= '0' && c <= '9';
                 });
            errno = 0;
            v = ok ? std::strtoull(text.c_str(), nullptr, 10) : 0;
            ok = ok && errno != ERANGE;
        } else {
            char *end = nullptr;
            v = std::strtod(text.c_str(), &end);
            ok = ok && *end == '\0';
        }
        if (!ok)
            fatal("bad value for ", flag, ": '", text, "'");
        if (open ? !(v > min) : !(v >= min))
            fatal("bad value for ", flag, ": '", text, "' (must be ",
                  open ? "> " : ">= ", min, ")");
        return v;
    }
};

/** One row of the flag table. */
struct Flag {
    const char *name;
    const char *metavar;     //!< "" = a switch that takes no value
    const char *defaultText;
    const char *help;        //!< markdown, as the README shows it
    void (*set)(BenchOptions &, const FlagValue &);
};

using O = BenchOptions;
using V = FlagValue;

/** Every shared flag, in README order. */
const Flag kFlags[] = {
    {"--trace-out", "<file>", "off",
     "Chrome trace_event JSON of the run (simulated SoC-Cluster "
     "timeline + host spans)",
     [](O &o, const V &v) { o.traceOut = v.text; }},
    {"--trace-rotate-mb", "<n>", "buffer",
     "stream the trace through a rotating bounded sink "
     "(`trace.0.json`, `trace.1.json`, …)",
     [](O &o, const V &v) { o.traceRotateMb = v.number(); }},
    {"--metrics-out", "<file>", "off",
     "metrics registry dump (plain text, or NDJSON series with the "
     "next flag)",
     [](O &o, const V &v) { o.metricsOut = v.text; }},
    {"--metrics-interval", "<n>", "final only",
     "snapshot the metrics every n trained epochs as an NDJSON time "
     "series",
     [](O &o, const V &v) { o.metricsInterval = v.number(); }},
    {"--postmortem-out", "<file>", "off",
     "arm the crash flight recorder (`SOCFLOW_POSTMORTEM` env "
     "equivalent)",
     [](O &o, const V &v) { o.postmortemOut = v.text; }},
    {"--postmortem-spans", "<n>", "256",
     "size of the flight recorder's span ring "
     "(`SOCFLOW_POSTMORTEM_SPANS`)",
     [](O &o, const V &v) { o.postmortemSpans = v.number(1); }},
    {"--threads", "<n>", "hw conc.",
     "worker pool size for the parallel core (`SOCFLOW_THREADS`); "
     "results are bit-exact across values",
     [](O &o, const V &v) { o.threads = v.number(); }},
    {"--seed", "<n>", "42",
     "root seed for trainer/workload RNGs (fig10 and "
     "bench_e2e_throughput honour it end to end)",
     [](O &o, const V &v) { o.seed = v.number<std::uint64_t>(); }},
    {"--smoke", "", "off",
     "tiny workloads + one epoch; what the `bench_smoke_*` ctest tier "
     "runs",
     [](O &o, const V &) { o.smoke = true; }},
    {"--racks", "<n>", "1",
     "fleet topology: spread the SoCs across n racks (see Fleet runs)",
     [](O &o, const V &v) { o.racks = v.number(1); }},
    {"--core-gbps", "<g>", "100",
     "aggregate inter-rack core bandwidth in Gbps",
     [](O &o, const V &v) { o.coreGbps = v.number<double>(0, true); }},
    {"--oversub", "<r>", "1.0",
     "core oversubscription: rack uplink = switch bandwidth / r",
     [](O &o, const V &v) { o.oversub = v.number<double>(1); }},
    {"--ps-shards", "<n>", "8",
     "sharded-PS mode: shard count; hosts are the first SoC of each of "
     "the first min(n, boards) boards (DESIGN.md ch. 11)",
     [](O &o, const V &v) { o.psShards = v.number(1); }},
    {"--staleness", "<n>", "4",
     "sharded-PS mode: hard staleness bound, enforced before compute; "
     "0 = synchronous",
     [](O &o, const V &v) { o.staleness = v.number(); }},
    {"--profile-out", "<file>", "off",
     "write the critical-path profiler's `PerfReport` JSON (phase "
     "decomposition, overlap ratio, bottleneck attribution); the "
     "perf-doctor summary always prints at exit, `SOCFLOW_PROFILE=0` "
     "disables profiling entirely (DESIGN.md ch. 12)",
     [](O &o, const V &v) { o.profileOut = v.text; }},
    {"--bench-json", "<file>", "off",
     "machine-readable `BENCH_*.json` report (bench_e2e_throughput)",
     [](O &o, const V &v) { o.benchJson = v.text; }},
    {"--baseline", "<file>", "off",
     "compare against a committed `BENCH_*.json`; exit non-zero on a "
     ">10% epochs/sec regression at the single-rack anchor or on any "
     "labeled row the baseline also has",
     [](O &o, const V &v) { o.baseline = v.text; }},
    {"--sync-timeout", "<s>", "0.5",
     "per-attempt collective timeout (the `SyncPolicy` envelope)",
     [](O &o, const V &v) { o.sync.timeoutS = v.number<double>(); }},
    {"--sync-retries", "<n>", "3",
     "collective retry budget before degrading to the survivor ring",
     [](O &o, const V &v) { o.sync.maxRetries = v.number(); }},
    {"--sync-backoff-base", "<s>", "0.05",
     "first retry backoff (doubles per attempt)",
     [](O &o, const V &v) { o.sync.backoffBaseS = v.number<double>(); }},
    {"--sync-backoff-max", "<s>", "1.0", "backoff cap",
     [](O &o, const V &v) { o.sync.backoffMaxS = v.number<double>(); }},
    {"--ckpt-retries", "<n>", "3", "checkpoint-write retry budget",
     [](O &o, const V &v) { o.checkpointMaxRetries = v.number(); }},
    {"--ckpt-backoff", "<s>", "2.0",
     "first checkpoint rewrite backoff (doubles per retry)",
     [](O &o, const V &v) { o.checkpointBackoffS = v.number<double>(); }},
    {"--ckpt-replicas", "<k>", "1",
     "copies per checkpoint in the replicated store every harvest day "
     "writes through, spread across failure domains (rack first, then "
     "board); the store enables whole-fleet crash-restart after a "
     "`RackPowerLoss`, and `k >= 2` makes an acked checkpoint survive "
     "the loss of any single rack (DESIGN.md ch. 13)",
     [](O &o, const V &v) { o.ckptReplicas = v.number(1); }},
    {"--ckpt-interval", "<epochs>", "0",
     "epochs between durable replicated writes — the RPO bound on lost "
     "work after a fleet restart",
     [](O &o, const V &v) { o.ckptIntervalEpochs = v.number(); }},
    {"--phi-threshold", "<p>", "8.0",
     "phi-accrual suspicion level that confirms a failure (8 ⇒ ~10⁻⁸ "
     "false-positive)",
     [](O &o, const V &v) { o.phiThreshold = v.number<double>(); }},
    {"--phi-window", "<n>", "32",
     "heartbeat sliding-window size of the failure detector",
     [](O &o, const V &v) { o.phiWindow = v.number(); }},
};

void
writeObservabilityOutputs()
{
    const std::string &trace = options().traceOut;
    if (streamSink) {
        // Streamed mode: the trace is already on disk; detach so late
        // events don't race the drain, then flush the final segment.
        obs::tracer().setStreamSink(nullptr);
        streamSink->close();
        std::fprintf(stderr,
                     "trace streamed to %s (%zu segments, %zu events)\n",
                     trace.c_str(), streamSink->segmentsWritten(),
                     streamSink->eventsWritten());
    } else if (!trace.empty()) {
        if (obs::tracer().writeChromeTrace(trace)) {
            std::fprintf(stderr, "trace written to %s (%zu events)\n",
                         trace.c_str(), obs::tracer().eventCount());
        } else {
            std::fprintf(stderr, "failed to write trace to %s\n",
                         trace.c_str());
        }
    }
    const std::string &metricsPath = options().metricsOut;
    if (obs::MetricSeriesWriter *w = options().metricSeries) {
        // Series mode: the NDJSON lines are the output; no text dump.
        std::fprintf(stderr, "metric series written to %s (%zu lines)\n",
                     metricsPath.c_str(), w->snapshotsWritten());
    } else if (!metricsPath.empty()) {
        if (obs::metrics().writeTextDump(metricsPath)) {
            std::fprintf(stderr, "metrics written to %s\n",
                         metricsPath.c_str());
        } else {
            std::fprintf(stderr, "failed to write metrics to %s\n",
                         metricsPath.c_str());
        }
    }
    // Critical-path profiler outputs: the perf doctor summary prints
    // for every bench/example that trained at least one epoch; the
    // full PerfReport JSON lands at --profile-out when requested.
    obs::Profiler &prof = obs::profiler();
    if (prof.enabled() && prof.epochsProfiled() > 0) {
        const obs::PerfReport report = prof.report();
        std::fputs(report.doctorSummary().c_str(), stderr);
        const std::string &profPath = options().profileOut;
        if (!profPath.empty()) {
            std::ofstream out(profPath);
            if (out && (out << report.toJson() << '\n')) {
                std::fprintf(stderr, "perf profile written to %s\n",
                             profPath.c_str());
            } else {
                std::fprintf(stderr,
                             "failed to write perf profile to %s\n",
                             profPath.c_str());
            }
        }
    }
}

} // namespace

BenchOptions
parseBenchFlags(int &argc, char **argv)
{
    BenchOptions o;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const Flag *hit = nullptr;
        std::string value;
        for (const Flag &f : kFlags) {
            const std::string_view name = f.name;
            if (*f.metavar && arg == name) {
                if (i + 1 >= argc)
                    fatal(f.name, " requires a value argument");
                value = argv[++i];
            } else if (*f.metavar && arg.starts_with(name) &&
                       arg[name.size()] == '=') {
                value = arg.substr(name.size() + 1);
            } else if (arg != name) {
                continue;
            }
            hit = &f;
            break;
        }
        if (!hit) {
            argv[kept++] = argv[i];
            continue;
        }
        if (*hit->metavar && value.empty())
            fatal("bad value for ", hit->name, ": ''");
        hit->set(o, FlagValue{hit->name, std::move(value)});
    }
    argc = kept;
    argv[argc] = nullptr;
    if (o.traceRotateMb > 0 && o.traceOut.empty())
        fatal("--trace-rotate-mb requires --trace-out");
    if (o.metricsInterval > 0 && o.metricsOut.empty())
        fatal("--metrics-interval requires --metrics-out");
    return o;
}

void
initBenchObservability(int &argc, char **argv)
{
    BenchOptions &o = state();
    o = parseBenchFlags(argc, argv);
    if (o.threads > 0)
        setGlobalThreads(o.threads);
    if (o.postmortemSpans > 0)
        obs::flightRecorder().setCapacity(o.postmortemSpans);
    if (!o.postmortemOut.empty())
        obs::armFlightRecorder(o.postmortemOut);
    if (!o.traceOut.empty()) {
        if (o.traceRotateMb > 0) {
            obs::StreamSinkConfig scfg;
            scfg.path = o.traceOut;
            scfg.rotateBytes = o.traceRotateMb << 20;
            streamSink = new obs::StreamingTraceSink(scfg);
            obs::tracer().setStreamSink(streamSink);
        }
        obs::tracer().setEnabled(true);
    }
    if (o.metricsInterval > 0)
        o.metricSeries = new obs::MetricSeriesWriter(o.metricsOut);

    // Registered for every bench/example, not only flagged runs: the
    // always-on profiler's doctor summary is part of the default
    // output contract (it prints only when epochs were profiled).
    // Touch the registry singletons first so their function-local
    // statics are constructed -- and therefore destroyed -- strictly
    // after this atexit handler runs.
    obs::metrics();
    obs::profiler();
    std::atexit(writeObservabilityOutputs);
}

const BenchOptions &
options()
{
    return state();
}

std::string
flagTableMarkdown()
{
    std::string md = "| flag | default | what it does |\n|---|---|---|\n";
    for (const Flag &f : kFlags)
        md += "| `" + std::string(f.name) + (*f.metavar ? " " : "") +
              f.metavar + "` | " + f.defaultText + " | " + f.help + " |\n";
    return md;
}

void
applyFleetFlags(sim::ClusterConfig &cluster, std::size_t num_socs)
{
    const std::size_t racks = options().racks;
    if (racks <= 1)
        return;
    cluster.numRacks = racks;
    // Spread the boards evenly: the smallest rack width that hosts
    // every board of the requested SoC count.
    const std::size_t numBoards =
        (num_socs + cluster.socsPerBoard - 1) / cluster.socsPerBoard;
    cluster.boardsPerRack = (numBoards + racks - 1) / racks;
    cluster.coreBps = options().coreGbps * 1e9;
    cluster.coreOversub = options().oversub;
}

bool
writeBenchJson(const std::string &path, const BenchReport &report)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"" << report.bench << "\",\n"
        << "  \"seed\": " << report.seed << ",\n"
        << "  \"scale\": " << report.scale << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        const BenchRun &r = report.runs[i];
        out << "    {\"threads\": " << r.threads
            << ", \"wall_seconds\": " << r.wallSeconds
            << ", \"epochs_trained\": " << r.epochsTrained
            << ", \"epochs_per_sec\": " << r.epochsPerSec
            << ", \"events_per_sec\": " << r.eventsPerSec
            << ", \"timeline_hash\": \"" << std::hex << r.timelineHash
            << std::dec << "\"";
        if (!r.label.empty())
            out << ", \"label\": \"" << r.label << "\"";
        // Optional profiler phase columns (informational; never read
        // by the --baseline regression comparison).
        if (r.hasPhases) {
            out << ", \"phase_compute_seconds\": "
                << r.phaseComputeSeconds
                << ", \"phase_sync_seconds\": " << r.phaseSyncSeconds
                << ", \"phase_stall_seconds\": "
                << r.phaseStallSeconds;
        }
        out << "}" << (i + 1 < report.runs.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
}

namespace {

/** Scan forward from `from` for `"key": <value token>`. */
bool
jsonValueAfter(const std::string &text, const std::string &key,
               std::size_t from, std::string &token, std::size_t &at)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t k = text.find(needle, from);
    if (k == std::string::npos)
        return false;
    std::size_t p = k + needle.size();
    while (p < text.size() && (text[p] == ' ' || text[p] == '"'))
        ++p;
    std::size_t e = p;
    while (e < text.size() && text[e] != ',' && text[e] != '}' &&
           text[e] != '\n' && text[e] != '"')
        ++e;
    token = text.substr(p, e - p);
    at = e;
    return true;
}

} // namespace

bool
readBenchJson(const std::string &path, BenchReport &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    out = BenchReport{};
    std::string tok;
    std::size_t pos = 0;
    if (jsonValueAfter(text, "bench", 0, tok, pos))
        out.bench = tok;
    if (jsonValueAfter(text, "seed", 0, tok, pos))
        out.seed = std::strtoull(tok.c_str(), nullptr, 10);
    if (jsonValueAfter(text, "scale", 0, tok, pos))
        out.scale = std::atof(tok.c_str());

    std::size_t cursor = text.find("\"runs\"");
    if (cursor == std::string::npos)
        return false;
    for (;;) {
        BenchRun r;
        if (!jsonValueAfter(text, "threads", cursor, tok, cursor))
            break;
        r.threads = std::strtoull(tok.c_str(), nullptr, 10);
        // A key belongs to this row when it precedes the next "threads".
        std::size_t rowEnd = text.size();
        std::string next;
        jsonValueAfter(text, "threads", cursor, next, rowEnd);
        const auto has = [&](const char *key) {
            std::size_t at = 0;
            return jsonValueAfter(text, key, cursor, tok, at) && at < rowEnd;
        };
        const auto real = [&] { return std::atof(tok.c_str()); };
        if (!has("wall_seconds"))
            return false;
        r.wallSeconds = real();
        if (!has("epochs_trained"))
            return false;
        r.epochsTrained = std::strtoull(tok.c_str(), nullptr, 10);
        if (!has("epochs_per_sec"))
            return false;
        r.epochsPerSec = real();
        if (!has("events_per_sec"))
            return false;
        r.eventsPerSec = real();
        if (!has("timeline_hash"))
            return false;
        r.timelineHash = std::strtoull(tok.c_str(), nullptr, 16);
        // Optional columns: the fleet label and the profiler phases.
        if (has("label"))
            r.label = tok;
        r.hasPhases = has("phase_compute_seconds");
        if (r.hasPhases) {
            r.phaseComputeSeconds = real();
            if (has("phase_sync_seconds"))
                r.phaseSyncSeconds = real();
            if (has("phase_stall_seconds"))
                r.phaseStallSeconds = real();
        }
        out.runs.push_back(r);
    }
    return !out.runs.empty();
}

const std::vector<Workload> &
paperWorkloads()
{
    // Smoke tier: one tiny workload so every bench binary finishes in
    // seconds under ctest while still exercising its full code path.
    static const std::vector<Workload> smoke = {
        {"LeNet5-FMNIST", "lenet5", "fmnist", 16},
    };
    if (options().smoke)
        return smoke;
    static const std::vector<Workload> workloads = {
        {"MobileNet", "mobilenet_v1", "cifar10", 64},
        {"VGG11", "vgg11", "cifar10", 32},
        {"ResNet18", "resnet18", "cifar10", 32},
        {"VGG11-Celeba", "vgg11", "celeba", 32},
        {"ResNet18-Celeba", "resnet18", "celeba", 32},
        {"LeNet5-EMNIST", "lenet5", "emnist", 32},
        {"LeNet5-FMNIST", "lenet5", "fmnist", 32},
    };
    return workloads;
}

const Workload &
transferWorkload()
{
    static const Workload w = {"ResNet50-Finetune", "resnet50",
                               "cifar10", 32};
    return w;
}

double
benchScale()
{
    if (options().smoke)
        return 0.05;
    static const double scale = [] {
        const char *env = std::getenv("SOCFLOW_BENCH_SCALE");
        if (!env)
            return 1.0;
        const double v = std::atof(env);
        return std::max(0.05, v);
    }();
    return scale;
}

std::size_t
scaledEpochs(std::size_t full)
{
    if (options().smoke)
        return 1;
    const double scaled = static_cast<double>(full) * benchScale();
    return std::max<std::size_t>(3,
                                 static_cast<std::size_t>(scaled + 0.5));
}

core::SoCFlowConfig
oursConfig(const Workload &w, std::size_t num_socs,
           std::size_t num_groups)
{
    core::SoCFlowConfig cfg;
    cfg.modelFamily = w.model;
    cfg.numSocs = num_socs;
    cfg.numGroups = num_groups;
    cfg.groupBatch = w.batch;
    cfg.seed = options().seed; // --seed, default 42: reproducible BENCH numbers
    applyFleetFlags(cfg.clusterTemplate, num_socs); // --racks et al.
    return cfg;
}

baselines::BaselineConfig
baselineConfig(const Workload &w, std::size_t num_socs)
{
    baselines::BaselineConfig cfg;
    cfg.modelFamily = w.model;
    cfg.numSocs = num_socs;
    cfg.globalBatch = w.batch;
    cfg.seed = options().seed; // --seed, default 42
    return cfg;
}

const std::vector<std::string> &
suiteMethods()
{
    static const std::vector<std::string> methods = {
        "PS", "RING", "HiPress", "2D-Paral", "FedAvg", "T-FedAvg",
        "Ours"};
    return methods;
}

namespace {

/** Clone a math trajectory, substituting per-epoch time/energy. */
core::TrainResult
retimeTrajectory(const core::TrainResult &reference,
                 const std::string &method,
                 const core::EpochRecord &per_epoch)
{
    core::TrainResult out;
    out.method = method;
    out.epochs = reference.epochs;
    for (auto &e : out.epochs) {
        e.simSeconds = per_epoch.simSeconds;
        e.energyJoules = per_epoch.energyJoules;
        e.computeSeconds = per_epoch.computeSeconds;
        e.syncSeconds = per_epoch.syncSeconds;
        e.updateSeconds = per_epoch.updateSeconds;
    }
    return out;
}

} // namespace

SuiteResult
runSuite(const Workload &w, std::size_t num_socs,
         std::size_t max_epochs, bool include_local,
         const std::vector<float> *initial)
{
    SuiteResult suite;
    if (initial == nullptr &&
        loadSuiteCache(w, num_socs, max_epochs, include_local, suite))
        return suite;
    suite = SuiteResult{};
    suite.workload = w;
    suite.numSocs = num_socs;

    const std::size_t epochs = scaledEpochs(max_epochs);
    const std::size_t patience = 4;
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);

    // 1. Exact-sync reference math via RING; this is also RING's run.
    baselines::RingTrainer ring(baselineConfig(w, num_socs), bundle,
                                initial);
    core::TrainResult ringResult =
        core::runTraining(ring, epochs, 0.0, patience);
    suite.referenceBestAcc = ringResult.bestTestAcc();
    // 97% relative target (the paper uses 99%): convergence on the
    // miniature synthetic datasets is noisier, so the band is widened
    // to keep the comparison about *time*, not accuracy jitter.
    suite.targetAcc = 0.97 * suite.referenceBestAcc;

    // 2. PS / HiPress / 2D-Paral reuse the reference trajectory and
    //    contribute their own per-epoch timing. Because the paper-
    //    scale factor makes per-epoch simulated time independent of
    //    the analog's size, the timing probe runs one epoch on a
    //    tiny stub dataset instead of a full pass.
    data::SyntheticParams stubParams =
        data::registryParams(w.dataset);
    stubParams.trainSamples = 64;
    stubParams.testSamples = 16;
    const data::DataBundle stub = data::makeSynthetic(stubParams);
    for (const char *method : {"PS", "HiPress", "2D-Paral"}) {
        auto trainer = baselines::makeBaseline(
            method, baselineConfig(w, num_socs), stub, initial);
        const core::EpochRecord one = trainer->runEpoch();
        MethodRun run;
        run.method = method;
        run.mathShared = true;
        run.result = retimeTrajectory(ringResult, method, one);
        suite.runs.push_back(std::move(run));
    }
    suite.runs.push_back({"RING", std::move(ringResult), false});

    // 3. Federated baselines. FedAvg needs more epochs to reach the
    //    same target (staleness), so it gets a larger budget.
    {
        baselines::FedAvgTrainer fed(baselineConfig(w, num_socs),
                                     bundle,
                                     baselines::FedAggregation::Star,
                                     initial);
        core::TrainResult fedResult = core::runTraining(
            fed, epochs + epochs / 3, suite.targetAcc, patience + 2);
        baselines::FedAvgTrainer tfed(baselineConfig(w, num_socs),
                                      stub,
                                      baselines::FedAggregation::Tree,
                                      initial);
        const core::EpochRecord one = tfed.runEpoch();
        MethodRun treeRun;
        treeRun.method = "T-FedAvg";
        treeRun.mathShared = true;
        treeRun.result = retimeTrajectory(fedResult, "T-FedAvg", one);
        suite.runs.push_back({"FedAvg", std::move(fedResult), false});
        suite.runs.push_back(std::move(treeRun));
    }

    // 4. SoCFlow. The paper groups 32 SoCs into 8 logical groups on
    //    a 50k-sample dataset; our datasets are ~30x smaller, which
    //    shifts the group-count knee left (Fig. 6), so the suites use
    //    groups of ~8 SoCs. Like FedAvg it gets budget headroom --
    //    its delayed aggregation needs a few more epochs on the
    //    miniature datasets.
    {
        const std::size_t groups = std::max<std::size_t>(
            1, num_socs / 8);
        core::SoCFlowTrainer ours(oursConfig(w, num_socs, groups),
                                  bundle, initial);
        suite.runs.push_back(
            {"Ours",
             core::runTraining(ours, epochs + epochs / 3,
                               suite.targetAcc, patience),
             false});
    }

    // 5. Optional single-SoC reference ("Local" accuracy column).
    if (include_local) {
        baselines::LocalTrainer local(baselineConfig(w, 1), bundle,
                                      sim::Device::SocCpu, initial);
        suite.local =
            core::runTraining(local, epochs, 0.0, patience);
    }
    if (initial == nullptr)
        storeSuiteCache(suite, max_epochs);
    return suite;
}

namespace {

std::string
cachePath(const Workload &w, std::size_t socs, std::size_t epochs)
{
    std::ostringstream oss;
    oss << ".bench_cache/" << w.key << '_' << socs << '_' << epochs
        << '_' << benchScale() << (options().smoke ? "_smoke" : "");
    if (options().seed != 42)
        oss << "_s" << options().seed;
    oss << ".txt";
    return oss.str();
}

void
writeResult(std::ostream &out, const core::TrainResult &r,
            bool math_shared)
{
    out << "run " << r.method << ' ' << (math_shared ? 1 : 0) << ' '
        << r.epochs.size() << '\n';
    for (const auto &e : r.epochs) {
        out << e.simSeconds << ' ' << e.energyJoules << ' '
            << e.computeSeconds << ' ' << e.syncSeconds << ' '
            << e.updateSeconds << ' ' << e.trainLoss << ' '
            << e.trainAcc << ' ' << e.testAcc << '\n';
    }
}

bool
readResult(std::istream &in, core::TrainResult &r, bool &math_shared)
{
    std::string tag;
    std::size_t n = 0;
    int shared = 0;
    if (!(in >> tag >> r.method >> shared >> n) || tag != "run")
        return false;
    math_shared = shared != 0;
    r.epochs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto &e = r.epochs[i];
        e.epoch = i;
        if (!(in >> e.simSeconds >> e.energyJoules >>
              e.computeSeconds >> e.syncSeconds >> e.updateSeconds >>
              e.trainLoss >> e.trainAcc >> e.testAcc))
            return false;
    }
    return true;
}

} // namespace

bool
loadSuiteCache(const Workload &w, std::size_t num_socs,
               std::size_t max_epochs, bool need_local,
               SuiteResult &out)
{
    std::ifstream in(cachePath(w, num_socs, max_epochs));
    if (!in)
        return false;
    SuiteResult suite;
    suite.workload = w;
    suite.numSocs = num_socs;
    std::size_t runs = 0;
    int hasLocal = 0;
    if (!(in >> suite.referenceBestAcc >> suite.targetAcc >> runs >>
          hasLocal))
        return false;
    if (need_local && !hasLocal)
        return false;
    for (std::size_t i = 0; i < runs; ++i) {
        MethodRun run;
        if (!readResult(in, run.result, run.mathShared))
            return false;
        run.method = run.result.method;
        suite.runs.push_back(std::move(run));
    }
    if (hasLocal) {
        core::TrainResult local;
        bool shared = false;
        if (!readResult(in, local, shared))
            return false;
        suite.local = std::move(local);
    }
    out = std::move(suite);
    inform("suite cache hit: ", w.key, " @ ", num_socs, " SoCs");
    return true;
}

void
storeSuiteCache(const SuiteResult &suite, std::size_t max_epochs)
{
    ::mkdir(".bench_cache", 0755);
    std::ofstream out(
        cachePath(suite.workload, suite.numSocs, max_epochs));
    if (!out)
        return;  // caching is best-effort
    out.precision(17);
    out << suite.referenceBestAcc << ' ' << suite.targetAcc << ' '
        << suite.runs.size() << ' ' << (suite.local ? 1 : 0) << '\n';
    for (const auto &run : suite.runs)
        writeResult(out, run.result, run.mathShared);
    if (suite.local)
        writeResult(out, *suite.local, false);
}

const MethodRun &
findRun(const SuiteResult &suite, const std::string &method)
{
    for (const auto &run : suite.runs)
        if (run.method == method)
            return run;
    fatal("method not present in suite: ", method);
}

} // namespace bench
} // namespace socflow
