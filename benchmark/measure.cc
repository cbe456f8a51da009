#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string_view>

#include "json.hh"

namespace socflow_bench {

namespace obs = socflow::obs;

namespace {

using Clock = std::chrono::steady_clock;

/** Set-ups per unit; setup_s is their median. */
constexpr std::size_t kSetups = 5;

const std::vector<MetricSpec> kEndToEnd = {
    {"epochs_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_epoch_s", "sim_s"},
    {"final_test_acc", "fraction"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"core.epoch.calls", "count"},
    {"core.epoch.p50_ms", "ms"},
    {"core.epoch.tail_ms", "ms"},
    {"core.epoch.tail_pct", "%"},
    {"core.self_s", "s"},
    {"core.resize.s", "s"},
    {"core.plan.calls", "count"},
    {"core.plan.self_s", "s"},
    {"core.mp.s", "s"},
    {"core.checkpoint.calls", "count"},
    {"core.checkpoint.s", "s"},
    {"core.checkpoint.bytes", "bytes"},
    {"nn.step.calls", "count"},
    {"nn.step.self_s", "s"},
    {"nn.sgd.s", "s"},
    {"nn.eval.calls", "count"},
    {"nn.eval.s", "s"},
    {"tensor.conv.calls", "count"},
    {"tensor.conv.s", "s"},
    {"tensor.gemm.calls", "count"},
    {"tensor.gemm.s", "s"},
    {"quant.step.calls", "count"},
    {"quant.step.self_s", "s"},
    {"sim.flow.calls", "count"},
    {"sim.flow.s", "s"},
    {"sim.flow.flows", "count"},
    {"sim.flow.replay_calls", "count"},
    {"sim.flow.replay_s", "s"},
    {"collectives.calls", "count"},
    {"collectives.self_s", "s"},
    {"collectives.ops", "count"},
    {"collectives.retries", "count"},
    {"collectives.timeouts", "count"},
    {"collectives.degraded", "count"},
    {"collectives.chunks_retransmitted", "count"},
    {"collectives.chunks_resumed", "count"},
    {"fault.calls", "count"},
    {"fault.s", "s"},
    {"fault.injected", "count"},
    {"fault.epoch_fail_ratio", "ratio"},
    {"membership.calls", "count"},
    {"membership.s", "s"},
    {"membership.fenced", "count"},
    {"membership.partitions", "count"},
    {"membership.rejoins", "count"},
    {"ckpt.write.calls", "count"},
    {"ckpt.write.s", "s"},
    {"ckpt.restore.calls", "count"},
    {"ckpt.restore.s", "s"},
    {"ckpt.acked_ratio", "ratio"},
    {"ckpt.replica_writes", "count"},
    {"data.calls", "count"},
    {"data.s", "s"},
    {"obs.profiler.calls", "count"},
    {"obs.profiler.s", "s"},
    {"trace.harvest.self_s", "s"},
    {"util.pool.calls", "count"},
    {"util.pool.s", "s"},
    {"util.pool.busy_ratio", "ratio"},
    {"simtime.compute_s", "sim_s"},
    {"simtime.sync_s", "sim_s"},
    {"simtime.stall_s", "sim_s"},
    {"simtime.recovery_s", "sim_s"},
    {"simtime.overlap_ratio", "ratio"},
    {"simtime.top_resource_share", "ratio"},
    {"unattributed_s", "s"},
    {"trace_overhead_ratio", "ratio"},
};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** Sum of a registry series over all its label sets. */
double
counterSum(const Unit &u, std::string_view name)
{
    double sum = 0.0;
    for (const auto &[key, value] : u.counters) {
        const std::string_view k(key);
        if (k.substr(0, name.size()) == name &&
            (k.size() == name.size() || k[name.size()] == '{'))
            sum += value;
    }
    return sum;
}

/** Registry series `key` exactly (one label set). */
double
counterExact(const Unit &u, std::string_view key)
{
    for (const auto &[k, value] : u.counters)
        if (k == key)
            return value;
    return 0.0;
}

/** Layer-timer entries summed by metric prefix. */
struct LayerSum {
    double calls = 0.0;
    double seconds = 0.0;
    double selfSeconds = 0.0;
    double amount = 0.0;
    double replayCalls = 0.0;
    double replaySeconds = 0.0;
};

/**
 * The tail the choosing-metrics rule allows: the highest of p99/p90/p75
 * with at least ten samples above it, else the median.
 * @return {percentile, seconds}.
 */
std::pair<double, double>
tailOf(std::vector<double> v)
{
    if (v.empty())
        return {50.0, 0.0};
    std::sort(v.begin(), v.end());
    const auto nearestRank = [&](double p) {
        const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
        const std::size_t i = static_cast<std::size_t>(
            std::clamp(rank, 1.0, static_cast<double>(v.size())));
        return v[i - 1];
    };
    for (const double p : {99.0, 90.0, 75.0}) {
        const double x = nearestRank(p);
        const auto beyond =
            v.end() - std::upper_bound(v.begin(), v.end(), x);
        if (beyond >= 10)
            return {p, x};
    }
    return {50.0, spreadOf(v).median};
}

using Values = std::map<std::string, double>;

Values
endToEnd(const std::vector<Unit> &units)
{
    std::vector<double> eps, setup, simEpoch, acc;
    for (const Unit &u : units) {
        eps.push_back(ratio(static_cast<double>(u.epochsTrained),
                            u.wallSeconds));
        setup.insert(setup.end(), u.setupSeconds.begin(),
                     u.setupSeconds.end());
        simEpoch.push_back(
            ratio(u.simSeconds, static_cast<double>(u.epochsTrained)));
        acc.push_back(u.finalTestAcc);
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"epochs_per_s", spreadOf(eps).median},
        {"setup_s", spreadOf(setup).median},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
        {"sim_epoch_s", spreadOf(simEpoch).median},
        {"final_test_acc", spreadOf(acc).median},
    };
}

/** Per-layer values per unit; `callCost` = host seconds one timed call
 *  adds (layers::callCost()). */
Values
perLayer(const std::vector<Unit> &units, double callCost)
{
    std::map<std::string, LayerSum> by;
    std::vector<double> epochSeconds;
    double wall = 0.0, mainTop = 0.0, otherTop = 0.0, timedCalls = 0.0;
    double failed = 0.0, attempted = 0.0;
    double excl[obs::kNumPhases] = {};
    double hidden = 0.0, comm = 0.0;
    for (const Unit &u : units) {
        for (const layers::Entry &e : u.layers.entries) {
            LayerSum &s = by[e.layer];
            timedCalls += static_cast<double>(e.calls);
            s.calls += static_cast<double>(e.calls);
            s.seconds += e.seconds;
            s.selfSeconds += e.selfSeconds;
            s.amount += e.amount;
            s.replayCalls += static_cast<double>(e.replayCalls);
            s.replaySeconds += e.replaySeconds;
        }
        epochSeconds.insert(epochSeconds.end(),
                            u.layers.epochSeconds.begin(),
                            u.layers.epochSeconds.end());
        wall += u.wallSeconds;
        mainTop += u.layers.mainTopSeconds;
        otherTop += u.layers.otherTopSeconds;
        failed += static_cast<double>(u.epochsFailed);
        attempted += static_cast<double>(u.epochsTrained + u.epochsFailed);
        for (std::size_t p = 0; p < obs::kNumPhases; ++p)
            excl[p] += u.profile.exclusiveSeconds[p];
        hidden += u.profile.hiddenCommSeconds;
        comm += u.profile.commWindowSeconds;
    }
    const double n = static_cast<double>(units.size());
    const auto phase = [&](obs::Phase p) {
        return excl[static_cast<std::size_t>(p)] / n;
    };
    const auto counter = [&](std::string_view name) {
        double sum = 0.0;
        for (const Unit &u : units)
            sum += counterSum(u, name);
        return sum / n;
    };
    const auto calls = [&](const char *layer) { return by[layer].calls / n; };
    const auto secs = [&](const char *layer) { return by[layer].seconds / n; };
    const auto self = [&](const char *layer) {
        return by[layer].selfSeconds / n;
    };
    const Unit &first = units.front();
    const auto [tailPct, tailS] = tailOf(epochSeconds);

    double replicaWrites = 0.0;
    for (const Unit &u : units)
        replicaWrites += counterExact(u, "ckpt_replica_writes_total");

    return {
        {"core.epoch.calls", calls("core.epoch")},
        {"core.epoch.p50_ms", 1e3 * spreadOf(epochSeconds).median},
        {"core.epoch.tail_ms", 1e3 * tailS},
        {"core.epoch.tail_pct", tailPct},
        {"core.self_s", self("core.epoch")},
        {"core.resize.s", secs("core.resize")},
        {"core.plan.calls", calls("core.plan")},
        {"core.plan.self_s", self("core.plan")},
        {"core.mp.s", secs("core.mp")},
        {"core.checkpoint.calls", calls("core.checkpoint")},
        {"core.checkpoint.s", secs("core.checkpoint")},
        {"core.checkpoint.bytes", by["core.checkpoint"].amount / n},
        {"nn.step.calls", calls("nn.step")},
        {"nn.step.self_s", self("nn.step")},
        {"nn.sgd.s", secs("nn.sgd")},
        {"nn.eval.calls", calls("nn.eval")},
        {"nn.eval.s", secs("nn.eval")},
        {"tensor.conv.calls", calls("tensor.conv")},
        {"tensor.conv.s", secs("tensor.conv")},
        {"tensor.gemm.calls", calls("tensor.gemm")},
        {"tensor.gemm.s", secs("tensor.gemm")},
        {"quant.step.calls", calls("quant.step")},
        {"quant.step.self_s", self("quant.step")},
        {"sim.flow.calls", calls("sim.flow")},
        {"sim.flow.s", secs("sim.flow")},
        {"sim.flow.flows", by["sim.flow"].amount / n},
        {"sim.flow.replay_calls", by["sim.flow"].replayCalls / n},
        {"sim.flow.replay_s", by["sim.flow"].replaySeconds / n},
        {"collectives.calls", calls("collectives")},
        {"collectives.self_s", self("collectives")},
        {"collectives.ops", counter("collective_ops_total")},
        {"collectives.retries", counter("collective_retries_total")},
        {"collectives.timeouts", counter("collective_timeouts_total")},
        {"collectives.degraded", counter("collective_degraded_total")},
        {"collectives.chunks_retransmitted",
         counter("chunks_retransmitted_total")},
        {"collectives.chunks_resumed", counter("chunks_resumed_total")},
        {"fault.calls", calls("fault")},
        {"fault.s", secs("fault")},
        {"fault.injected", counter("fault_injected_total")},
        {"fault.epoch_fail_ratio", ratio(failed, attempted)},
        {"membership.calls", calls("membership")},
        {"membership.s", secs("membership")},
        {"membership.fenced", counter("fenced_stale_msgs_total")},
        {"membership.partitions", counter("partition_total")},
        {"membership.rejoins", counter("rejoin_total")},
        {"ckpt.write.calls", calls("ckpt.write")},
        {"ckpt.write.s", secs("ckpt.write")},
        {"ckpt.restore.calls", calls("ckpt.restore")},
        {"ckpt.restore.s", secs("ckpt.restore")},
        {"ckpt.acked_ratio",
         ratio(by["ckpt.write"].amount, by["ckpt.write"].calls)},
        {"ckpt.replica_writes", replicaWrites / n},
        {"data.calls", calls("data")},
        {"data.s", secs("data")},
        {"obs.profiler.calls", calls("obs.profiler")},
        {"obs.profiler.s", secs("obs.profiler")},
        {"trace.harvest.self_s", self("trace.harvest")},
        {"util.pool.calls", calls("util.pool")},
        {"util.pool.s", secs("util.pool")},
        {"util.pool.busy_ratio",
         ratio(otherTop, static_cast<double>(kThreads) * wall)},
        {"simtime.compute_s", phase(obs::Phase::Forward) +
                                  phase(obs::Phase::Backward) +
                                  phase(obs::Phase::Update)},
        {"simtime.sync_s", phase(obs::Phase::Wave1Sync) +
                               phase(obs::Phase::Wave2Sync) +
                               phase(obs::Phase::HierarchicalSync) +
                               phase(obs::Phase::PsPush) +
                               phase(obs::Phase::PsPull)},
        {"simtime.stall_s", phase(obs::Phase::Stall)},
        {"simtime.recovery_s",
         phase(obs::Phase::Recovery) + phase(obs::Phase::Paused)},
        {"simtime.overlap_ratio", ratio(hidden, comm)},
        {"simtime.top_resource_share",
         first.profile.resources.empty()
             ? 0.0
             : first.profile.resources.front().criticalShare},
        {"unattributed_s", (wall - mainTop) / n},
        // An upper bound: calls on pool workers overlap one another.
        {"trace_overhead_ratio", ratio(callCost * timedCalls, wall)},
    };
}

/** Print `values` in spec order as a JSON metrics object. */
std::string
metricsJson(const std::vector<MetricSpec> &specs, const Values &values)
{
    std::string out = "{";
    for (const MetricSpec &m : specs) {
        const auto it = values.find(m.name);
        if (it == values.end()) {
            std::fprintf(stderr, "internal error: metric %s not computed\n",
                         m.name);
            std::abort();
        }
        if (out.size() > 1)
            out += ", ";
        out += json::quote(m.name) + ": {\"value\": " +
               json::number(it->second) + ", \"unit\": " +
               json::quote(m.unit) + "}";
    }
    if (values.size() != specs.size()) {
        std::fprintf(stderr, "internal error: metric without a spec\n");
        std::abort();
    }
    return out + "}";
}

/** Correctness checks of one unit against the run's first unit. */
std::vector<std::string>
checkUnit(const Workload &w, bool toy, const Unit &u, const Unit &ref,
          std::size_t index)
{
    std::vector<std::string> bad;
    const std::string at = "unit " + std::to_string(index) + ": ";
    if (u.timelineHash != ref.timelineHash)
        bad.push_back(at + "timeline hash " + hex(u.timelineHash) +
                      " differs from unit 0's " + hex(ref.timelineHash));
    if (u.epochsTrained != ref.epochsTrained ||
        u.simSeconds != ref.simSeconds ||
        u.finalTestAcc != ref.finalTestAcc)
        bad.push_back(at + "epochs, simulated time or accuracy differ "
                           "from unit 0 (same seed)");
    if (!u.profile.conservationOk)
        bad.push_back(at + "profiler phase conservation violated");
    if (u.epochsTrained == 0)
        bad.push_back(at + "trained no epoch");
    if (u.finalTestAcc < u.accFloor)
        bad.push_back(at + "final test accuracy " +
                      json::number(u.finalTestAcc) + " below " +
                      json::number(u.accFloor));
    if (w.bit == kSteady && u.accFloor > 0.0 && u.simSecondsToTarget < 0.0)
        bad.push_back(at + "never reached the target test accuracy");
    // Every timed entry expected on this workload must have been
    // reached: a call moved inside one object file escapes --wrap and
    // would otherwise read as a silent zero. Toy days are too short to
    // reach every recovery path, so --smoke skips this gate.
    if (!toy)
        for (const layers::Entry &e : u.layers.entries)
            if ((e.expectedOn & w.bit) && e.calls == 0)
                bad.push_back(at + "layer entry " + e.id +
                              " recorded no call");
    return bad;
}

} // namespace

const std::vector<MetricSpec> &
endToEndSpecs()
{
    return kEndToEnd;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    return kPerLayer;
}

Spread
spreadOf(std::vector<double> v)
{
    Spread s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n == 1) {
        s.q1 = s.q3 = v[0];
        return s;
    }
    // statistics.quantiles' default 'exclusive' method.
    const auto q = [&](std::size_t i) {
        const std::size_t m = n + 1;
        const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = q(1);
    s.q3 = q(3);
    return s;
}

int
runWorkload(const RunRequest &r)
{
    const Workload &w = *r.workload;
    layers::setEnabled(r.trace);
    const double callCost = r.trace ? layers::callCost() : 0.0;
    std::vector<Unit> units;
    const Clock::time_point start = Clock::now();
    for (;;) {
        const Clock::time_point u0 = Clock::now();
        units.push_back(runUnit(w, r.seed, r.daySeed, r.toy, kSetups));
        if (since(start) + since(u0) > r.seconds)
            break;
    }

    std::vector<std::string> failures;
    std::size_t failedUnits = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const std::vector<std::string> bad =
            checkUnit(w, r.toy, units[i], units.front(), i);
        failures.insert(failures.end(), bad.begin(), bad.end());
        failedUnits += bad.empty() ? 0 : 1;
    }

    std::string layerCalls;
    for (const layers::Entry &e : units.front().layers.entries)
        layerCalls += (layerCalls.empty() ? "" : ", ") + json::quote(e.id) +
                      ": " + std::to_string(e.calls);
    const Values values =
        r.trace ? perLayer(units, callCost) : endToEnd(units);

    for (const std::string &f : failures)
        std::fprintf(stderr, "FAIL %s: %s\n", w.name, f.c_str());

    const Unit &ref = units.front();
    std::string detail = "{\"detail\": {\"workload\": " + json::quote(w.name) +
                         ", \"seed\": " + std::to_string(r.seed) +
                         ", \"day_seed\": " + std::to_string(r.daySeed) +
                         ", \"trace\": " + (r.trace ? "true" : "false") +
                         ", \"timeline_hash\": " +
                         json::quote(hex(ref.timelineHash)) +
                         ", \"sim_s_to_target\": " +
                         (ref.simSecondsToTarget >= 0.0
                              ? json::number(ref.simSecondsToTarget)
                              : std::string("null")) +
                         ", \"unit_wall_s\": [";
    for (std::size_t i = 0; i < units.size(); ++i)
        detail += (i ? ", " : "") + json::number(units[i].wallSeconds);
    detail += "], \"layer_calls\": {" + layerCalls + "}, \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        detail += (i ? ", " : "") + json::quote(failures[i]);
    detail += "]}}";

    const bool correct = failures.empty();
    std::printf("%s\n", detail.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", units.size(), failedUnits,
                metricsJson(r.trace ? kPerLayer : kEndToEnd, values).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace socflow_bench
