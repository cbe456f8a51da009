/**
 * @file
 * One benchmark run of one workload, and the metrics it reports.
 */

#ifndef SOCFLOW_BENCH_MEASURE_HH
#define SOCFLOW_BENCH_MEASURE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace socflow_bench {

/** A reported metric's name and unit. */
struct MetricSpec {
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced runs), in BENCHMARK.json order. */
const std::vector<MetricSpec> &endToEndSpecs();

/** Per-layer metrics (traced runs), in BENCHMARK.json order. */
const std::vector<MetricSpec> &perLayerSpecs();

/** Median and quartiles as Python's statistics.quantiles(v, n=4). */
struct Spread {
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

Spread spreadOf(std::vector<double> v);

struct RunRequest {
    const Workload *workload = nullptr;
    /** Trainer seed, and the seed of the day (runUnit()). */
    std::uint64_t seed = 42;
    std::uint64_t daySeed = 42;
    /** Keep starting units while one more still ends within this
     *  many seconds of the start; at least one unit always runs. */
    double seconds = 0.0;
    /** Per-layer metrics from the layer timers (traced binary). */
    bool trace = false;
    bool toy = false;
};

/**
 * Run units of one workload, check them, and print two lines on
 * stdout: a detail object (timeline hash, simulated time to target,
 * failed checks), then the result object {correct, attempted, failed,
 * metrics}: end-to-end metrics, or with `trace` per-layer ones.
 * @return the exit code: 0 when every check passed.
 */
int runWorkload(const RunRequest &r);

} // namespace socflow_bench

#endif // SOCFLOW_BENCH_MEASURE_HH
