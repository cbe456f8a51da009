/**
 * @file
 * The benchmark's four workloads and the timed unit each one runs.
 *
 * A unit is one set-up followed by one timed training loop: a whole
 * harvest day for the three harvest workloads, 12 x (runEpoch +
 * testAccuracy) for steady-vgg11. The benchmark seed is the trainer
 * seed (initial weights, data shuffles, alpha probes). The day seed
 * draws the day's tidal trace and fault plan; it defaults to 42,
 * bench_e2e_throughput's day, because another day is another workload
 * (README.md, "Seeds").
 */

#ifndef SOCFLOW_BENCH_WORKLOADS_HH
#define SOCFLOW_BENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "layers.hh"
#include "obs/profiler.hh"

namespace socflow_bench {

/** Worker threads of the simulator's pool in every run. */
constexpr std::size_t kThreads = 4;

struct Workload {
    const char *name;
    WorkloadBit bit;
};

/** The workloads, in BENCHMARK.json order. */
const std::vector<Workload> &allWorkloads();

/** The workload called `name`, or nullptr. */
const Workload *findWorkload(std::string_view name);

/** What one unit produced. */
struct Unit {
    /** Host seconds of every set-up made for this unit (the last one
     *  built the trainer that was timed). */
    std::vector<double> setupSeconds;
    /** Host seconds of the timed loop. */
    double wallSeconds = 0.0;
    std::size_t epochsTrained = 0;
    /** Epochs that trained nothing: quorum-paused, lost to a power
     *  loss, or skipped while the fleet was dark. */
    std::size_t epochsFailed = 0;
    /** Simulated seconds of the trained epochs. */
    double simSeconds = 0.0;
    double finalTestAcc = 0.0;
    /** Lowest acceptable finalTestAcc. */
    double accFloor = 0.0;
    /** steady-vgg11 only: simulated seconds until the test accuracy
     *  first reached the target (negative when never reached, or on
     *  the harvest workloads, which do not test every epoch). */
    double simSecondsToTarget = -1.0;
    std::uint64_t timelineHash = 0;
    /** Profiler report of the timed loop alone. */
    socflow::obs::PerfReport profile;
    /** Metric registry values of the timed loop alone. */
    std::vector<std::pair<std::string, double>> counters;
    /** Layer timers of the timed loop (empty in the plain binary or
     *  with timing off). */
    layers::Totals layers;
};

/**
 * Set the workload up `setups` times (keeping the last), then run its
 * timed loop. `seed` is the trainer seed; `daySeed` draws the harvest
 * day's tidal trace (+57) and churn-1rack's fault plan (+31). `toy`
 * selects the tiny --smoke sizes.
 */
Unit runUnit(const Workload &w, std::uint64_t seed, std::uint64_t daySeed,
             bool toy, std::size_t setups);

} // namespace socflow_bench

#endif // SOCFLOW_BENCH_WORKLOADS_HH
