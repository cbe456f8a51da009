/**
 * @file
 * Host-time layer timers of the traced benchmark binary.
 *
 * socflow_bench_traced links layer_timers.cc, which intercepts the
 * entry points listed in layer_table.def with `-Wl,--wrap` and times
 * every call into per-thread accumulators. socflow_bench links
 * no_layer_timers.cc instead, where available() is false and nothing
 * is recorded. No file of the simulator changes either way.
 */

#ifndef SOCFLOW_BENCH_LAYERS_HH
#define SOCFLOW_BENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace socflow_bench {

/** Workload bits for an entry's `expected_on` mask. */
enum WorkloadBit : unsigned {
    kNone = 0,
    kHarvest = 1u << 0,
    kFleet = 1u << 1,
    kSteady = 1u << 2,
    kChurn = 1u << 3,
    kHarvestDays = kHarvest | kFleet | kChurn,
    kSingleRack = kHarvest | kSteady | kChurn,
    kAll = kHarvest | kFleet | kSteady | kChurn,
};

namespace layers {

/** Totals of one wrapped entry point (or one tracked host span). */
struct Entry {
    std::string id;
    /** Metric prefix the entry reports under ("sim.flow", ...). */
    std::string layer;
    /** WorkloadBit mask where at least one call is required. */
    unsigned expectedOn = kNone;
    std::uint64_t calls = 0;
    /** Inclusive thread-seconds. */
    double seconds = 0.0;
    /** Inclusive minus the time of wrapped calls nested inside. */
    double selfSeconds = 0.0;
    /** Entry-specific amount: flows simulated, checkpoint bytes,
     *  acked checkpoint writes. */
    double amount = 0.0;
    /** Calls (and their seconds) made while a profiler flow capture
     *  was armed: attribution replays, not new simulation. */
    std::uint64_t replayCalls = 0;
    double replaySeconds = 0.0;
};

/** Everything recorded since the last reset(). */
struct Totals {
    std::vector<Entry> entries;
    /** Host seconds of every closed runEpoch span. */
    std::vector<double> epochSeconds;
    /** Seconds inside outermost timed calls on the thread that called
     *  reset() (the main thread), and on every other thread. */
    double mainTopSeconds = 0.0;
    double otherTopSeconds = 0.0;
};

/** True in the traced binary. */
bool available();

/** Turn timing on or off. Call only while no timed call is open. */
void setEnabled(bool on);

/** Host seconds one timed call adds, measured on the calling thread;
 *  0 in the plain binary. Call while timing is on and before reset(). */
double callCost();

/** Zero every accumulator and make the calling thread the main
 *  thread. Call only while no timed call is open. */
void reset();

/** Sum the per-thread accumulators; empty while timing is off. */
Totals collect();

} // namespace layers
} // namespace socflow_bench

#endif // SOCFLOW_BENCH_LAYERS_HH
