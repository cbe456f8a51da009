/**
 * @file
 * Fluid flow-level network model with max-min fair bandwidth sharing.
 *
 * The SoC-Cluster's network behaviour under contention (shared board
 * NICs, incast at a parameter server, ring neighbours crossing PCB
 * boundaries) is what bottlenecks distributed training in the paper.
 * We model each physical link (SoC port, board NIC uplink/downlink,
 * per-rack switch fabric, and -- on a multi-rack fleet -- the
 * oversubscribed rack uplinks and the inter-rack core) as a capacity
 * resource and every transfer as a fluid flow over an ordered set of
 * resources. At any instant, active flows receive their max-min fair
 * rates (progressive filling); the simulation advances between flow
 * arrival/completion events. Because the fleet's cross-rack links are
 * ordinary resources, cross-rack contention is priced by the same
 * progressive-filling pass that prices the board NICs.
 *
 * This reproduces the paper's measured phenomena: ring latency scaling
 * linearly with node count, 2.31-9.81x inter-PCB penalty, and
 * parameter-server incast collapse, without packet-level detail.
 */

#ifndef SOCFLOW_SIM_FLOW_NETWORK_HH
#define SOCFLOW_SIM_FLOW_NETWORK_HH

#include <cstddef>
#include <string>
#include <vector>

namespace socflow {
namespace sim {

/** Identifies one capacity resource (a link direction). */
using ResourceId = std::size_t;

/** One fluid transfer over an ordered path of resources. */
struct FlowSpec {
    /** Time the flow becomes active, seconds. */
    double startS = 0.0;
    /** Payload size in bytes. */
    double bytes = 0.0;
    /**
     * Fixed latency added after the last byte drains (propagation +
     * protocol/software startup), seconds.
     */
    double latencyS = 0.0;
    /** Resources traversed; rate is min fair share across them. */
    std::vector<ResourceId> path;
};

/** Completion record for one flow. */
struct FlowResult {
    double startS = 0.0;
    double finishS = 0.0;
    /** Mean achieved rate in bytes/s (0 for empty flows). */
    double meanRate = 0.0;
};

/** Per-resource usage accumulated while a capture sink is armed. */
struct ResourceUsage {
    /** Seconds with at least one active flow crossing the resource. */
    double busySeconds = 0.0;
    /** Bytes drained through the resource. */
    double bytes = 0.0;
    /**
     * Seconds this resource was the *binding constraint*: the first
     * progressive-filling pass's bottleneck for the active set during
     * the interval (obs/profiler.hh attributes critical-path comm
     * time to resources by this signal).
     */
    double bindingSeconds = 0.0;
};

/**
 * Passive attribution sink for replayed simulate() calls. Armed via
 * FlowNetwork::beginCapture by the profiler's cost-replay path; never
 * armed on the simulation's own cost queries.
 */
struct FlowCapture {
    std::vector<ResourceUsage> usage;  //!< indexed by ResourceId
    std::size_t simulations = 0;
};

/**
 * A set of capacity resources plus a fluid max-min simulation over
 * them. Resources are registered once; simulate() is const and
 * re-entrant so a single network can evaluate many candidate
 * schedules.
 */
class FlowNetwork
{
  public:
    /**
     * @param congestion_exponent models protocol goodput collapse
     *        under fan-in: a resource shared by u flows delivers an
     *        aggregate of capacity * u^-gamma (gamma = 0 restores the
     *        ideal fluid model). Real TCP incast over the shared
     *        board NIC loses goodput to retransmissions; this is the
     *        knob that reproduces it.
     */
    explicit FlowNetwork(double congestion_exponent = 0.0);

    /** The configured congestion exponent. */
    double congestionExponent() const { return congestionExp; }

    /**
     * Register a resource.
     * @param bytes_per_sec capacity; must be positive.
     * @param name used in diagnostics.
     */
    ResourceId addResource(double bytes_per_sec, std::string name);

    /** Number of registered resources. */
    std::size_t numResources() const { return capacities.size(); }

    /** Capacity of a resource in bytes/s. */
    double capacity(ResourceId id) const;

    /** Diagnostic name of a resource. */
    const std::string &name(ResourceId id) const;

    /**
     * Simulate a set of flows to completion.
     * @return per-flow results, parallel to the input vector.
     */
    std::vector<FlowResult> simulate(
        const std::vector<FlowSpec> &flows) const;

    /**
     * Convenience: duration until the last flow in the set finishes,
     * measured from t = 0.
     */
    double makespan(const std::vector<FlowSpec> &flows) const;

    /**
     * Compute instantaneous max-min fair rates (bytes/s) for a set of
     * simultaneously active flows, identified by their paths. Exposed
     * for testing.
     */
    std::vector<double> maxMinRates(
        const std::vector<const FlowSpec *> &active) const;

    /**
     * maxMinRates, additionally reporting the binding constraint of
     * the active set: the bottleneck resource the *first* progressive
     * filling pass saturates (the lexicographic (share, id) minimum).
     * `first_bottleneck` is written only when at least one flow uses
     * a resource.
     *
     * The filling is serial and runs over only the resources the
     * active flows touch; each pass freezes the bottleneck's flows in
     * ascending flow order, so results are a pure function of the
     * active set (DESIGN.md ch. 10).
     */
    std::vector<double> maxMinRates(
        const std::vector<const FlowSpec *> &active,
        ResourceId *first_bottleneck) const;

    /**
     * Arm a passive attribution sink: subsequent simulate()/makespan()
     * calls accumulate per-resource busy/bytes/binding seconds into
     * `sink` and suppress their metric side effects (a captured run
     * is an accounting *replay* of a cost query, not a new
     * simulation). Rates and results are byte-identical with and
     * without a sink armed. Serial use only: arm, replay, disarm on
     * one thread; nested arming is an internal error.
     */
    void beginCapture(FlowCapture *sink) const;

    /** Disarm the capture sink installed by beginCapture(). */
    void endCapture() const;

    /** True while a capture sink is armed. */
    bool captureActive() const { return capture != nullptr; }

  private:
    double congestionExp;
    std::vector<double> capacities;
    std::vector<std::string> names;
    /**
     * Armed attribution sink. Mutable: capture replays re-run const
     * cost queries purely for attribution, leaving results and
     * registered resources untouched.
     */
    mutable FlowCapture *capture = nullptr;
};

} // namespace sim
} // namespace socflow

#endif // SOCFLOW_SIM_FLOW_NETWORK_HH
