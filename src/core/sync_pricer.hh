/**
 * @file
 * Sync pricing of the group-wise trainer, memoized until the
 * membership changes, and the profiler's flow-capture replay of it.
 */

#ifndef SOCFLOW_CORE_SYNC_PRICER_HH
#define SOCFLOW_CORE_SYNC_PRICER_HH

#include <functional>
#include <vector>

#include "collectives/engine.hh"
#include "core/comm_plan.hh"
#include "core/mapping.hh"
#include "sim/flow_network.hh"

namespace socflow {
namespace core {

/**
 * Replay the const cost query `price` with a capture armed on `net`:
 * its flows' per-resource attribution. The armed sink suppresses the
 * replay's metric side effects, so it cannot perturb the timeline.
 */
sim::FlowCapture captureFlows(const sim::FlowNetwork &net,
                              const std::function<void()> &price);

/** Add `cap`'s per-resource usage, times `scale`, into `use`. */
void foldCapture(std::vector<sim::ResourceUsage> &use,
                 const sim::FlowCapture &cap, double scale);

/** Report every busy resource of `use` to the profiler. */
void noteResourceUsage(const sim::FlowNetwork &net,
                       const std::vector<sim::ResourceUsage> &use);

/**
 * Prices the sync of the groups in `mapping` under `plan` on `engine`:
 * one step's intra-group sync (CG waves, or every ring at once) and
 * the per-epoch aggregation (leader ring, in-group broadcast, data
 * shuffle). Memoized until invalidate(), which every membership
 * change and fault-clock advance calls.
 */
class SyncPricer
{
  public:
    /** `param_bytes` is the payload per ring; `planning` runs the
     *  step in CG waves; `shuffle_s` is the per-epoch data shuffle. */
    SyncPricer(const collectives::CollectiveEngine &engine_in,
               const Mapping &mapping_in, const CommPlan &plan_in,
               double param_bytes, bool planning_in, double shuffle_s)
        : engine(engine_in), mapping(mapping_in), plan(plan_in),
          paramBytes(param_bytes), planning(planning_in),
          shuffleS(shuffle_s)
    {
    }

    /** A copy prices the same inputs from an empty memo. */
    SyncPricer(const SyncPricer &o)
        : SyncPricer(o.engine, o.mapping, o.plan, o.paramBytes,
                     o.planning, o.shuffleS)
    {
    }
    SyncPricer &operator=(const SyncPricer &) = delete;

    /** Intra-group sync seconds of one step across all groups. */
    double stepSeconds() const;

    /** Per-wave layout of stepSeconds(), in execution order. */
    const std::vector<double> &waveSeconds() const;

    /** Cross-group (per-epoch) aggregation seconds. */
    double epochSeconds() const;

    /** Leader-ring aggregation seconds over `leaders`: a flat ring on
     *  one rack, the three-tier hierarchy on a fleet. */
    double leaderAggregateSeconds(std::vector<sim::SocId> leaders) const;

    /** Per-resource attribution of one step's sync. */
    const sim::FlowCapture &stepCapture() const;

    /** Per-resource attribution of the leader aggregation. */
    const sim::FlowCapture &epochCapture() const;

    /** Drop every memoized price and capture. */
    void invalidate();

  private:
    /** Price one step's sync; behind the memo and the capture. */
    SyncSchedule priceStep() const;
    /** Leader aggregation plus the slowest in-group broadcast. */
    double priceLeaders() const;
    void capture() const;

    const collectives::CollectiveEngine &engine;
    const Mapping &mapping;
    const CommPlan &plan;
    double paramBytes;
    bool planning;
    double shuffleS;

    // The memo (mutable: it caches const cost queries).
    mutable double stepS = -1.0;
    mutable double epochS = -1.0;
    mutable std::vector<double> waveS;
    mutable bool captured = false;
    mutable sim::FlowCapture stepCap;
    mutable sim::FlowCapture epochCap;
};

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_SYNC_PRICER_HH
