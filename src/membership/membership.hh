/**
 * @file
 * Partition-tolerant group membership for harvested training.
 *
 * The fault injector (fault/fault.hh) *announces* crashes; a real
 * SoC-Cluster has to *detect* them itself, survive board-level
 * network partitions (5 SoCs share one PCB uplink), and fold
 * recovered SoCs back in without ever double-aggregating weights.
 * This module provides the three mechanisms the trainer composes:
 *
 *  - PhiAccrualDetector: heartbeat-driven failure detection on the
 *    *simulated* clock. Instead of a binary timeout it reports a
 *    suspicion level phi (Hayashibara et al.; the exponential
 *    inter-arrival variant Cassandra ships), so a straggler whose
 *    heartbeats merely slow down under NIC degrade raises phi
 *    gradually and adapts the window mean instead of being falsely
 *    declared dead. phi(t) = (t - t_last) / (mean * ln 10): phi = 1
 *    means a 10% chance the SoC is still alive under the fitted
 *    exponential model, phi = 8 means 10^-8. Detection latency is
 *    closed-form invertible: t_detect = threshold * mean * ln 10.
 *
 *  - GenerationGate: a monotonically increasing group generation,
 *    bumped on every membership change and carried in every
 *    collective and leader-ring message. A message stamped with a
 *    stale generation is *fenced* (rejected and counted): the healed
 *    minority side of a partition can therefore never commit weights
 *    into the majority's aggregation -- no split-brain
 *    double-aggregation, by construction.
 *
 *  - hasQuorum: the partition rule. The side holding a strict
 *    majority of the live SoCs trains on; the minority pauses and
 *    preserves its state for rejoin. An exact tie is won by the side
 *    containing the lowest live SoC id (a deterministic tiebreaker
 *    that needs no extra coordination). splitByReachability builds
 *    that side from the fault model, the one record of which SoCs
 *    are alive.
 *
 * DESIGN.md "Failure model" documents the partition/fencing/rejoin
 * state machine built on these pieces.
 */

#ifndef SOCFLOW_MEMBERSHIP_MEMBERSHIP_HH
#define SOCFLOW_MEMBERSHIP_MEMBERSHIP_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "fault/fault.hh"
#include "sim/cluster.hh"

namespace socflow {
namespace membership {

/** Knobs of the phi-accrual failure detector. */
struct PhiConfig {
    /** Suspicion level at which a SoC is declared failed. phi = 8
     *  corresponds to a 10^-8 false-positive probability under the
     *  exponential inter-arrival model. */
    double threshold = 8.0;
    /** Sliding window of inter-arrival intervals kept per SoC. */
    std::size_t windowSize = 32;
    /** Assumed mean interval before minSamples arrivals, seconds. */
    double bootstrapIntervalS = 1.0;
    /** Arrivals needed before the window mean replaces the bootstrap. */
    std::size_t minSamples = 3;
};

/**
 * Per-SoC heartbeat history and suspicion query. All times are
 * simulated seconds on the trainer's clock; the detector itself is
 * clock-agnostic and fully deterministic.
 */
class PhiAccrualDetector
{
  public:
    explicit PhiAccrualDetector(PhiConfig cfg = {});

    /** Record a heartbeat arrival from `soc` at `now_s`. */
    void heartbeat(sim::SocId soc, double now_s);

    /**
     * Suspicion level of `soc` at `now_s`: the negative log10 of the
     * probability that a heartbeat gap this long occurs while the SoC
     * is alive, under an exponential fit of its recent inter-arrival
     * times. 0 for a SoC that has never heartbeated (nothing is known,
     * nothing is suspected).
     */
    double phi(sim::SocId soc, double now_s) const;

    /** True when phi exceeds the configured threshold. */
    bool suspect(sim::SocId soc, double now_s) const;

    /** Fitted mean inter-arrival interval, seconds. */
    double meanIntervalS(sim::SocId soc) const;

    /**
     * Seconds after the last heartbeat at which phi crosses the
     * threshold: threshold * mean * ln 10. This is the detection
     * latency the trainer charges when a partition or crash is
     * confirmed -- it adapts to the observed heartbeat cadence, so
     * degraded-NIC epochs detect slower instead of detecting wrong.
     */
    double detectionLatencyS(sim::SocId soc) const;

    /** Drop all state for `soc` (it left the membership). */
    void forget(sim::SocId soc);

    /** SoCs with at least one recorded heartbeat. */
    std::size_t trackedSocs() const { return socs.size(); }

    const PhiConfig &config() const { return cfg; }

  private:
    struct State {
        double lastArrivalS = 0.0;
        /** Circular buffer of the last windowSize intervals. */
        std::vector<double> intervals;
        std::size_t next = 0;       //!< slot the next interval fills
        double intervalSum = 0.0;   //!< running sum of the buffer
        std::size_t samples = 0;    //!< intervals recorded (capped)
    };

    double meanOf(const State &st) const;

    PhiConfig cfg;
    std::map<sim::SocId, State> socs;
};

/**
 * Monotonic group generation with stale-message fencing. bump() on
 * every membership change; admit() on every arriving contribution.
 */
class GenerationGate
{
  public:
    /** Current generation (starts at 0). */
    std::uint64_t current() const { return gen; }

    /** Advance the generation (a membership change happened). */
    std::uint64_t bump();

    /**
     * Gate one arriving message stamped with `msg_generation`.
     * Returns true (admit) when the stamp is current; false (fence)
     * when stale, incrementing the fenced count and the
     * fenced_stale_msgs_total metric. A fenced contribution must
     * never be folded into an aggregation.
     */
    bool admit(std::uint64_t msg_generation);

    /** Messages fenced so far. */
    std::size_t fencedCount() const { return fenced; }

  private:
    std::uint64_t gen = 0;
    std::size_t fenced = 0;
};

/**
 * Quorum rule: `side` (one partition's live SoCs) may continue
 * training iff it holds a strict majority of `total_live` SoCs, or
 * exactly half of them while containing `lowest_live` (the lowest
 * live SoC id overall -- the deterministic tiebreaker). The minority
 * side must pause and preserve state.
 */
bool hasQuorum(const std::vector<sim::SocId> &side,
               std::size_t total_live, sim::SocId lowest_live);

/** True when `faults` reports `soc` alive and its board reachable
 *  (always, without a fault model). */
bool usable(const fault::FaultModel *faults, const sim::Cluster &cluster,
            sim::SocId soc);

/** The live SoCs of a candidate set, split by board reachability. */
struct QuorumSplit {
    std::vector<sim::SocId> reachable, cut;
    /** hasQuorum for the reachable side; false with no live SoC. */
    bool quorum = false;
};

/** Split the `candidates` that `faults` reports alive by board
 *  reachability (candidate order kept) and apply the quorum rule to
 *  the reachable side, with the lowest live id as tiebreaker. */
QuorumSplit splitByReachability(const fault::FaultModel *faults,
                                const sim::Cluster &cluster,
                                const std::vector<sim::SocId> &candidates);

} // namespace membership
} // namespace socflow

#endif // SOCFLOW_MEMBERSHIP_MEMBERSHIP_HH
