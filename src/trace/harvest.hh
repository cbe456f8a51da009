/**
 * @file
 * Co-location ("harvesting") scheduler.
 *
 * Drives a SoCFlow training job through a 24-hour tidal trace: while
 * enough SoCs are idle the job trains; when user demand returns, the
 * global scheduler checkpoints and preempts whole logical groups (the
 * paper's group-granular preemption keeps the remaining groups
 * converging); when demand recedes the job resumes from the
 * checkpoint. This is the workflow of Fig. 1.
 *
 * The scheduler distinguishes two ways of losing capacity:
 *
 *  - *graceful preemption* (Preempt/Suspend events): demand returns,
 *    a checkpoint is first written through the day's replicated
 *    store (ckpt::ReplicatedCkptStore) -- with bounded-backoff
 *    retries when an injected checkpoint-write failure tears a copy
 *    -- and the trainer keeps consensus weights and momentum;
 *  - *crash recovery* (Crash events): a fault-injected SoC dies
 *    abruptly mid-AllReduce with no checkpoint; the trainer burns
 *    the collective timeout/retry envelope, re-maps the survivor
 *    set, and restores the lost group from the leaders' consensus
 *    weights (momentum is lost). See DESIGN.md "Failure model".
 *
 * A RackPowerLoss takes the whole fleet down; the scheduler restarts
 * it from the store's quorum-read restore (DESIGN.md ch. 13).
 *
 * Faults are enabled by pointing HarvestConfig::faults at a
 * fault::FaultInjector; the scheduler attaches it to the trainer and
 * consumes its checkpoint-write failures. All decisions emit obs
 * metrics (harvest_events_total{kind=...}, checkpoint retry/loss
 * counters) and host-timeline spans.
 */

#ifndef SOCFLOW_TRACE_HARVEST_HH
#define SOCFLOW_TRACE_HARVEST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/socflow_trainer.hh"
#include "fault/fault.hh"
#include "trace/tidal.hh"

namespace socflow {

namespace obs {
class MetricSeriesWriter;
}

namespace trace {

/** Policy knobs of the harvesting scheduler. */
struct HarvestConfig {
    /** Idle SoCs required per active logical group. */
    std::size_t socsPerGroup = 4;
    /** Minimum groups worth keeping the job running. */
    std::size_t minGroups = 1;
    /** Hour of day training is allowed to start. */
    double startHour = 0.0;

    /**
     * Optional fault injector (not owned): SoC crashes, degraded
     * NICs, stragglers, checkpoint-write failures. Attached to the
     * trainer on construction of the driver.
     */
    fault::FaultInjector *faults = nullptr;
    /** Checkpoint-write retries before the checkpoint is lost. */
    std::size_t checkpointMaxRetries = 3;
    /** First checkpoint retry backoff, seconds (doubles per retry). */
    double checkpointBackoffS = 2.0;

    /**
     * Optional NDJSON time-series writer (not owned): when set and
     * metricsSnapshotEvery > 0, the driver appends one snapshot of
     * the process metrics registry every N trained epochs, stamped
     * with the simulated hour (the --metrics-interval flag).
     */
    obs::MetricSeriesWriter *metricSeries = nullptr;
    std::size_t metricsSnapshotEvery = 0;

    /**
     * Replication factor k of the day's ckpt::ReplicatedCkptStore
     * (--ckpt-replicas, >= 1). Every checkpoint is written through
     * it: each replica write is priced on the shared FlowNetwork, and
     * the store is what a whole-fleet restart after a RackPowerLoss
     * reads back. k = 1 keeps one copy on the source SoC (a power
     * cycle spares data at rest); k = 2 also survives the storage
     * loss of any single rack.
     */
    std::size_t ckptReplicas = 1;
    /**
     * Take an extra durable checkpoint every N trained epochs
     * (--ckpt-interval), bounding the recovery-point objective. 0 =
     * only event-driven checkpoints (preempt/suspend).
     */
    std::size_t ckptIntervalEpochs = 0;
};

/** One scheduler decision in the timeline. */
struct HarvestEvent {
    double hour = 0.0;
    std::size_t idleSocs = 0;
    std::size_t activeGroups = 0;
    enum class Kind {
        Train,
        Preempt,
        Suspend,
        Resume,
        Crash,
        PowerLoss, //!< rack power loss took the whole fleet down
        Restore    //!< fleet restarted from a durable replica
    } kind;
    double testAcc = 0.0;
};

/** Outcome of a harvested training day. */
struct HarvestReport {
    std::vector<HarvestEvent> timeline;
    std::size_t epochsTrained = 0;
    std::size_t preemptions = 0;
    std::size_t suspensions = 0;
    std::size_t checkpointsTaken = 0;
    double finalTestAcc = 0.0;
    double trainingHours = 0.0;  //!< simulated hours spent training

    // Fault/recovery accounting (zero on fault-free days). The
    // recovery counters below sum every epoch record of the day --
    // trained, quorum-paused and power-loss-aborted alike -- so
    // recoverySeconds covers every recovery path (crashes, corrupt
    // chunks, partition detection, rejoin catch-up), not only crashes.
    std::size_t crashRecoveries = 0;   //!< SoC crashes survived
    std::size_t checkpointRetries = 0; //!< failed writes retried
    std::size_t checkpointsLost = 0;   //!< retry budget exhausted
    double recoverySeconds = 0.0;      //!< fault-recovery sim time

    // Step-granular recovery paths (DESIGN.md "Failure model").
    std::size_t waveResumes = 0;         //!< mid-wave chunk resumes
    std::size_t leaderElections = 0;     //!< leaders re-elected
    std::size_t gradCorruptDetected = 0; //!< CRC mismatches caught
    std::size_t chunksRetransmitted = 0; //!< chunks re-requested
    std::size_t syncFailures = 0;        //!< typed failures (dropped)

    // Membership churn (partitions, fencing, rejoin; see
    // membership/membership.hh). Tidal SoC harvesting makes rejoin
    // traffic routine, not exceptional.
    std::size_t partitions = 0;       //!< network cuts handled
    std::size_t rejoins = 0;          //!< SoCs folded back in
    std::size_t fencedStaleMsgs = 0;  //!< stale-generation rejects
    /** Epochs where no partition side held quorum: the trainer
     *  paused and preserved state instead of training (distinct from
     *  epochsTrained AND from a failure -- nothing was lost). */
    std::size_t pausedEpochs = 0;

    // Whole-fleet power loss + durable restore.
    std::size_t powerLosses = 0;    //!< rack/fleet power-loss events
    std::size_t replicaWrites = 0;  //!< durable replica copies written
    std::size_t lostWorkEpochs = 0; //!< RPO: epochs re-trained after
                                    //!< restores (0 = no acked work
                                    //!< lost)
    double restoreSeconds = 0.0;    //!< quorum read + blob fetch time
    std::size_t downSlots = 0;      //!< slots skipped, fleet dark (no
                                    //!< restorable checkpoint)
    /** Deterministic digest of the trainer's fault/recovery timeline
     *  (same seeds => same hash; replay divergence is a bug). */
    std::uint64_t timelineHash = 0;
};

/**
 * Walk the trace hour by hour, training whenever capacity allows.
 * The trainer's group count adapts to the instantaneous idle SoC
 * count via checkpoint/preempt/resume; injected faults surface as
 * Crash events and checkpoint retries.
 */
HarvestReport runHarvestDay(core::SoCFlowTrainer &trainer,
                            const core::SoCFlowConfig &trainer_cfg,
                            const TidalTrace &trace,
                            const HarvestConfig &cfg);

} // namespace trace
} // namespace socflow

#endif // SOCFLOW_TRACE_HARVEST_HH
