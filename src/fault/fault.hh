/**
 * @file
 * Deterministic fault injection for harvested training.
 *
 * Co-located SoC-Clusters do not fail politely: user demand reclaims
 * a SoC mid-AllReduce (crash, no checkpoint), gaming traffic degrades
 * a board's shared NIC, thermal throttling turns a SoC into a
 * straggler, and checkpoint writes to the control plane fail. This
 * module schedules those events ahead of time -- a FaultPlan is a
 * sorted list of FaultSpecs, either hand-written or generated
 * deterministically from a seed -- and a FaultInjector replays the
 * plan against the training clock, exposing the resulting cluster
 * state (dead SoCs, degraded links, slow SoCs, pending checkpoint or
 * gradient-chunk corruption) to the collective engine, the trainer,
 * and the harvesting scheduler through the FaultModel interface.
 *
 * The clock is *step- and phase-granular*: a FaultPoint is
 * {epoch, step, phase} with phase running through the sub-step
 * timeline compute -> wave1 -> wave2 -> leaderRing -> checkpoint, so
 * a fault can land exactly where it hurts -- inside a CG-planned
 * communication wave holding partially-reduced chunks
 * (SocCrashMidWave), on a ring segment in flight (GradCorrupt), or
 * on a group leader during the cross-group delayed-aggregation ring
 * (LeaderCrash). Epoch-granular specs are the special case
 * {epoch, 0, Compute}, and the epoch-only advanceTo() overload is
 * kept for callers that do not track steps.
 *
 * Everything is seed-deterministic so a faulted run is exactly
 * reproducible (same seed => identical recovery timeline hash); see
 * DESIGN.md "Failure model" for which faults are survivable and what
 * state each recovery path preserves.
 */

#ifndef SOCFLOW_FAULT_FAULT_HH
#define SOCFLOW_FAULT_FAULT_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "sim/cluster.hh"

namespace socflow {
namespace fault {

/** The failure classes the injector can fire. */
enum class FaultKind {
    SocCrash,        //!< abrupt SoC loss, no checkpoint
    LinkDegrade,     //!< board NIC bandwidth multiplier for a window
    Straggler,       //!< SoC compute-rate multiplier for a window
    CheckpointFail,  //!< the next N checkpoint writes fail
    SocCrashMidWave, //!< ring member dies holding a partial chunk
    GradCorrupt,     //!< gradient chunks arrive bit-flipped/truncated
    LeaderCrash,     //!< group leader dies in the cross-group ring
    BoardPartition,  //!< one board's uplink cut: 5 SoCs unreachable
    SwitchPartition, //!< `count` adjacent boards cut (ToR port/cable)
    SocRejoin,       //!< a crashed SoC comes back and asks to rejoin
    PsServerCrash,   //!< a parameter-server shard host dies
    RackPowerLoss,   //!< whole rack (or fleet) loses power mid-epoch
    CkptReplicaLoss, //!< durable checkpoint replicas destroyed
    // New kinds go above: fault.cc sizes its per-kind counter table
    // by CkptReplicaLoss + 1.
};

/** Printable fault-kind name. */
const char *faultKindName(FaultKind k);

/**
 * Sub-step phases of the training timeline, in execution order.
 * Wave1/Wave2 are the CG-planned communication waves of one step
 * (plans that degenerate to a single wave treat Wave2 as a no-op
 * point); LeaderRing is the per-epoch cross-group delayed
 * aggregation; Checkpoint closes the epoch.
 */
enum class FaultPhase : std::uint8_t {
    Compute = 0,
    Wave1,
    Wave2,
    LeaderRing,
    Checkpoint,
};

/** Printable phase name. */
const char *faultPhaseName(FaultPhase p);

/**
 * One instant of the step/phase training clock. Ordered
 * lexicographically: epoch, then step within the epoch, then phase
 * within the step.
 */
struct FaultPoint {
    std::size_t epoch = 0;
    std::size_t step = 0;
    FaultPhase phase = FaultPhase::Compute;

    auto operator<=>(const FaultPoint &) const = default;

    /** The latest point inside `epoch` (its checkpoint phase). */
    static FaultPoint
    epochEnd(std::size_t epoch)
    {
        return {epoch, std::numeric_limits<std::size_t>::max(),
                FaultPhase::Checkpoint};
    }
};

/** One scheduled fault. */
struct FaultSpec {
    FaultKind kind = FaultKind::SocCrash;
    /** Fires when training reaches this epoch. */
    std::size_t epoch = 0;
    /** Step within the epoch (0 = epoch start). */
    std::size_t step = 0;
    /** Phase within the step (Compute = classic epoch granularity). */
    FaultPhase phase = FaultPhase::Compute;
    /** Target SoC (crash kinds, Straggler, GradCorrupt ring pick). */
    sim::SocId soc = 0;
    /** Target board (LinkDegrade, BoardPartition, SwitchPartition). */
    sim::BoardId board = 0;
    /** Rate multiplier in (0, 1] (LinkDegrade, Straggler). */
    double factor = 1.0;
    /** Window length in epochs (LinkDegrade, Straggler, partitions). */
    std::size_t durationEpochs = 1;
    /**
     * Failed writes (CheckpointFail) / corrupt chunks (GradCorrupt) /
     * boards cut (SwitchPartition: [board, board + count)).
     */
    std::size_t count = 1;
    /**
     * Fraction of the wave's ring rounds already acked when a
     * SocCrashMidWave fires; the recovery re-reduces only the
     * remaining (1 - progress) share on the survivor ring.
     */
    double progress = 0.5;

    /** The instant this spec fires at. */
    FaultPoint
    point() const
    {
        return {epoch, step, phase};
    }
};

/**
 * A rack cut: the SwitchPartition that severs one whole rack of a
 * fleet (DESIGN.md ch. 10) -- boards [rack * boards_per_rack,
 * (rack + 1) * boards_per_rack) lose their uplink for
 * `duration_epochs`. Handled by the ordinary quorum/park/heal path:
 * the cut rack's groups park, the majority re-maps, and the heal
 * sweep folds the rack back in with its stale traffic fenced.
 */
FaultSpec rackCut(sim::RackId rack, std::size_t boards_per_rack,
                  std::size_t epoch, std::size_t duration_epochs);

/** Knobs for the seed-driven plan generator. */
struct FaultPlanConfig {
    std::size_t horizonEpochs = 48;  //!< faults land in [1, horizon)
    std::size_t stepsPerEpoch = 8;   //!< step horizon for step picks
    std::size_t numSocs = 32;
    std::size_t socsPerBoard = 5;
    std::size_t crashes = 1;
    std::size_t linkDegrades = 1;
    std::size_t stragglers = 1;
    std::size_t checkpointFailures = 1;
    std::size_t midWaveCrashes = 0;  //!< SocCrashMidWave events
    std::size_t gradCorrupts = 0;    //!< GradCorrupt bursts
    std::size_t leaderCrashes = 0;   //!< LeaderCrash events
    std::size_t boardPartitions = 0; //!< BoardPartition windows
    std::size_t switchPartitions = 0; //!< SwitchPartition windows
    std::size_t rejoins = 0;         //!< SocRejoin events
    double linkFactor = 0.25;       //!< degraded NIC bandwidth share
    double stragglerFactor = 0.5;   //!< slowed SoC compute share
    std::size_t windowEpochs = 4;   //!< degrade/straggle window
    std::size_t checkpointFailBurst = 2;  //!< failed writes per event
    std::size_t gradCorruptBurst = 1;     //!< corrupt chunks per event
    std::size_t partitionWindowEpochs = 3; //!< partition heal horizon
    std::size_t switchPartitionBoards = 2; //!< boards per switch cut
    std::size_t rackCuts = 0;       //!< whole-rack cuts (fleet only)
    std::size_t boardsPerRack = 12; //!< rack width used by rackCuts
    /**
     * PsServerCrash events. Targets are drawn from the per-board
     * server SoCs of the sharded parameter server (the first SoC of
     * each of the first min(psShards, boards) boards), so the crash
     * always lands on a shard host. Zero events draw zero random
     * numbers, keeping existing seeded plans byte-identical.
     */
    std::size_t psServerCrashes = 0;
    /** Server-pool width used for PsServerCrash target picks. */
    std::size_t psShards = 8;
    /**
     * RackPowerLoss events: an entire rack (spec.board = rack id)
     * loses power mid-epoch. Volatile training state on the rack
     * dies; durable checkpoint replicas survive the power cycle.
     * When `count` >= the fleet's rack total the loss is fleet-wide
     * and the run can only continue by restoring from a durable
     * checkpoint. Zero events draw zero random numbers, keeping
     * existing seeded plans byte-identical.
     */
    std::size_t rackPowerLosses = 0;
    /** Racks taken down per RackPowerLoss event. */
    std::size_t rackPowerLossRacks = 1;
    /** Rack count used by rackPowerLosses target picks. */
    std::size_t numRacks = 1;
    /**
     * CkptReplicaLoss events: `ckptReplicaLossBurst` durable replica
     * copies are destroyed (disk loss, not power loss). The
     * replicated checkpoint store drains the budget at its next
     * read/write boundary. Zero events draw zero random numbers.
     */
    std::size_t ckptReplicaLosses = 0;
    /** Replica copies destroyed per CkptReplicaLoss event. */
    std::size_t ckptReplicaLossBurst = 1;
    std::uint64_t seed = 2024;
};

/**
 * An ordered fault schedule. Deterministic: the same config and seed
 * always produce the same plan.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Generate a plan from the config's seed (reproducible). */
    static FaultPlan random(const FaultPlanConfig &cfg);

    /** Insert one spec, keeping the firing-point ordering. */
    void add(const FaultSpec &spec);

    /** All specs, sorted by firing point (stable). */
    const std::vector<FaultSpec> &specs() const { return ordered; }

    /** Number of scheduled specs of one kind. */
    std::size_t countKind(FaultKind k) const;

  private:
    std::vector<FaultSpec> ordered;
};

/**
 * Read-side view of the injected cluster state, consulted on hot
 * paths by the collective engine and the trainer.
 */
class FaultModel
{
  public:
    virtual ~FaultModel() = default;

    /** False once the SoC has crashed. */
    virtual bool socAlive(sim::SocId soc) const = 0;

    /** Compute-rate multiplier in (0, 1]; 1 = healthy. */
    virtual double computeFactor(sim::SocId soc) const = 0;

    /** Board-NIC bandwidth multiplier in (0, 1]; 1 = healthy. */
    virtual double linkFactor(sim::BoardId board) const = 0;

    /**
     * False while the board's uplink is cut by an active
     * BoardPartition / SwitchPartition window. An unreachable board's
     * SoCs are alive (state intact, weights preserved) but cannot be
     * heard from -- the membership layer, not the fault layer, decides
     * which side of the cut keeps training.
     */
    virtual bool boardReachable(sim::BoardId) const { return true; }
};

/**
 * Replays a FaultPlan against the training clock and answers state
 * queries. The trainer advances the point clock at every phase
 * boundary (advanceTo(FaultPoint)); epoch-only callers use the
 * advanceTo(epoch) overload, which sweeps through the whole epoch.
 * The query side is cheap enough for per-step use.
 */
class FaultInjector : public FaultModel
{
  public:
    explicit FaultInjector(FaultPlan plan_in = {});

    /**
     * Fire every not-yet-fired spec with point <= `now` and expire
     * rate windows stale at now.epoch. Returns the newly fired specs
     * in plan order. All crash kinds (SocCrash, SocCrashMidWave,
     * LeaderCrash) mark their target dead at fire time; the caller
     * runs the matching recovery path.
     */
    std::vector<FaultSpec> advanceTo(const FaultPoint &now);

    /**
     * Epoch-granular sweep: fire everything scheduled anywhere inside
     * epochs <= `epoch` (equivalent to
     * advanceTo(FaultPoint::epochEnd(epoch))).
     */
    std::vector<FaultSpec> advanceTo(std::size_t epoch);

    bool socAlive(sim::SocId soc) const override;
    double computeFactor(sim::SocId soc) const override;
    double linkFactor(sim::BoardId board) const override;
    bool boardReachable(sim::BoardId board) const override;

    /**
     * Consume one pending checkpoint-write failure. Returns true when
     * the write the caller is about to do fails (the caller should
     * retry with backoff, which consumes further failures).
     */
    bool checkpointWriteFails();

    /** Failures still queued for future checkpoint writes. */
    std::size_t pendingCheckpointFailures() const
    {
        return ckptFailBudget;
    }

    /**
     * Consume one pending gradient-chunk corruption. Returns true
     * when the chunk transfer the caller is about to verify arrives
     * corrupted (CRC mismatch); retransmissions consume further
     * pending corruptions, so a burst longer than the retry budget
     * surfaces as a typed sync failure.
     */
    bool corruptNextChunk();

    /** Drain the whole pending corruption budget (for cost models). */
    std::size_t drainGradCorrupt();

    /** Corrupt chunks still queued. */
    std::size_t pendingGradCorrupt() const { return gradCorruptBudget; }

    /**
     * Drain the pending replica-loss budget (CkptReplicaLoss). The
     * replicated checkpoint store calls this at its read/write
     * boundaries and destroys that many durable replica copies,
     * newest placement first.
     */
    std::size_t drainReplicaLosses();

    /** Replica destructions still queued. */
    std::size_t pendingReplicaLosses() const
    {
        return replicaLossBudget;
    }

    /**
     * SoCs currently down (all crash kinds), in firing order; a
     * SocRejoin removes its target from this list.
     */
    const std::vector<sim::SocId> &crashedSocs() const
    {
        return crashed;
    }

    /** Specs fired so far. */
    std::size_t firedCount() const { return nextSpec; }

    /** The current clock position. */
    const FaultPoint &now() const { return clock; }

    /** The plan being replayed. */
    const FaultPlan &plan() const { return schedule; }

  private:
    /** A time-bounded rate-multiplier window. */
    struct Window {
        std::size_t untilEpoch = 0;  //!< active while epoch < until
        double factor = 1.0;
    };

    FaultPlan schedule;
    std::size_t nextSpec = 0;
    FaultPoint clock;
    std::set<sim::SocId> dead;
    std::vector<sim::SocId> crashed;
    std::multimap<sim::SocId, Window> slow;
    std::multimap<sim::BoardId, Window> degraded;
    std::multimap<sim::BoardId, Window> partitioned;
    std::size_t ckptFailBudget = 0;
    std::size_t gradCorruptBudget = 0;
    std::size_t replicaLossBudget = 0;
};

} // namespace fault
} // namespace socflow

#endif // SOCFLOW_FAULT_FAULT_HH
