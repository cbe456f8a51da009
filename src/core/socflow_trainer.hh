/**
 * @file
 * The SoCFlow distributed training engine.
 *
 * Combines every technique from the paper:
 *  - group-wise parallelism: N logical groups, SSGD (per-batch ring
 *    all-reduce) inside a group, delayed per-epoch weight averaging
 *    across groups via leader SoCs, with cross-group data shuffling;
 *  - integrity-greedy logical-to-physical mapping;
 *  - communication-group planning with compute/communication overlap;
 *  - data-parallel mixed-precision training (CPU FP32 + NPU INT8 per
 *    SoC, alpha/beta-controlled batch split, Eq. 5 weight merge);
 *  - underclocking-aware workload rebalancing;
 *  - checkpointing with group-granular preemption;
 *  - fault and membership recovery (DESIGN.md "Failure model"):
 *    faults arrive only through the attached injector, which is also
 *    the one record of which SoCs are dead. Crash, mid-wave and
 *    leader crash recovery on the {epoch, step, phase} fault clock,
 *    CRC-checked gradient chunks, phi-accrual failure detection, the
 *    partition quorum rule with generation fencing, and rejoin; every
 *    fired fault and recovery folds into a deterministic timeline
 *    hash (same seed => same hash).
 *
 * Sources: socflow_trainer.cc (boot, resize, checkpoints),
 * socflow_epoch.cc (the runEpoch phases), socflow_recovery.cc (fault
 * dispatch and recovery); membership::Roster makes every membership
 * edit, and sync_pricer.hh prices the syncs.
 *
 * The *math* (SGD, quantization, averaging) is executed for real on
 * scaled models; wall-clock and energy are those the calibrated
 * SoC-Cluster simulator attributes to the full-size workload.
 *
 * Within a logical group, synchronized SGD on identical replicas is
 * mathematically equivalent to one replica consuming the group batch,
 * so each group holds one FP32 replica plus one INT8 replica (the
 * per-SoC CPU/NPU pair); the simulator still charges compute and
 * network time for all member SoCs individually.
 */

#ifndef SOCFLOW_CORE_SOCFLOW_TRAINER_HH
#define SOCFLOW_CORE_SOCFLOW_TRAINER_HH

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "collectives/engine.hh"
#include "fault/fault.hh"
#include "membership/membership.hh"
#include "membership/roster.hh"
#include "core/comm_plan.hh"
#include "core/mapping.hh"
#include "core/mixed_precision.hh"
#include "core/sync_pricer.hh"
#include "core/train_common.hh"
#include "data/dataset.hh"
#include "nn/sgd.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "quant/int8_trainer.hh"
#include "sim/calibration.hh"
#include "sim/cluster.hh"
#include "sim/dvfs.hh"
#include "sim/energy.hh"
#include "util/hash.hh"

namespace socflow {
namespace core {

/** All knobs of the SoCFlow engine (defaults = the full system). */
struct SoCFlowConfig {
    std::string modelFamily = "vgg11";
    std::size_t numSocs = 32;
    std::size_t numGroups = 8;
    std::size_t groupBatch = 32;  //!< BS_g
    nn::SgdConfig sgd;
    quant::QuantConfig quant;

    // Ablation toggles (Fig. 13 / Fig. 14).
    MapStrategy mapping = MapStrategy::IntegrityGreedy;
    bool usePlanning = true;       //!< CG planning (vs all-at-once)
    bool useMixedPrecision = true; //!< CPU+NPU (vs CPU only)
    bool npuOnly = false;          //!< INT8 only (Ours-INT8)
    /** >= 0 fixes the CPU batch share (Ours-Half uses 0.5). */
    double fixedCpuFraction = -1.0;
    bool overlapCommCompute = true;

    // Operational features.
    bool dvfsEnabled = false;
    bool rebalanceUnderclock = true;
    sim::DvfsConfig dvfs;

    std::size_t validationSamples = 128;  //!< for alpha profiling
    std::uint64_t seed = 42;
    sim::ClusterConfig clusterTemplate;   //!< numSocs is overridden

    /** Timeout/retry/backoff envelope for fault-aware syncs; handed
     *  to the collective engine at construction. */
    collectives::SyncPolicy sync;

    /** Phi-accrual suspicion threshold for failure detection (8 =
     *  a 10^-8 false-positive probability; see membership.hh). */
    double phiThreshold = 8.0;
    /** Heartbeat inter-arrival window of the failure detector. */
    std::size_t phiWindow = 32;
};

/**
 * SoCFlow engine; one instance trains one model on one dataset.
 */
class SoCFlowTrainer : public DistTrainer
{
  public:
    /**
     * @param config engine configuration.
     * @param bundle dataset (train/test) to learn.
     * @param initial optional pre-trained weights (transfer
     *        learning); must match the built model's flat size.
     */
    SoCFlowTrainer(SoCFlowConfig config, const data::DataBundle &bundle,
                   const std::vector<float> *initial = nullptr);

    EpochRecord runEpoch() override;
    double testAccuracy() override;
    std::string methodName() const override { return "Ours"; }

    /** Current mixed-precision state (for the Fig. 14 ablation). */
    double alpha() const { return mpc.alpha(); }
    double beta() const { return mpc.beta(); }
    double cpuFraction() const;

    /** Conflict metric C of the active mapping. */
    std::size_t mappingConflictC() const;

    /** Number of communication groups the planner chose. */
    std::size_t numCommGroups() const { return plan.numCommGroups; }

    /** The memoized sync prices of the active groups. */
    const SyncPricer &syncPricer() const { return pricer; }

    /** Number of currently active logical groups. */
    std::size_t activeGroups() const { return roster.size(); }

    /**
     * Resize the active group set to `n` (1 <= n <= the configured
     * group count). Shrinking preempts trailing groups; growing
     * re-admits groups seeded from the current consensus weights
     * (the checkpoint/resume path of the harvesting scheduler).
     * Optimizer momentum is reset for re-admitted groups. A
     * re-admitted group takes only membership::usable SoCs (alive,
     * board reachable) that no holder holds; a logical group with
     * none is skipped (membership::Roster::regrow), and a regrow that
     * admits nothing changes nothing, the generation included.
     */
    void setActiveGroups(std::size_t n);

    /**
     * Attach a fault injector (not owned; nullptr detaches). It is the
     * only source of faults and the only record of which SoCs are
     * dead: each runEpoch() advances it along the fault clock and
     * dispatches what fired to the private recovery handlers below;
     * straggler windows slow the affected SoCs' compute, and degraded
     * NICs inflate sync costs via the collective engine.
     */
    void attachFaultInjector(fault::FaultInjector *injector);

    /** Leader (first member) of active group `g`. */
    sim::SocId groupLeader(std::size_t g) const;

    /** Members of active group `g` (leader first). */
    std::vector<sim::SocId> groupMembers(std::size_t g) const;

    /**
     * Current group generation (membership/membership.hh). Bumped on
     * every membership change -- partition handled, heal, rejoin,
     * elastic regrow -- and stamped on every cross-group aggregation;
     * stale-stamped contributions are fenced, never applied.
     */
    std::uint64_t generation() const { return gate.current(); }

    /** Stale-generation messages fenced so far (split-brain guard):
     *  gate rejections at the aggregation boundary plus engine-level
     *  fenced ring admissions during heal/rejoin. */
    std::size_t fencedStaleTotal() const { return fencedTotal; }

    /**
     * True while no partition side holds quorum: every group is
     * paused in place (state preserved, nothing trains) until heal.
     */
    bool quorumPaused() const { return roster.quorumLost(); }

    /** Groups paused on the minority side of an active partition. */
    std::size_t pausedGroupCount() const { return roster.parked().size(); }

    /** FP32 weights of paused group `i` (state-preservation tests). */
    std::vector<float> pausedGroupWeights(std::size_t i) const;

    /** The phi-accrual failure detector fed by per-step heartbeats. */
    const membership::PhiAccrualDetector &failureDetector() const
    {
        return detector;
    }

    /** Highest suspicion level any live SoC ever reached (a healthy
     *  or merely-straggling run stays below the phi threshold). */
    double peakSuspicion() const { return peakPhi; }

    /**
     * FNV-1a digest of every fired fault and recovery action so far
     * (kind, epoch/step/phase, victim, survivors, recovery cost).
     * Two trainers built from the same seeds produce identical
     * hashes; replay divergence is a bug (run_all.sh --chaos).
     */
    std::uint64_t timelineHash() const { return timeline.value(); }

    /** Serialize weights + training state to a byte buffer. */
    std::vector<std::uint8_t> saveCheckpoint() const;

    /**
     * Restore from a buffer produced by saveCheckpoint(). Throws
     * CheckpointError on truncated, oversized, wrong-magic,
     * bit-flipped (checksum) or wrong-model-size buffers; the
     * trainer state is untouched on failure.
     */
    void loadCheckpoint(const std::vector<std::uint8_t> &bytes);

    /**
     * True after a RackPowerLoss took the whole fleet down: no
     * further epoch makes progress (runEpoch returns immediately with
     * powerLost set) until restoreAfterPowerLoss() -- or a fresh
     * trainer + loadCheckpoint() -- brings the fleet back.
     */
    bool powerLost() const { return fleetDown; }

    /**
     * Whole-fleet crash-restart: rebuild every group from scratch over
     * the SoCs the fault model reports alive (power-cycled machines
     * boot with empty volatile state -- pauses, isolation, and
     * momentum are all gone; crashed SoCs stay out until a SocRejoin),
     * then restore weights/epoch/alpha from a durable checkpoint via
     * loadCheckpoint(), apply a cut still open at reboot as its
     * partition did (applyCut), and bump the membership generation
     * so any stale pre-outage traffic is fenced. Returns the epochs
     * of lost work (epochs trained after the checkpoint was taken --
     * the caller's RPO accounting). Throws CheckpointError -- with the
     * fleet still down -- when the bytes fail validation.
     */
    std::size_t restoreAfterPowerLoss(
        const std::vector<std::uint8_t> &bytes);

    /** The simulated cluster (checkpoint replica placement/pricing). */
    const sim::Cluster &clusterModel() const { return cluster; }

    /** Consensus (post-sync) weights of the global model. */
    std::vector<float> globalWeights() const;

    /** FP32 replica weights of active group `g` (for tests). */
    std::vector<float> groupWeights(std::size_t g) const;

    /** L2 norm of group `g`'s FP32 optimizer momentum (for tests). */
    double groupMomentumNorm(std::size_t g) const;

    /** Epochs completed so far. */
    std::size_t epochsDone() const { return epochCounter; }

  private:
    /** Per-logical-group replica state (its members are the roster's). */
    struct GroupState {
        nn::Model fp32;
        std::unique_ptr<nn::Sgd> sgd;
        nn::Model int8;
        std::unique_ptr<quant::Int8Trainer> int8Trainer;
        /** Membership generation this group last synced under. */
        std::uint64_t generation = 0;

        GroupState(const nn::Model &proto, const nn::SgdConfig &scfg,
                   const quant::QuantConfig &qcfg, std::uint64_t seed);

        /** Adopt consensus weights `w` on both replicas; momentum is
         *  lost (the restore every recovery path performs). */
        void restoreFrom(const std::vector<float> &w);
    };

    /** One group's share of a training step: its batch is
     *  shard[begin, end), the CPU half [begin, split) and the NPU half
     *  [split, end); the two halves fill rCpu and rNpu in parallel. */
    struct GroupStepOut {
        std::size_t begin = 0, split = 0, end = 0;
        nn::StepResult rCpu{}, rNpu{};
        double gSec = 0.0;
        bool ran = false;
    };

    /** Scratch state of one runEpoch shared by its phases: constants
     *  fixed at open, running sums, and the current step's timing. */
    struct EpochRun {
        bool tracing = false, profiling = false, overlap = false;
        double profT = 0.0; //!< profiler span clock (epoch-relative)
        double epochStartS = 0.0, fCpu = 0.0, updateS = 0.0;
        double f = 1.0; //!< dataset time scale (spans at paper scale)
        std::size_t steps = 0;
        std::vector<std::vector<std::size_t>> shards;
        std::vector<std::size_t> cursor;
        TrainSums train;
        double cpuSocS = 0.0, npuSocS = 0.0, commSocS = 0.0; //!< energy
        // The current step (written by runGroupStep, read by chargeStep).
        double stepSync = 0.0, t0 = 0.0, stepComputeS = 0.0;
        /** Wave layout of stepSync, snapshot before a wave-phase fault
         *  can re-price the topology. */
        std::vector<double> waves;
        std::vector<GroupStepOut> outs;
    };

    /** Per-step compute seconds for one group (slowest member SoC). */
    double groupComputeSeconds(const std::vector<sim::SocId> &socs,
                               double cpu_fraction) const;

    // runEpoch phases, in order. openEpoch returns false when the
    // epoch ends at open (fleet down, or paused without quorum);
    // runGroupStep returns false when power is lost mid-step.
    bool openEpoch(EpochRun &ep, EpochRecord &rec);
    bool runGroupStep(EpochRun &ep, std::size_t step);
    void chargeStep(EpochRun &ep, EpochRecord &rec, std::size_t step);
    void aggregateLeaders(EpochRun &ep, EpochRecord &rec);
    /** The one epoch close: drains the recovery tally into `rec` on
     *  every exit (trained, paused, power lost) and closes the
     *  profiler epoch; trained and paused epochs advance the epoch
     *  counter and the timeline. */
    void closeEpoch(EpochRun &ep, EpochRecord &rec);

    /** Profile alpha on the validation slice. */
    void profileAlpha();

    /** Mirror the groups into mapping, re-plan, drop the sync memo. */
    void rebuildTopology();

    /** Boot state shared by the constructor and restoreAfterPowerLoss:
     *  detector, mapping, plan and the roster's groups from the seeded
     *  prototype (membership::Roster::boot: the power-loss reset, then
     *  each configured group over its alive members). */
    void bootGroups(const std::vector<float> *initial);

    /** Bump the generation and stamp every active group current. */
    void bumpGeneration();

    // Recovery handlers (socflow_recovery.cc): dispatchFired calls
    // them for crashes the attached injector fired, which it already
    // records as dead. DESIGN.md "Failure model" has the costs.

    /** SocCrash / PsServerCrash: burn the sync envelope, degrade to the
     *  survivor ring, rebuild the dead SoC's group from consensus
     *  (momentum lost) and re-map the survivors; fatal on the last
     *  live SoC. */
    void handleCrash(sim::SocId soc);

    /** SocCrashMidWave: re-run only the un-acked tail of the in-flight
     *  AllReduce (`progress` of its rounds were acked) on the survivor
     *  ring; the group keeps weights and momentum while a member is
     *  left. */
    void handleMidWaveCrash(sim::SocId soc, double progress,
                            std::size_t step, std::size_t wave);

    /** LeaderCrash: elect the group's highest surviving id and re-form
     *  the leader ring; a group that dies with its leader is dropped
     *  with its in-flight aggregate. */
    void handleLeaderCrash(sim::SocId soc);

    /** React to a BoardPartition/SwitchPartition spec: charge the
     *  cut's detection and applyCut() the live membership's split. */
    void handlePartition(const fault::FaultSpec &spec);

    /** Membership edit of an open cut (handlePartition, and reboot
     *  under a cut): membership::Roster::applyCut, then the stripped
     *  SoCs leave the detector and, with quorum, the survivors are
     *  re-mapped. @return {groups parked, members isolated}. */
    std::pair<std::size_t, std::size_t>
    applyCut(const membership::QuorumSplit &split);

    /** React to a RackPowerLoss spec: mark the fleet down (volatile
     *  state is gone), mix the outage into the timeline, and dump a
     *  post-mortem. The epoch in flight aborts without closing. */
    void handleRackPowerLoss(const fault::FaultSpec &spec);

    /** Epoch-open heal sweep: resume paused groups whose boards are
     *  reachable again, fold isolated/rejoining SoCs back in, fence
     *  their stale replayed traffic, and re-map the live set. */
    void healMemberships();

    /** Rejoin one recovered SoC (SocRejoin or healed isolation):
     *  weight catch-up broadcast from its leader, then membership. */
    void rejoinSoc(sim::SocId soc);

    /** Re-map `live` onto the active groups (mapGroupsOnto; groups it
     *  cannot populate are dropped from the back) and rebuild the
     *  topology. */
    void remapOnto(const std::vector<sim::SocId> &live);

    /** remapOnto the live members and bump the generation. */
    void remapLiveMembership();

    /** Membership and Theorem 1/2 invariants (panics on violation):
     *  the roster's one-holder rule; with planning on, the conflict
     *  graph stays a union of chains (degree <= 2) and the CG
     *  schedule needs <= 2 waves. Checked where membership settles:
     *  after a fired batch, a heal, a resize or a restore. */
    void assertMembershipInvariants() const;

    /** Per-step heartbeat sweep: each live member's arrival lands at
     *  its own compute-rate-scaled offset; peak phi is sampled just
     *  before each arrival (the most suspicious instant). */
    void heartbeatSweep(double step_start_s, double step_compute_s);

    /** Advance the attached injector to `at` and dispatch what fired
     *  (no-op without an injector). */
    void advanceFaultClock(const fault::FaultPoint &at, std::size_t step);

    /** Dispatch specs fired by an injector advance to the matching
     *  recovery path (`step` labels trace spans / the timeline). */
    void dispatchFired(const std::vector<fault::FaultSpec> &fired,
                       std::size_t step);

    /** Crash preamble shared by the three crash handlers: stop
     *  watching `soc`, start its downtime clock, and -- when it
     *  belonged to an active group -- count the crash and mark
     *  `instant` on the timeline.
     *  @return the active group holding it, or roster.size() when
     *  none does. */
    std::size_t markCrashed(sim::SocId soc, std::string_view instant);

    /** Charge `seconds` of recovery: tally it, observe the recovery
     *  histogram and digest, record the `span` fault span, and
     *  advance the simulated clock past it. */
    void chargeRecovery(double seconds, std::string_view span,
                        std::initializer_list<obs::SpanArg> args);

    /** Wave-phase GradCorrupt: charge a CRC-checked ring sync on the
     *  afflicted group; on retry exhaustion drop the poisoned update
     *  (consensus restore) instead of applying it. */
    void chargeCorruptedWave(const fault::FaultSpec &spec,
                             std::size_t step);

    /** The group whose weights restore group `gi`. */
    std::size_t donorFor(std::size_t gi) const
    {
        return (gi == 0 && roster.size() > 1) ? 1 : 0;
    }

    /** Every active group's leader, in group order. */
    std::vector<sim::SocId> leaderRing() const;

    /** Rejoin catch-up: the first group's leader broadcasts the
     *  current weights and generation to `soc`, which joins that
     *  group (membership::Roster::join); `down_s` gets its time since
     *  it lost contact, which the rejoin digest observes (both
     *  untouched when it never lost contact).
     *  @return the broadcast seconds. */
    double catchUp(sim::SocId soc, double &down_s);

    SoCFlowConfig cfg;
    const data::DataBundle &bundle;
    const sim::ModelProfile &profile;
    sim::Cluster cluster;
    collectives::CollectiveEngine engine;
    sim::ComputeModel compute;
    sim::EnergyMeter meter;
    sim::UnderclockModel dvfs;

    Mapping fullMapping;  //!< as configured, before any preemption
    Mapping mapping;      //!< currently active groups
    CommPlan plan;
    SyncPricer pricer;    //!< prices mapping under plan
    MixedPrecisionController mpc;

    /**
     * Who holds each SoC: the active groups (with their replicas),
     * parked groups, the isolation queue and the quorum flag. It owns
     * each GroupState by pointer: the optimizer holds a reference to
     * its sibling model, so the object must never be moved.
     */
    membership::Roster<GroupState> roster;
    Rng rng;
    std::size_t epochCounter = 0;

    /** Optional fault source and the record of dead SoCs (not
     *  owned). */
    fault::FaultInjector *faults = nullptr;
    /** Phi-accrual failure detector on the simulated clock. */
    membership::PhiAccrualDetector detector;
    /** Group generation + stale-message fencing. */
    membership::GenerationGate gate;
    /** True after a RackPowerLoss killed the fleet; cleared only by
     *  restoreAfterPowerLoss(). */
    bool fleetDown = false;
    /** Highest phi any live SoC reached (false-positive guard). */
    double peakPhi = 0.0;
    /** Stale messages fenced so far (gate + engine admissions). */
    std::size_t fencedTotal = 0;
    /** fencedTotal already folded into earlier epoch records. */
    std::size_t fencedReported = 0;
    /** Cached per-group collective-latency sketches (leader fan-in);
     *  refreshed when the group count changes. */
    std::vector<obs::TDigest *> groupDigests;
    /** Recovery events since the last epoch record was cut (only its
     *  recovery fields are used). */
    EpochRecord tally;
    /** Deterministic digest of the fault/recovery timeline. */
    Fnv1a64 timeline;

    /** Layer table pushed to the profiler (once per trainer). */
    bool profLayersRegistered = false;
    /** Current epoch's accumulated per-resource usage (paper scale). */
    std::vector<sim::ResourceUsage> profEpochUse;

    /** Simulated-timeline cursor for trace spans (paper-scale s). */
    double simClockS = 0.0;
    /** Chrome track-name metadata emitted (redone on topo changes). */
    bool obsTracksNamed = false;
};

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_SOCFLOW_TRAINER_HH
