/**
 * @file
 * Common result types, the training scaffold and the convergence loop
 * shared by SoCFlow and every baseline trainer.
 *
 * Each trainer advances one *epoch* of real SGD math per call and
 * reports the simulated wall-clock/energy that epoch would cost on
 * the SoC-Cluster (or GPU). The driver loop runs until a target test
 * accuracy or an epoch cap, mirroring the paper's time-to-accuracy
 * methodology.
 *
 * The scaffold every trainer builds on, so that all methods start
 * from the same weights and are scored the same way:
 *  - buildInitialModel(): the seeded initial model (or handed-in
 *    weights, e.g. for transfer learning);
 *  - clusterFor(): the cluster template sized to the run's SoCs;
 *  - testAccuracy() / chunkedAccuracy(): held-out accuracy,
 *    evaluated 256 samples at a time;
 *  - sim::EnergyMeter::fillIdle() (sim/energy.hh): idle energy for
 *    the SoC-seconds an epoch left unused;
 *  - StepTimeline and the profile*() helpers: one step's layout on
 *    the simulated timeline, for trace spans and profiler spans alike.
 */

#ifndef SOCFLOW_CORE_TRAIN_COMMON_HH
#define SOCFLOW_CORE_TRAIN_COMMON_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/mixed_precision.hh"
#include "data/dataset.hh"
#include "fault/fault.hh"
#include "nn/zoo.hh"
#include "obs/profiler.hh"
#include "sim/cluster.hh"

namespace socflow {
namespace core {

/** Everything measured for one training epoch. */
struct EpochRecord {
    std::size_t epoch = 0;
    double simSeconds = 0.0;      //!< simulated wall-clock
    double energyJoules = 0.0;    //!< simulated energy
    double computeSeconds = 0.0;  //!< gradient computation share
    double syncSeconds = 0.0;     //!< gradient/weight sync share
    double updateSeconds = 0.0;   //!< optimizer update share
    double trainLoss = 0.0;
    double trainAcc = 0.0;
    double testAcc = 0.0;         //!< filled by the driver loop

    // Fault-injection accounting (zero on fault-free epochs).
    std::size_t crashes = 0;      //!< SoC crashes recovered from
    double recoverySeconds = 0.0; //!< timeout/backoff/re-sync cost

    // Step-granular recovery paths (see DESIGN.md "Failure model").
    std::size_t waveResumes = 0;        //!< mid-wave chunk resumes
    std::size_t leaderElections = 0;    //!< leaders re-elected
    std::size_t gradCorruptDetected = 0;//!< CRC mismatches caught
    std::size_t chunksRetransmitted = 0;//!< chunks re-requested clean
    std::size_t syncFailures = 0;       //!< typed failures (dropped)

    // Membership churn (partitions, fencing, rejoin; see
    // membership/membership.hh).
    std::size_t partitions = 0;         //!< network cuts handled
    std::size_t rejoins = 0;            //!< SoCs folded back in
    std::size_t fencedStaleMsgs = 0;    //!< stale-generation rejects
    /**
     * True when no side of an active partition held quorum, so the
     * epoch trained nothing and preserved all state (distinct from a
     * failed epoch: nothing was lost, training resumes on heal).
     */
    bool paused = false;
    /**
     * True when a RackPowerLoss took the fleet down mid-epoch: the
     * epoch's volatile progress is gone and the trainer will not make
     * progress until restored from a durable checkpoint
     * (restoreAfterPowerLoss or a fresh trainer + loadCheckpoint).
     */
    bool powerLost = false;
};

/** Sample-weighted sums of an epoch's train loss and accuracy. */
struct TrainSums {
    double loss = 0.0, acc = 0.0;
    std::size_t samples = 0;

    void add(const nn::StepResult &r)
    {
        loss += r.loss * static_cast<double>(r.samples);
        acc += r.accuracy * static_cast<double>(r.samples);
        samples += r.samples;
    }
    /** The means into rec.trainLoss and rec.trainAcc (0 when empty). */
    void fill(EpochRecord &rec) const
    {
        rec.trainLoss = samples ? loss / samples : 0.0;
        rec.trainAcc = samples ? acc / samples : 0.0;
    }
};

/**
 * Count fired fault `s` into `rec` the way the trainers without a
 * recovery path of their own do (sharded PS, SSP): a crash costs one
 * sync timeout `timeout_s`, partitions and rejoins are counted.
 * @return true for a SocRejoin (the caller drops the SoC's snapshot).
 */
bool countFault(const fault::FaultSpec &s, EpochRecord &rec,
                double timeout_s);

/** A whole training run. */
struct TrainResult {
    std::string method;
    std::vector<EpochRecord> epochs;

    double totalSeconds() const;
    double totalEnergyJoules() const;
    double finalTestAcc() const;
    double bestTestAcc() const;

    /** Simulated seconds until test accuracy first reaches target;
     *  returns totalSeconds() when never reached. */
    double secondsToAccuracy(double target) const;

    /** Simulated joules until target; total when never reached. */
    double joulesToAccuracy(double target) const;

    /** True when the target accuracy was reached at any epoch. */
    bool reached(double target) const;
};

/**
 * Interface implemented by SoCFlow and all baselines.
 */
class DistTrainer
{
  public:
    virtual ~DistTrainer() = default;

    /** Run one epoch of real training; fills all but testAcc. */
    virtual EpochRecord runEpoch() = 0;

    /** Current accuracy on the held-out test set. */
    virtual double testAccuracy() = 0;

    /** Method name for reports ("PS", "RING", "Ours", ...). */
    virtual std::string methodName() const = 0;
};

/**
 * The model every trainer starts from: `family` initialized from
 * an Rng derived from `seed`, then overwritten with `*initial` when
 * given.
 */
nn::Model buildInitialModel(const std::string &family,
                            const nn::NetSpec &spec, std::uint64_t seed,
                            const std::vector<float> *initial);

/** `cluster_template` sized to `num_socs` SoCs. */
sim::ClusterConfig clusterFor(const sim::ClusterConfig &cluster_template,
                              std::size_t num_socs);

/** Correct answers among one chunk of test samples. */
using CorrectCounter = std::function<std::size_t(
    const tensor::Tensor &x, const std::vector<int> &y)>;

/**
 * Fraction of `test` answered correctly, gathered 256 samples at a
 * time; `correct` scores each chunk.
 */
double chunkedAccuracy(const data::Dataset &test,
                       const CorrectCounter &correct);

/** Fraction of `test` that `model` classifies correctly. */
double testAccuracy(nn::Model &model, const data::Dataset &test);

/**
 * Eq. 5 on one group's replicas, in place and tensor by tensor: each
 * FP32 tensor becomes mpc.mergeWeights(fp32, int8) and the INT8
 * replica copies it. Bit-identical to merging the flat parameter
 * vectors and setting both replicas from the result.
 */
void mergeReplicas(const MixedPrecisionController &mpc, nn::Model &fp32,
                   nn::Model &int8);

/**
 * One training step on the simulated timeline. Every group computes
 * at once (computeS is the slowest); the sync waves run after compute,
 * or beside it under overlap; the optimizer update comes last.
 * Seconds are unscaled: `f` maps them onto a timeline on which the
 * step starts at `t0`.
 */
struct StepTimeline {
    double computeS = 0.0;
    double syncS = 0.0;
    double updateS = 0.0;
    bool overlap = false;

    /** The update follows max(compute, sync) under overlap, their
     *  sum otherwise. */
    double wallS() const
    {
        return overlap ? std::max(computeS, syncS) + updateS
                       : computeS + syncS + updateS;
    }
    double syncStart(double t0, double f) const
    {
        return overlap ? t0 : t0 + computeS * f;
    }
    double updateStart(double t0, double f) const
    {
        return t0 + (wallS() - updateS) * f;
    }

    /** Lay `waves` end to end from syncStart(), calling
     *  fn(wave, start, seconds) for each; returns where they end. */
    template <class Fn>
    double forEachWave(const std::vector<double> &waves, double t0,
                       double f, Fn &&fn) const
    {
        double t = syncStart(t0, f);
        for (std::size_t w = 0; w < waves.size(); ++w) {
            fn(w, t, waves[w] * f);
            t += waves[w] * f;
        }
        return t;
    }
};

/** Profiler phases of a sync window: its first segment, the later
 *  ones, and the residual they leave short of the window. */
struct SyncPhases {
    obs::Phase first, later, residual;
};

/** Profiler spans of one slot's compute from `t0`: forward is the
 *  first third, backward the rest, then a stall until `slowest_s`
 *  (the slowest slot's compute). */
void profileCompute(std::size_t slot, double t0, double compute_s,
                    double slowest_s);

/**
 * Profiler spans and critical path of `tl` from `t0` on `slot`: the
 * `segments` tile the sync window (the residual guard absorbs
 * rounding and a mid-step re-price), then the update; under overlap
 * the longer of compute and sync binds and relieving it saves the
 * excess, without overlap both windows are fully critical; the
 * update is charged to the optimizer.
 */
void profileStep(const StepTimeline &tl, std::size_t slot, double t0,
                 double f, const std::vector<double> &segments,
                 const SyncPhases &phases);

/** Profiler span and critical-path charge of `seconds` of fault
 *  recovery (or of a pause) from `t0` on `slot`; nothing for no
 *  recovery. */
void profileRecovery(std::size_t slot, double t0, double seconds,
                     bool paused);

/** Hand `model`'s (layer name, parameter count) table to the profiler
 *  once: a no-op when `registered` is set, which it then sets. */
void registerProfilerLayers(nn::Model &model, bool &registered);

/**
 * Drive a trainer until `target_acc` is reached (checked every
 * epoch) or `max_epochs` elapse. target_acc <= 0 disables the early
 * stop. Also stops early when accuracy has clearly plateaued
 * (no improvement for `patience` epochs; 0 disables).
 */
TrainResult runTraining(DistTrainer &trainer, std::size_t max_epochs,
                        double target_acc = 0.0,
                        std::size_t patience = 0);

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_TRAIN_COMMON_HH
