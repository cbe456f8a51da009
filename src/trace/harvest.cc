#include "trace/harvest.hh"

#include <algorithm>
#include <string_view>
#include <utility>

#include "ckpt/replicated_store.hh"
#include "core/checkpoint.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace socflow {
namespace trace {

namespace {

const char *
eventKindName(HarvestEvent::Kind k)
{
    switch (k) {
      case HarvestEvent::Kind::Train:
        return "train";
      case HarvestEvent::Kind::Preempt:
        return "preempt";
      case HarvestEvent::Kind::Suspend:
        return "suspend";
      case HarvestEvent::Kind::Resume:
        return "resume";
      case HarvestEvent::Kind::Crash:
        return "crash";
      case HarvestEvent::Kind::PowerLoss:
        return "power-loss";
      case HarvestEvent::Kind::Restore:
        return "restore";
    }
    panic("unknown harvest event kind");
}

obs::Counter &
eventCounter(HarvestEvent::Kind k)
{
    return obs::metrics().counter("harvest_events_total",
                                  {{"kind", eventKindName(k)}});
}

/**
 * The per-slot scheduling policy: compare idle capacity against the
 * job's needs, then train / preempt / suspend / resume. With a fault
 * injector attached, checkpoint writes may fail (retried with
 * exponential backoff) and epochs may report crash recoveries, which
 * surface as Crash timeline events.
 */
class HarvestDriver
{
  public:
    HarvestDriver(core::SoCFlowTrainer &trainer, std::size_t max_groups,
                  const TidalTrace &trace, const HarvestConfig &cfg)
        : trainer(trainer), maxGroups(max_groups), trace(trace),
          cfg(cfg),
          store(trainer.clusterModel(),
                {.replicas = cfg.ckptReplicas, .source = 0,
                 .faults = cfg.faults})
    {
        if (cfg.faults)
            trainer.attachFaultInjector(cfg.faults);
    }

    /** Process one trace slot; mutates the report. */
    void
    handleSlot(std::size_t slot)
    {
        const double hour = trace.slotHour(slot);
        if (hour < cfg.startHour)
            return;
        obs::ScopedSpan span(obs::tracer(), "harvest slot", "harvest");
        const std::size_t idle = trace.idleCount(slot);
        const std::size_t capacity = idle / cfg.socsPerGroup;
        const std::size_t want =
            std::min<std::size_t>(maxGroups, capacity);

        HarvestEvent ev;
        ev.hour = hour;
        ev.idleSocs = idle;

        if (want < cfg.minGroups) {
            if (running) {
                // Demand surge: checkpoint and give the SoCs back.
                ++report.suspensions;
                takeCheckpoint();
                running = false;
                ev.kind = HarvestEvent::Kind::Suspend;
                ev.activeGroups = 0;
                pushEvent(ev);
            }
            return;
        }

        if (!running) {
            running = true;
            trainer.setActiveGroups(want);
            ev.kind = HarvestEvent::Kind::Resume;
            ev.activeGroups = want;
            pushEvent(ev);
        } else if (want < trainer.activeGroups()) {
            // Partial preemption: shrink to the available capacity.
            ++report.preemptions;
            takeCheckpoint();
            trainer.setActiveGroups(want);
            ev.kind = HarvestEvent::Kind::Preempt;
            ev.activeGroups = want;
            pushEvent(ev);
        } else if (want > trainer.activeGroups()) {
            trainer.setActiveGroups(want);
        }

        // Train one epoch in this slot.
        const core::EpochRecord rec = trainer.runEpoch();
        absorb(rec);
        if (rec.powerLost) {
            handlePowerLoss(ev);
            return;
        }
        if (rec.paused) {
            // No partition side held quorum: nothing trained, nothing
            // lost. Counted as paused, NOT as a trained epoch and NOT
            // as a failure -- training resumes when the cut heals.
            ++report.pausedEpochs;
            return;
        }
        ++report.epochsTrained;
        report.trainingHours += rec.simSeconds / 3600.0;
        if (cfg.metricSeries && cfg.metricsSnapshotEvery > 0 &&
            report.epochsTrained % cfg.metricsSnapshotEvery == 0)
            cfg.metricSeries->snapshot(hour);

        if (rec.crashes > 0) {
            // The trainer already recovered (survivor re-map +
            // consensus restore); record the abrupt loss distinctly
            // from graceful preemption in the timeline.
            HarvestEvent crash = ev;
            crash.kind = HarvestEvent::Kind::Crash;
            crash.activeGroups = trainer.activeGroups();
            pushEvent(crash);
        }

        // Interval checkpointing bounds the RPO: at most N epochs of
        // work sit between the fleet and its last durable replica.
        if (cfg.ckptIntervalEpochs > 0 &&
            report.epochsTrained % cfg.ckptIntervalEpochs == 0)
            takeCheckpoint();

        ev.kind = HarvestEvent::Kind::Train;
        ev.activeGroups = trainer.activeGroups();
        pushEvent(ev);
    }

    /**
     * Fold one epoch record's fault/recovery counters into the report.
     * Every record counts the same way -- trained, paused or aborted by
     * a power loss -- so no recovery is dropped on any exit.
     */
    void
    absorb(const core::EpochRecord &rec)
    {
        report.crashRecoveries += rec.crashes;
        report.recoverySeconds += rec.recoverySeconds;
        report.waveResumes += rec.waveResumes;
        report.leaderElections += rec.leaderElections;
        report.gradCorruptDetected += rec.gradCorruptDetected;
        report.chunksRetransmitted += rec.chunksRetransmitted;
        report.syncFailures += rec.syncFailures;
        report.partitions += rec.partitions;
        report.rejoins += rec.rejoins;
        report.fencedStaleMsgs += rec.fencedStaleMsgs;
    }

    /**
     * A RackPowerLoss killed the fleet this slot (or it is still
     * dark from an earlier one): attempt a whole-fleet restart from
     * the nearest surviving replica. With no restorable replica --
     * none acked yet, or every copy destroyed -- the fleet stays dark
     * and the slot is counted as downtime; the restore is retried
     * next slot (the operator keeps trying).
     */
    void
    handlePowerLoss(HarvestEvent ev)
    {
        if (!down) {
            down = true;
            ++report.powerLosses;
            ev.kind = HarvestEvent::Kind::PowerLoss;
            ev.activeGroups = 0;
            pushEvent(ev);
        }
        try {
            ckpt::RestoreResult r = store.restore(0);
            report.lostWorkEpochs += trainer.restoreAfterPowerLoss(r.bytes);
            report.restoreSeconds += r.restoreSeconds;
            down = false;
            ev.kind = HarvestEvent::Kind::Restore;
            ev.activeGroups = trainer.activeGroups();
            pushEvent(ev);
            return;
        } catch (const core::CheckpointError &e) {
            warn("fleet restart blocked: ", e.what());
        }
        ++report.downSlots;
    }

    /** Finalize and return the report. */
    HarvestReport
    finish()
    {
        report.finalTestAcc = trainer.testAccuracy();
        report.timelineHash = trainer.timelineHash();
        return std::move(report);
    }

  private:
    void
    pushEvent(HarvestEvent ev)
    {
        eventCounter(ev.kind).add();
        report.timeline.push_back(ev);
    }

    /**
     * Replicate a checkpoint through the store, retrying failed
     * writes with bounded exponential backoff (cfg.checkpointBackoffS
     * doubling per attempt). One attempt fans the sealed blob out to
     * every planned site, and the injector's checkpointWriteFails()
     * tears one site copy per planned failure, so a failure burst
     * shorter than the retry budget resolves to an acked write. Only
     * an acked (majority-durable) write counts as taken. Exhausting
     * the budget loses the checkpoint (counted, training goes on:
     * the last acked generation remains the resume point).
     */
    void
    takeCheckpoint()
    {
        obs::ScopedSpan span(obs::tracer(), "checkpoint", "harvest");
        static auto &retries =
            obs::metrics().counter("checkpoint_retries_total");
        static auto &lost =
            obs::metrics().counter("checkpoints_lost_total");
        static auto &backoffH = obs::metrics().histogram(
            "checkpoint_backoff_seconds");

        // Nothing meaningful to persist while the fleet is dark: the
        // volatile state a checkpoint would capture is already gone.
        if (trainer.powerLost())
            return;

        const std::vector<std::uint8_t> bytes =
            trainer.saveCheckpoint();

        double backoff = cfg.checkpointBackoffS;
        for (std::size_t attempt = 0;; ++attempt) {
            const ckpt::WriteReceipt receipt =
                store.write(trainer.epochsDone(), bytes);
            report.replicaWrites += receipt.replicasWritten;
            if (receipt.acked) {
                ++report.checkpointsTaken;
                return;
            }
            if (attempt >= cfg.checkpointMaxRetries) {
                ++report.checkpointsLost;
                lost.add();
                warn("checkpoint lost after ", attempt + 1,
                     " failed writes");
                obs::flightRecorder().dumpPostMortem(
                    "checkpoint-retry-exhausted",
                    trainer.timelineHash());
                return;
            }
            ++report.checkpointRetries;
            retries.add();
            backoffH.observe(backoff);
            backoff *= 2.0;
        }
    }

    core::SoCFlowTrainer &trainer;
    std::size_t maxGroups;
    const TidalTrace &trace;
    HarvestConfig cfg;
    HarvestReport report;
    bool running = false;
    /** Fleet dark after a power loss, awaiting a durable restore. */
    bool down = false;
    /** Durable replicated store: the day's only checkpoint path. */
    ckpt::ReplicatedCkptStore store;
};

} // namespace

HarvestReport
runHarvestDay(core::SoCFlowTrainer &trainer,
              const core::SoCFlowConfig &trainer_cfg,
              const TidalTrace &trace, const HarvestConfig &cfg)
{
    HarvestDriver driver(trainer, trainer_cfg.numGroups, trace, cfg);
    for (std::size_t slot = 0; slot < trace.numSlots(); ++slot)
        driver.handleSlot(slot);
    return driver.finish();
}

} // namespace trace
} // namespace socflow
