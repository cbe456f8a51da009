/**
 * @file
 * Cached metric handles of the SoCFlow trainer, shared by its source
 * files (registration takes the registry mutex; these lookups run
 * once).
 */

#ifndef SOCFLOW_CORE_SOCFLOW_METRICS_HH
#define SOCFLOW_CORE_SOCFLOW_METRICS_HH

#include "obs/metrics.hh"

namespace socflow {
namespace core {

struct TrainerMetrics {
    obs::Counter &steps = obs::metrics().counter("trainer_steps_total");
    obs::Counter &epochs = obs::metrics().counter("trainer_epochs_total");
    obs::Counter &preemptions =
        obs::metrics().counter("trainer_preemptions_total");
    obs::Counter &rebuilds =
        obs::metrics().counter("trainer_topology_rebuilds_total");
    obs::Counter &checkpointSaves =
        obs::metrics().counter("trainer_checkpoint_saves_total");
    obs::Counter &checkpointLoads =
        obs::metrics().counter("trainer_checkpoint_loads_total");
    obs::Counter &checkpointErrors =
        obs::metrics().counter("trainer_checkpoint_errors_total");
    obs::Counter &crashes = obs::metrics().counter("trainer_crashes_total");
    obs::Counter &waveResumes = obs::metrics().counter("wave_resume_total");
    obs::Counter &leaderElections =
        obs::metrics().counter("leader_elections_total");
    obs::Counter &syncFailures =
        obs::metrics().counter("trainer_sync_failures_total");
    obs::Counter &rejoins = obs::metrics().counter("rejoin_total");
    obs::Counter &pausedEpochs =
        obs::metrics().counter("trainer_paused_epochs_total");
    obs::Gauge &suspicionMax =
        obs::metrics().gauge("membership_suspicion_phi_max");
    obs::Gauge &alpha = obs::metrics().gauge("trainer_alpha");
    obs::Gauge &cpuFraction = obs::metrics().gauge("trainer_cpu_fraction");
    obs::Gauge &activeGroups = obs::metrics().gauge("trainer_active_groups");
    obs::Histogram &stepComputeS =
        obs::metrics().histogram("trainer_step_compute_seconds");
    obs::Histogram &stepSyncS =
        obs::metrics().histogram("trainer_step_sync_seconds");
    obs::Histogram &recoveryS =
        obs::metrics().histogram("fault_recovery_seconds");
    obs::TDigest &recoveryDigest =
        obs::metrics().tdigest("fault_recovery_seconds_digest");
    obs::TDigest &rejoinDigest =
        obs::metrics().tdigest("rejoin_seconds_digest");
    obs::TDigest &clusterDigest =
        obs::metrics().tdigest("collective_seconds_digest_cluster");
};

/** The process-wide handles, registered on first use. */
TrainerMetrics &trainerMetrics();

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_SOCFLOW_METRICS_HH
