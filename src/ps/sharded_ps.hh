/**
 * @file
 * Sharded parameter-server execution mode.
 *
 * The paper dismisses parameter servers because one server SoC
 * collapses under 31-way incast (§2.3; sim/cluster.hh calibrates the
 * 20.6 s VGG-11 exchange). This mode is the PS architecture "done
 * right" on a SoC-Cluster: parameters are hash-sharded across
 * per-board server SoCs (ps/shard_map.hh), every shard endpoint is a
 * first-class flow-network endpoint
 * (collectives::shardedParamServer), and workers run async pull/push
 * under a hard staleness bound -- a worker whose snapshot is older
 * than `staleness` steps blocks on a pull before computing, never
 * silently training on over-stale weights.
 *
 * Robustness is the headline:
 *  - a shard host crash or partition triggers generation-fenced
 *    failover: orphaned shards re-home onto survivors by rendezvous
 *    hash, pushes stamped with the old generation are fenced and
 *    counted, and the new owner restores shard state from its chain
 *    replica -- an acked push is never lost (only the shard's
 *    optimizer momentum slice resets; see DESIGN.md ch. 11 for the
 *    state-loss table);
 *  - pushes carry CRC32 tags; a corrupt arrival is retransmitted
 *    under the SyncPolicy backoff envelope and a burst outlasting the
 *    retry budget is a typed drop, never a silent wrong sum;
 *  - hot-shard rebalancing migrates ownership when the flow model
 *    shows one endpoint's board NIC saturated relative to its peers;
 *  - every recovery path is deterministic: same seed + fault plan
 *    gives an identical timelineHash() at any thread count.
 */

#ifndef SOCFLOW_PS_SHARDED_PS_HH
#define SOCFLOW_PS_SHARDED_PS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "collectives/engine.hh"
#include "core/train_common.hh"
#include "data/dataset.hh"
#include "fault/fault.hh"
#include "nn/sgd.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "ps/shard_map.hh"
#include "sim/calibration.hh"
#include "sim/cluster.hh"
#include "util/hash.hh"
#include "util/rng.hh"

namespace socflow {
namespace ps {

/** Knobs of the sharded parameter-server mode. */
struct ShardedPsConfig {
    std::string modelFamily = "mlp";
    std::size_t numSocs = 32;
    /** Shard count (`--ps-shards`); hosts are per-board SoCs. */
    std::size_t numShards = 8;
    /** Hard staleness bound (`--staleness`); 0 = synchronous. */
    std::size_t staleness = 4;
    std::size_t globalBatch = 32;
    nn::SgdConfig sgd;
    std::uint64_t seed = 42;
    sim::ClusterConfig clusterTemplate;
    /** RPC timeout/retry/backoff envelope for pushes. */
    collectives::SyncPolicy sync;
    /**
     * Each shard owner forwards its intake to the next server in the
     * pool; failover restores shard state from that replica, which is
     * what makes an acked push durable across a host crash.
     */
    bool chainReplication = true;
    /**
     * Migrate a shard off an endpoint whose push drain time exceeds
     * this multiple of the mean of the other endpoints (<= 0
     * disables).
     */
    double rebalanceFactor = 1.5;
};

/**
 * The sharded-PS trainer. Real SGD math (per-worker stale snapshots,
 * element-wise server-side momentum) plus the simulated cost of every
 * exchange, fault, and recovery on the SoC-Cluster.
 */
class ShardedPsTrainer : public core::DistTrainer
{
  public:
    ShardedPsTrainer(ShardedPsConfig config,
                     const data::DataBundle &bundle,
                     const std::vector<float> *initial = nullptr);

    /** Attach a fault injector (not owned; nullptr = fault-free). */
    void attachFaultInjector(fault::FaultInjector *inj);

    core::EpochRecord runEpoch() override;
    double testAccuracy() override;
    std::string methodName() const override { return "Sharded-PS"; }

    /** Deterministic recovery-timeline fingerprint. */
    std::uint64_t timelineHash() const { return timeline.value(); }

    /** Authoritative global weights (sum of all shard slices). */
    std::vector<float> globalWeights() const { return global; }

    const ShardMap &shardMap() const { return map; }
    std::size_t epochsDone() const { return epochIdx; }

    /** Configured staleness bound. */
    std::size_t staleness() const { return cfg.staleness; }

    /**
     * Largest snapshot age (steps since pull) any gradient was ever
     * computed against. The staleness bound is enforced before
     * compute, so this is <= staleness() by construction.
     */
    std::size_t maxSnapshotAgeAtCompute() const { return maxAgeSeen; }

    // --- robustness accounting (monotonic across epochs) ---
    std::size_t pushesAcked() const { return acked; }
    std::size_t pushesApplied() const { return applied; }
    std::size_t stalenessBlocks() const { return blocks; }
    std::size_t fencedPushes() const { return fenced; }
    std::size_t retransmitsTotal() const { return retransmits; }
    std::size_t syncFailuresTotal() const { return pushDrops; }
    std::size_t failoversTotal() const { return failovers; }
    std::size_t rebalancesTotal() const { return rebalances; }

  private:
    struct Worker {
        sim::SocId soc = 0;
        /** Stale snapshot gradients are computed against. */
        std::vector<float> snapshot;
        /** Local steps since the last pull. */
        std::size_t sincePull = 0;
        /** Shard-map generation the snapshot was pulled at. */
        std::uint64_t gen = 0;
    };

    /** Rebuild the active-worker rotation; true when quorum holds. */
    bool refreshMembership();
    /** Note fired faults: counters + timeline. */
    void noteFired(const std::vector<fault::FaultSpec> &fired,
                   core::EpochRecord &rec);
    /** Re-home orphans, restore replicas, zero momentum slices. */
    void runFailover(core::EpochRecord &rec);
    /** Element-wise SGD on the flat global vector. */
    void applyPush(const std::vector<float> &grads);
    /** End-of-epoch per-shard CRC digests -> gauges + timeline. */
    void digestShards();
    /**
     * Migrate one shard off a saturated endpoint (planned move).
     * @return the migration transfer seconds (0 without a move).
     */
    double maybeRebalance(const collectives::PsExchange &ex);
    /** Bytes of one flat parameter at paper scale. */
    double bytesPerParam();

    ShardedPsConfig cfg;
    const data::DataBundle &bundle;
    const sim::ModelProfile &profile;
    sim::Cluster cluster;
    collectives::CollectiveEngine engine;

    /** Scratch replica for gradients and test evaluation. */
    nn::Model model;
    /** Shard geometry + ownership (declared after model: it shards
     *  the model's actual flat parameter vector). */
    ShardMap map;
    /** Authoritative flat weights (the union of all shards). */
    std::vector<float> global;
    /** Flat momentum; a failed-over shard's slice resets to zero. */
    std::vector<float> velocity;
    double learningRate;

    std::vector<Worker> workers;
    /** Indices into `workers` of the usable rotation. */
    std::vector<std::size_t> active;

    fault::FaultInjector *faults = nullptr;
    Rng rng;
    Fnv1a64 timeline;
    std::size_t epochIdx = 0;
    /** Lazily-built per-shard digest gauges (stable label strings). */
    std::vector<obs::Gauge *> shardDigests;

    std::size_t acked = 0;
    std::size_t applied = 0;
    std::size_t blocks = 0;
    std::size_t fenced = 0;
    std::size_t retransmits = 0;
    std::size_t pushDrops = 0;
    std::size_t failovers = 0;
    std::size_t rebalances = 0;
    std::size_t maxAgeSeen = 0;
    /** Layer table pushed to the profiler (once per trainer). */
    bool profLayersRegistered = false;
};

} // namespace ps
} // namespace socflow

#endif // SOCFLOW_PS_SHARDED_PS_HH
