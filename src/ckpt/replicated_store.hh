/**
 * @file
 * Replicated checkpoint store with quorum-read manifests.
 *
 * The durable half of whole-fleet crash-restart recovery (DESIGN.md
 * ch. 13). Each write seals the trainer's checkpoint blob into a
 * magic+checksum envelope and copies it to k failure-domain-spread
 * sites (ckpt/placement.hh), then publishes a generation-stamped
 * manifest next to every copy. Replica-write traffic is priced
 * through the cluster's FlowNetwork, so checkpointing contends
 * honestly with gradient sync for the same NICs and uplinks.
 *
 * The restore path is a quorum read: every surviving manifest is
 * validated (magic + FNV-1a checksum -- a torn or bit-flipped copy
 * is detected, counted, and discarded, never trusted), survivors
 * vote by generation (majority wins, ties to the newer generation,
 * so a torn newest write rolls back to the last acked one), and the
 * blob is fetched from the *nearest* intact replica of the winning
 * generation (same board beats same rack beats cross-rack). An acked
 * write -- a strict majority of the k sites durably updated -- can
 * therefore survive the destruction of any single rack at k >= 2:
 * placement guarantees the copies span racks, and the vote does not
 * need the dead one.
 *
 * Fault coupling: the injector's CheckpointFail budget fails
 * individual site writes -- copies land write-to-temp +
 * atomic-rename style, so a failed site keeps its previous
 * generation visible and the roll-back-to-last-acked promise holds
 * -- and the CkptReplicaLoss budget destroys durable copies at rest
 * outright. Both are drained at the store's read/write boundaries,
 * deterministically.
 */

#ifndef SOCFLOW_CKPT_REPLICATED_STORE_HH
#define SOCFLOW_CKPT_REPLICATED_STORE_HH

#include <cstdint>
#include <vector>

#include "ckpt/placement.hh"
#include "fault/fault.hh"
#include "membership/membership.hh"
#include "sim/cluster.hh"

namespace socflow {
namespace ckpt {

/** Store knobs. */
struct CkptStoreConfig {
    /** Replicas per checkpoint (k). 2 survives any one rack. */
    std::size_t replicas = 2;
    /** SoC whose checkpoint this store persists (placement anchor). */
    sim::SocId source = 0;
    /** Optional fault source: torn writes + replica destruction. */
    fault::FaultInjector *faults = nullptr;
};

/** Outcome of one replicated write. */
struct WriteReceipt {
    std::uint64_t generation = 0;
    std::uint64_t epoch = 0;
    /** FlowNetwork makespan of the replica fan-out, seconds. */
    double writeSeconds = 0.0;
    /** Sites whose data AND manifest were durably updated. */
    std::size_t replicasWritten = 0;
    /** True when a strict majority of the k sites was updated; only
     *  acked checkpoints are guaranteed restorable after any single
     *  failure domain is lost. */
    bool acked = false;
};

/** Outcome of one quorum-read restore. */
struct RestoreResult {
    std::vector<std::uint8_t> bytes;
    std::uint64_t generation = 0;
    std::uint64_t epoch = 0;
    /** Manifest quorum read + blob fetch makespan, seconds. */
    double restoreSeconds = 0.0;
    /** The replica the blob was fetched from (nearest intact). */
    sim::SocId replicaSoc = 0;
    /** Torn/corrupt manifest or data copies detected and discarded. */
    std::size_t tornCopies = 0;
};

/** core::sealEnvelope magic for replica data copies ("SFREPV1\0"). */
constexpr std::uint64_t kReplicaMagic = 0x5346524550563100ULL;
/** Envelope magic for manifest copies ("SFMANI1\0"). */
constexpr std::uint64_t kManifestMagic = 0x53464d414e493100ULL;

/**
 * One trainer's replicated checkpoint store over a simulated fleet.
 */
class ReplicatedCkptStore
{
  public:
    ReplicatedCkptStore(const sim::Cluster &cluster,
                        CkptStoreConfig config);

    /**
     * Replicate `blob` (an opaque trainer checkpoint) for `epoch`.
     * Bumps the store generation, fans the sealed copy out to the
     * planned sites, and publishes the new manifest at each site
     * that took the data. Pending injector faults are drained first.
     */
    WriteReceipt write(std::uint64_t epoch,
                       const std::vector<std::uint8_t> &blob);

    /**
     * Quorum-read restore toward `reader`: validate every surviving
     * manifest, vote by generation, fetch the blob from the nearest
     * intact replica of the winning generation. Throws
     * core::CheckpointError when no generation has both a readable
     * manifest and an intact data copy.
     */
    RestoreResult restore(sim::SocId reader);

    /** Destroy every durable copy hosted by `rack` (storage loss,
     *  not power loss -- powered-off copies come back; these don't). */
    void loseRack(sim::RackId rack);

    /** Destroy `n` replica copies, last placement site first.
     *  Returns how many existing copies were actually destroyed. */
    std::size_t loseReplicas(std::size_t n);

    /** The planned replica sites (placement order). */
    const std::vector<ReplicaSite> &placement() const { return sites; }

    /** Sites currently holding an intact, openable data copy. */
    std::size_t survivingCopies() const;

    /** Store generation of the newest write. */
    std::uint64_t generation() const { return gate.current(); }

    /** Raw stored bytes at site `i` (corruption-injection tests). */
    std::vector<std::uint8_t> &replicaData(std::size_t i);
    std::vector<std::uint8_t> &manifestData(std::size_t i);

  private:
    /** Durable state of one replica site. */
    struct Cell {
        ReplicaSite site;
        std::vector<std::uint8_t> data;     //!< sealed blob copy
        std::vector<std::uint8_t> manifest; //!< sealed manifest copy
    };

    /** Apply pending injector replica destruction. */
    void drainFaultBudget();

    const sim::Cluster &cluster;
    CkptStoreConfig cfg;
    std::vector<ReplicaSite> sites;
    std::vector<Cell> cells;
    membership::GenerationGate gate;
};

} // namespace ckpt
} // namespace socflow

#endif // SOCFLOW_CKPT_REPLICATED_STORE_HH
