/**
 * @file
 * Timed collective algorithms over the SoC-Cluster fabric.
 *
 * Each algorithm is expressed as a sequence of synchronized rounds;
 * every round is a set of concurrent point-to-point flows simulated
 * on the cluster's max-min fair network, plus a fixed round overhead
 * (barrier + transfer startup, calibrated in sim/cluster.hh). The
 * engine reports wall-clock, bytes on the wire, and round counts;
 * the numerical effect of the collectives is applied separately by
 * collectives/reduce.hh.
 *
 * Resilience: an optional fault model (fault/fault.hh) feeds the
 * engine dead SoCs and degraded board NICs. Degraded NICs inflate
 * every flow that crosses them; a sync whose ring contains a dead
 * SoC times out, retries under bounded exponential backoff, and
 * finally falls back to a degraded ring over the survivors
 * (ringAllReduceResilient). The retry/backoff envelope is the
 * SyncPolicy; DESIGN.md "Failure model" documents the contract.
 *
 * Chunk integrity: every ring segment carries a CRC32 tag per chunk
 * (the numerical verification lives in collectives/reduce.hh). A
 * corrupted chunk is detected at the receiver and re-requested from
 * the predecessor under the SyncPolicy backoff envelope
 * (ringAllReduceChecked); a burst outlasting the retry budget is a
 * *typed* failure (SyncError::CorruptRetryExhausted), never a silent
 * wrong sum. A member dying mid-wave leaves acked chunks valid, so
 * recovery re-runs only the un-acked rounds on the survivor ring
 * (resumeFromChunk) instead of restarting the AllReduce.
 */

#ifndef SOCFLOW_COLLECTIVES_ENGINE_HH
#define SOCFLOW_COLLECTIVES_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault.hh"
#include "sim/cluster.hh"

namespace socflow {
namespace collectives {

/** Cost summary of one collective operation. */
struct CommStats {
    double seconds = 0.0;
    double wireBytes = 0.0;
    std::size_t rounds = 0;

    CommStats &operator+=(const CommStats &o);
};

/**
 * One server endpoint's share of a (sharded) parameter-server
 * exchange: the fan-in it absorbed and when its last push/pull flow
 * drained, taken from the joint max-min solve (so cross-endpoint
 * contention on shared boards/switches is included).
 */
struct EndpointLoad {
    sim::SocId server = 0;
    /** Concurrent worker flows into this endpoint (incast degree). */
    std::size_t fanIn = 0;
    /** Push bytes received across the whole exchange. */
    double pushBytes = 0.0;
    /** Seconds until the last push into this endpoint drained. */
    double pushSeconds = 0.0;
    /** Seconds until the last pull out of this endpoint drained. */
    double pullSeconds = 0.0;
};

/** Result of a parameter-server exchange with per-endpoint detail. */
struct PsExchange {
    CommStats stats;
    /** Parallel to the servers argument. */
    std::vector<EndpointLoad> endpoints;
};

/** Timeout/retry envelope for one synchronization attempt. */
struct SyncPolicy {
    /** Stall charged per failed attempt before it is abandoned. */
    double timeoutS = 0.5;
    /** Retries after the first attempt before degrading the ring. */
    std::size_t maxRetries = 3;
    /** Backoff before the first retry; doubles per retry. */
    double backoffBaseS = 0.05;
    /** Backoff growth per retry. */
    double backoffMultiplier = 2.0;
    /** Backoff ceiling. */
    double backoffMaxS = 1.0;
};

/**
 * Typed failure of a fault-aware synchronization. Everything except
 * None means the sync did NOT complete and no result was applied;
 * callers must take an explicit recovery path (consensus restore,
 * deferred aggregation) rather than trusting partial data.
 */
enum class SyncError {
    None,                   //!< completed (possibly degraded)
    CorruptRetryExhausted,  //!< a chunk stayed corrupt past the budget
};

/** Printable SyncError name. */
const char *syncErrorName(SyncError e);

/** Result of one fault-aware synchronization. */
struct SyncOutcome {
    /** Total cost including timeouts, backoff, and the fallback. */
    CommStats stats;
    /** Retries charged on the broken ring (0 when the first try
     *  succeeded). */
    std::size_t retries = 0;
    /** True when the ring was shrunk to the survivor set. */
    bool degraded = false;
    /** Members that completed the operation. */
    std::vector<sim::SocId> survivors;

    // Chunk-level accounting (zero for the coarse-grained paths).
    /** Chunk transfers re-run on the survivor ring after a crash. */
    std::size_t chunksResumed = 0;
    /** Chunks re-requested from the predecessor after a CRC miss. */
    std::size_t chunksRetransmitted = 0;
    /** CRC mismatches observed (includes retransmitted ones). */
    std::size_t corruptDetected = 0;
    /**
     * Members fenced out for carrying a stale group generation
     * (ringAllReduceFenced); their contributions were rejected, never
     * folded into the reduction.
     */
    std::size_t fencedStale = 0;
    /** Typed failure; None when the sync completed. */
    SyncError error = SyncError::None;

    /** True when the sync completed and its result is usable. */
    bool ok() const { return error == SyncError::None; }
};

/**
 * Evaluates collective communication costs on a cluster.
 */
class CollectiveEngine
{
  public:
    explicit CollectiveEngine(const sim::Cluster &cluster);

    const sim::Cluster &cluster() const { return clusterRef; }

    /**
     * Attach a fault model (not owned; may be nullptr to detach).
     * Degraded-NIC factors then apply to every cost query, and
     * ringAllReduceResilient consults it for dead SoCs.
     */
    void setFaultModel(const fault::FaultModel *model)
    {
        faults = model;
    }

    /** The attached fault model, or nullptr. */
    const fault::FaultModel *faultModel() const { return faults; }

    /** Timeout/retry envelope used by ringAllReduceResilient. */
    void setSyncPolicy(const SyncPolicy &p) { policy = p; }
    const SyncPolicy &syncPolicy() const { return policy; }

    /**
     * Ring all-reduce over the given SoCs (reduce-scatter +
     * all-gather, 2(N-1) rounds of size/N chunks). A single-member
     * ring costs nothing. The full-ring case of ringAllReduceFrom.
     */
    CommStats ringAllReduce(const std::vector<sim::SocId> &ring,
                            double bytes) const;

    /**
     * Parameter-server exchange: every worker pushes `bytes` to the
     * server, then pulls `bytes` back (two incast/outcast rounds).
     * The server SoC is excluded from the workers automatically.
     * The stats of shardedParamServer with a single endpoint
     * (metrics record it as op=sharded_ps).
     */
    CommStats paramServer(const std::vector<sim::SocId> &workers,
                          sim::SocId server, double bytes) const;

    /**
     * Sharded parameter-server exchange: every worker pushes
     * `push_bytes[i]` to server i (its shard slice), then pulls
     * `pull_bytes[i]` back. Each phase is one joint max-min solve over
     * the union of all flows, so the per-endpoint incast *and* the
     * contention between endpoints sharing boards or switch fabric
     * are priced natively -- a single endpoint reproduces the
     * monolithic collapse, spreading the same bytes across per-board
     * endpoints demonstrably avoids it. Servers are excluded from the
     * worker set automatically; zero-byte endpoints carry no flows.
     *
     * With `replicate_to_next`, every server forwards its aggregate
     * push intake to the next server in the list (chain replication of
     * acked pushes, the sharded PS durability story); the replication
     * flows contend in the push phase.
     */
    PsExchange shardedParamServer(
        const std::vector<sim::SocId> &workers,
        const std::vector<sim::SocId> &servers,
        const std::vector<double> &push_bytes,
        const std::vector<double> &pull_bytes,
        bool replicate_to_next = false) const;

    /**
     * Binary-tree aggregate-and-broadcast rooted at nodes[0]:
     * ceil(log2 N) reduce levels up plus the same number of
     * broadcast levels down, full payload per hop.
     */
    CommStats treeAggregate(const std::vector<sim::SocId> &nodes,
                            double bytes) const;

    /** One-to-many broadcast (sequentially pipelined binary tree). */
    CommStats broadcast(sim::SocId root,
                        const std::vector<sim::SocId> &dests,
                        double bytes) const;

    /**
     * Several rings all-reducing *simultaneously* (the unplanned
     * case the CG scheduler avoids): per round, the union of every
     * ring's flows contends on the fabric. Rings shorter than the
     * longest simply finish early. Rounds with the same live rings
     * carry identical flows, so each distinct live set is solved once;
     * while a flow capture is armed every round is solved, so the
     * capture is charged per round.
     */
    CommStats concurrentRings(
        const std::vector<std::vector<sim::SocId>> &rings,
        double bytes) const;

    /**
     * Rack-hierarchical all-reduce over `members` (DESIGN.md ch. 10).
     * On a single-rack cluster -- or when every member shares one
     * rack -- this is exactly ringAllReduce over the members, so the
     * pre-fleet timing is preserved bit for bit. Otherwise it runs
     * three phases: (1) concurrent per-rack rings over each rack's
     * members reduce locally, (2) a cluster ring over one
     * representative per rack (the lowest member id in the rack)
     * crosses the core, and (3) each representative broadcasts the
     * fleet result back inside its rack; phase 3 charges the slowest
     * rack's broadcast since the racks fan out concurrently on
     * disjoint fabric.
     */
    CommStats hierarchicalAllReduce(
        const std::vector<sim::SocId> &members, double bytes) const;

    /**
     * Fault-aware ring all-reduce. With every member alive this is
     * exactly ringAllReduce. A ring containing dead members (per the
     * attached fault model, plus the optional `extra_dead` hint from
     * callers that track crashes themselves) first burns the full
     * SyncPolicy envelope -- each attempt stalls for the timeout,
     * then backs off exponentially -- and finally re-forms a
     * degraded ring over the survivors and completes there. A
     * survivor set of <= 1 member completes trivially after the
     * envelope.
     */
    SyncOutcome ringAllReduceResilient(
        const std::vector<sim::SocId> &ring, double bytes,
        const std::vector<sim::SocId> *extra_dead = nullptr) const;

    /**
     * Cost of ring rounds [first_round, 2(N-1)) only -- the tail of
     * an all-reduce whose earlier rounds are already acked. A
     * first_round at or past the last round costs nothing.
     */
    CommStats ringAllReduceFrom(const std::vector<sim::SocId> &ring,
                                double bytes,
                                std::size_t first_round) const;

    /**
     * Mid-wave crash recovery: a member of `ring` died after
     * `acked_rounds` of the in-flight all-reduce completed. The
     * acked chunks hold valid partial reductions (their CRC tags
     * verified on arrival), so only the remaining share is re-run on
     * the survivor ring: one detection timeout plus one backoff is
     * charged (membership is known, so no blind retries), then the
     * survivors resume from the equivalent round. Returns the
     * *additional* cost on top of the wave the caller already
     * charged. A survivor set of <= 1 completes trivially.
     */
    SyncOutcome resumeFromChunk(
        const std::vector<sim::SocId> &ring, double bytes,
        std::size_t acked_rounds,
        const std::vector<sim::SocId> *extra_dead = nullptr) const;

    /**
     * CRC-checked ring all-reduce: every chunk transfer is verified
     * at the receiver; `corrupt_chunks` pending corruption events
     * (from fault::FaultInjector::drainGradCorrupt) hit arriving
     * transfers adversarially -- each event corrupts the next
     * transfer of the afflicted chunk, including its retransmissions,
     * so a burst of b costs b retransmits when b <= maxRetries and
     * fails typed (SyncError::CorruptRetryExhausted) once the budget
     * is exhausted. Detected/retransmitted chunks are counted here
     * and in the grad_corrupt_detected_total /
     * chunks_retransmitted_total metrics.
     */
    SyncOutcome ringAllReduceChecked(
        const std::vector<sim::SocId> &ring, double bytes,
        std::size_t corrupt_chunks) const;

    /**
     * Generation-fenced ring all-reduce: every member's contribution
     * carries its group generation (`member_gen`, parallel to `ring`);
     * members stamped older than `current_gen` are fenced -- their
     * data is rejected before the reduction forms, counted in
     * fencedStale and the fenced_stale_msgs_total metric, and the
     * ring re-forms over the admitted members only. This is the
     * split-brain guard: a healed minority replaying pre-partition
     * traffic can never commit into the majority's aggregate. The
     * admitted ring then runs ringAllReduceResilient, so fencing and
     * crash tolerance compose.
     */
    SyncOutcome ringAllReduceFenced(
        const std::vector<sim::SocId> &ring, double bytes,
        const std::vector<std::uint64_t> &member_gen,
        std::uint64_t current_gen) const;

  private:
    /** Members of `ring` alive per the fault model and not listed in
     *  `extra_dead`, in ring order (the resilient and resume paths'
     *  shared survivor split). */
    std::vector<sim::SocId> survivorsOf(
        const std::vector<sim::SocId> &ring,
        const std::vector<sim::SocId> *extra_dead) const;

    /** One synchronized ring round's flow set. */
    std::vector<sim::FlowSpec> ringRoundFlows(
        const std::vector<sim::SocId> &ring, double chunk_bytes) const;

    /**
     * Point-to-point transfer spec with degraded-NIC inflation: an
     * inter-board flow crossing a degraded board NIC has its bytes
     * scaled by the inverse link factor (equivalent, at flow level,
     * to the NIC delivering that fraction of its bandwidth).
     */
    sim::FlowSpec transfer(sim::SocId src, sim::SocId dst,
                           double bytes) const;

    const sim::Cluster &clusterRef;
    const fault::FaultModel *faults = nullptr;
    SyncPolicy policy;
};

} // namespace collectives
} // namespace socflow

#endif // SOCFLOW_COLLECTIVES_ENGINE_HH
