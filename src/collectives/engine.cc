#include "collectives/engine.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace socflow {
namespace collectives {

namespace {

/**
 * Per-operation accounting: how often each collective is evaluated,
 * what it puts on the wire, and its cost distribution. References
 * are cached so the hot path is three atomic updates. Skipped while
 * a flow capture is armed (`captured`): attribution replays of
 * already-priced collectives must not double-count.
 */
void
recordCollective(const char *op, const CommStats &stats,
                 bool captured = false)
{
    if (captured)
        return;
    struct OpMetrics {
        obs::Counter &ops;
        obs::Counter &wireBytes;
        obs::Histogram &seconds;
        obs::TDigest &secondsDigest;
        explicit OpMetrics(const char *op_name)
            : ops(obs::metrics().counter("collective_ops_total",
                                         {{"op", op_name}})),
              wireBytes(obs::metrics().counter(
                  "collective_wire_bytes_total", {{"op", op_name}})),
              seconds(obs::metrics().histogram(
                  "collective_seconds", {{"op", op_name}})),
              secondsDigest(obs::metrics().tdigest(
                  "collective_seconds_digest", {{"op", op_name}}))
        {
        }
    };
    static OpMetrics ring("ring"), tree("tree"), bcast("broadcast"),
        concurrent("concurrent_rings"), hier("hierarchical"),
        shardedPs("sharded_ps");
    OpMetrics *m = nullptr;
    switch (op[0]) {
      case 'r':
        m = &ring;
        break;
      case 's':
        m = &shardedPs;
        break;
      case 't':
        m = &tree;
        break;
      case 'b':
        m = &bcast;
        break;
      case 'h':
        m = &hier;
        break;
      default:
        m = &concurrent;
        break;
    }
    m->ops.add(1.0);
    m->wireBytes.add(stats.wireBytes);
    m->seconds.observe(stats.seconds);
    m->secondsDigest.observe(stats.seconds);
}

/**
 * Chunk-integrity accounting shared by the checked and resume paths.
 */
struct ChunkMetrics {
    obs::Counter &corruptDetected;
    obs::Counter &retransmitted;
    obs::Counter &resumed;
    obs::Counter &syncFailures;
    ChunkMetrics()
        : corruptDetected(
              obs::metrics().counter("grad_corrupt_detected_total")),
          retransmitted(
              obs::metrics().counter("chunks_retransmitted_total")),
          resumed(obs::metrics().counter("chunks_resumed_total")),
          syncFailures(obs::metrics().counter(
              "collective_sync_failures_total",
              {{"reason", "corrupt_retry_exhausted"}}))
    {
    }
};

ChunkMetrics &
chunkMetrics()
{
    static ChunkMetrics m;
    return m;
}

} // namespace

std::vector<sim::SocId>
CollectiveEngine::survivorsOf(
    const std::vector<sim::SocId> &ring,
    const std::vector<sim::SocId> *extra_dead) const
{
    std::vector<sim::SocId> live;
    live.reserve(ring.size());
    for (sim::SocId s : ring) {
        const bool dead =
            (faults && !faults->socAlive(s)) ||
            (extra_dead && std::find(extra_dead->begin(),
                                     extra_dead->end(),
                                     s) != extra_dead->end());
        if (!dead)
            live.push_back(s);
    }
    return live;
}

const char *
syncErrorName(SyncError e)
{
    switch (e) {
      case SyncError::None:
        return "none";
      case SyncError::CorruptRetryExhausted:
        return "corrupt-retry-exhausted";
    }
    panic("unknown sync error");
}

CommStats &
CommStats::operator+=(const CommStats &o)
{
    seconds += o.seconds;
    wireBytes += o.wireBytes;
    rounds += o.rounds;
    return *this;
}

CollectiveEngine::CollectiveEngine(const sim::Cluster &cluster)
    : clusterRef(cluster)
{
}

sim::FlowSpec
CollectiveEngine::transfer(sim::SocId src, sim::SocId dst,
                           double bytes) const
{
    sim::FlowSpec f = clusterRef.transfer(src, dst, bytes);
    if (faults) {
        const sim::BoardId bs = clusterRef.board(src);
        const sim::BoardId bd = clusterRef.board(dst);
        if (bs != bd) {
            const double lf = std::min(faults->linkFactor(bs),
                                       faults->linkFactor(bd));
            if (lf > 0.0 && lf < 1.0)
                f.bytes /= lf;
        }
    }
    return f;
}

std::vector<sim::FlowSpec>
CollectiveEngine::ringRoundFlows(const std::vector<sim::SocId> &ring,
                                 double chunk_bytes) const
{
    std::vector<sim::FlowSpec> flows;
    flows.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
        const sim::SocId src = ring[i];
        const sim::SocId dst = ring[(i + 1) % ring.size()];
        flows.push_back(transfer(src, dst, chunk_bytes));
    }
    return flows;
}

CommStats
CollectiveEngine::ringAllReduce(const std::vector<sim::SocId> &ring,
                                double bytes) const
{
    return ringAllReduceFrom(ring, bytes, 0);
}

CommStats
CollectiveEngine::paramServer(const std::vector<sim::SocId> &workers,
                              sim::SocId server, double bytes) const
{
    return paramServerDetailed(workers, server, bytes).stats;
}

PsExchange
CollectiveEngine::paramServerDetailed(
    const std::vector<sim::SocId> &workers, sim::SocId server,
    double bytes) const
{
    return shardedParamServer(workers, {server}, {bytes}, {bytes},
                              false);
}

PsExchange
CollectiveEngine::shardedParamServer(
    const std::vector<sim::SocId> &workers,
    const std::vector<sim::SocId> &servers,
    const std::vector<double> &push_bytes,
    const std::vector<double> &pull_bytes,
    bool replicate_to_next) const
{
    PsExchange ex;
    const std::size_t nServers = servers.size();
    if (nServers == 0)
        return ex;
    if (push_bytes.size() != nServers ||
        pull_bytes.size() != nServers) {
        fatal("sharded param-server needs one push/pull payload per ",
              "server: ", push_bytes.size(), "/", pull_bytes.size(),
              " payloads for ", nServers, " servers");
    }

    ex.endpoints.resize(nServers);
    for (std::size_t s = 0; s < nServers; ++s)
        ex.endpoints[s].server = servers[s];

    std::vector<sim::SocId> clients;
    for (sim::SocId w : workers) {
        if (std::find(servers.begin(), servers.end(), w) ==
            servers.end())
            clients.push_back(w);
    }
    double totalPush = 0.0;
    double totalPull = 0.0;
    for (std::size_t s = 0; s < nServers; ++s) {
        totalPush += std::max(push_bytes[s], 0.0);
        totalPull += std::max(pull_bytes[s], 0.0);
    }
    if (clients.empty() || totalPush + totalPull <= 0.0)
        return ex;

    // Push phase. Client-major, server-minor flow order: a single
    // endpoint solves the monolithic exchange's flow list, and a
    // phase's span is the max of its flows' finish times -- exactly
    // FlowNetwork::makespan.
    std::vector<sim::FlowSpec> push;
    std::vector<std::size_t> owner;
    for (sim::SocId c : clients) {
        for (std::size_t s = 0; s < nServers; ++s) {
            if (push_bytes[s] <= 0.0)
                continue;
            push.push_back(transfer(c, servers[s], push_bytes[s]));
            owner.push_back(s);
        }
    }
    // Chain replication: each endpoint forwards its aggregate intake
    // to its successor inside the same max-min solve, so durability
    // traffic contends with the incast it protects. Replication flows
    // count toward the phase span but not toward any endpoint's drain
    // attribution (owner = nServers sentinel): EndpointLoad measures
    // client incast, the signal hot-shard rebalancing acts on.
    if (replicate_to_next && nServers > 1) {
        for (std::size_t s = 0; s < nServers; ++s) {
            const double agg = push_bytes[s] *
                               static_cast<double>(clients.size());
            if (agg <= 0.0)
                continue;
            push.push_back(transfer(servers[s],
                                    servers[(s + 1) % nServers], agg));
            owner.push_back(nServers);
        }
    }
    double pushSpan = 0.0;
    if (!push.empty()) {
        const auto res = clusterRef.network().simulate(push);
        for (std::size_t i = 0; i < res.size(); ++i) {
            pushSpan = std::max(pushSpan, res[i].finishS);
            if (owner[i] >= nServers)
                continue;
            EndpointLoad &ep = ex.endpoints[owner[i]];
            ep.pushSeconds = std::max(ep.pushSeconds, res[i].finishS);
        }
    }

    // Pull phase, same joint-solve treatment in the other direction.
    std::vector<sim::FlowSpec> pull;
    owner.clear();
    for (sim::SocId c : clients) {
        for (std::size_t s = 0; s < nServers; ++s) {
            if (pull_bytes[s] <= 0.0)
                continue;
            pull.push_back(transfer(servers[s], c, pull_bytes[s]));
            owner.push_back(s);
        }
    }
    double pullSpan = 0.0;
    if (!pull.empty()) {
        const auto res = clusterRef.network().simulate(pull);
        for (std::size_t i = 0; i < res.size(); ++i) {
            pullSpan = std::max(pullSpan, res[i].finishS);
            EndpointLoad &ep = ex.endpoints[owner[i]];
            ep.pullSeconds = std::max(ep.pullSeconds, res[i].finishS);
        }
    }

    for (std::size_t s = 0; s < nServers; ++s) {
        if (push_bytes[s] > 0.0) {
            ex.endpoints[s].fanIn = clients.size();
            ex.endpoints[s].pushBytes =
                push_bytes[s] * static_cast<double>(clients.size());
        }
    }

    const double overhead =
        clusterRef.roundOverheadS(clients.size() + nServers);
    ex.stats.seconds = pushSpan + overhead + pullSpan + overhead;
    ex.stats.wireBytes = static_cast<double>(clients.size()) *
                         (totalPush + totalPull);
    if (replicate_to_next && nServers > 1)
        ex.stats.wireBytes +=
            static_cast<double>(clients.size()) * totalPush;
    ex.stats.rounds = 2;
    recordCollective("sharded_ps", ex.stats, clusterRef.network().captureActive());
    return ex;
}

CommStats
CollectiveEngine::treeAggregate(const std::vector<sim::SocId> &nodes,
                                double bytes) const
{
    CommStats stats;
    const std::size_t n = nodes.size();
    if (n <= 1 || bytes <= 0.0)
        return stats;

    // Reduce levels: pair (i, i + stride) sends child -> parent.
    for (std::size_t stride = 1; stride < n; stride *= 2) {
        std::vector<sim::FlowSpec> flows;
        for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
            flows.push_back(
                transfer(nodes[i + stride], nodes[i], bytes));
        }
        if (flows.empty())
            continue;
        stats.seconds += clusterRef.network().makespan(flows) +
                         clusterRef.roundOverheadS(2 * flows.size());
        stats.wireBytes += bytes * static_cast<double>(flows.size());
        ++stats.rounds;
    }
    // Broadcast levels mirror the reduce levels, downward.
    std::vector<std::size_t> strides;
    for (std::size_t stride = 1; stride < n; stride *= 2)
        strides.push_back(stride);
    for (auto it = strides.rbegin(); it != strides.rend(); ++it) {
        std::vector<sim::FlowSpec> flows;
        for (std::size_t i = 0; i + *it < n; i += 2 * (*it)) {
            flows.push_back(
                transfer(nodes[i], nodes[i + *it], bytes));
        }
        if (flows.empty())
            continue;
        stats.seconds += clusterRef.network().makespan(flows) +
                         clusterRef.roundOverheadS(2 * flows.size());
        stats.wireBytes += bytes * static_cast<double>(flows.size());
        ++stats.rounds;
    }
    recordCollective("tree", stats, clusterRef.network().captureActive());
    return stats;
}

CommStats
CollectiveEngine::broadcast(sim::SocId root,
                            const std::vector<sim::SocId> &dests,
                            double bytes) const
{
    CommStats stats;
    std::vector<sim::SocId> nodes{root};
    for (sim::SocId d : dests)
        if (d != root)
            nodes.push_back(d);
    if (nodes.size() <= 1 || bytes <= 0.0)
        return stats;

    // Binary-tree broadcast: at each level every holder forwards to
    // one new node.
    std::size_t holders = 1;
    while (holders < nodes.size()) {
        std::vector<sim::FlowSpec> flows;
        const std::size_t sends =
            std::min(holders, nodes.size() - holders);
        for (std::size_t i = 0; i < sends; ++i) {
            flows.push_back(
                transfer(nodes[i], nodes[holders + i], bytes));
        }
        stats.seconds += clusterRef.network().makespan(flows) +
                         clusterRef.roundOverheadS(2 * sends);
        stats.wireBytes += bytes * static_cast<double>(sends);
        ++stats.rounds;
        holders += sends;
    }
    recordCollective("broadcast", stats, clusterRef.network().captureActive());
    return stats;
}

CommStats
CollectiveEngine::concurrentRings(
    const std::vector<std::vector<sim::SocId>> &rings, double bytes) const
{
    CommStats stats;
    std::size_t maxRounds = 0;
    std::size_t maxParticipants = 0;
    for (const auto &ring : rings) {
        if (ring.size() > 1) {
            maxRounds = std::max(maxRounds, 2 * (ring.size() - 1));
            maxParticipants = std::max(maxParticipants, ring.size());
        }
    }
    if (maxRounds == 0 || bytes <= 0.0)
        return stats;

    // Every round of one live-ring set carries identical flows, and
    // the set only shrinks as rings finish, so its size identifies it
    // and each distinct set is solved once. An armed capture must be
    // charged for every round, so while it is armed every round is
    // solved.
    const sim::FlowNetwork &net = clusterRef.network();
    std::size_t solvedLive = 0;
    double span = 0.0;
    for (std::size_t round = 0; round < maxRounds; ++round) {
        const auto isLive = [round](const std::vector<sim::SocId> &ring) {
            return ring.size() > 1 && round < 2 * (ring.size() - 1);
        };
        std::size_t live = 0;
        for (const auto &ring : rings) {
            if (!isLive(ring))
                continue;
            ++live;
            const double chunk =
                bytes / static_cast<double>(ring.size());
            stats.wireBytes +=
                chunk * static_cast<double>(ring.size());
        }
        if (live != solvedLive || net.captureActive()) {
            std::vector<sim::FlowSpec> flows;
            for (const auto &ring : rings) {
                if (!isLive(ring))
                    continue;
                auto ringFlows = ringRoundFlows(
                    ring, bytes / static_cast<double>(ring.size()));
                flows.insert(flows.end(), ringFlows.begin(),
                             ringFlows.end());
            }
            span = net.makespan(flows);
            solvedLive = live;
        }
        stats.seconds += span + clusterRef.roundOverheadS(maxParticipants);
        ++stats.rounds;
    }
    recordCollective("concurrent_rings", stats, clusterRef.network().captureActive());
    return stats;
}

CommStats
CollectiveEngine::hierarchicalAllReduce(
    const std::vector<sim::SocId> &members, double bytes) const
{
    CommStats stats;
    if (members.size() <= 1 || bytes <= 0.0)
        return stats;

    // Bucket the members by rack in ascending id order, so the rack
    // representative (front of each bucket) is the lowest member id
    // regardless of the caller's ordering.
    std::vector<sim::SocId> sorted(members);
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::vector<sim::SocId>> byRack(clusterRef.numRacks());
    for (sim::SocId m : sorted)
        byRack[clusterRef.rack(m)].push_back(m);
    std::size_t racksTouched = 0;
    for (const auto &r : byRack)
        if (!r.empty())
            ++racksTouched;
    if (racksTouched <= 1)
        return ringAllReduce(sorted, bytes);

    // Phase 1: every rack with >= 2 members reduces locally; the
    // rings run concurrently but touch disjoint rack fabric.
    std::vector<std::vector<sim::SocId>> rings;
    for (const auto &r : byRack)
        if (r.size() > 1)
            rings.push_back(r);
    if (!rings.empty())
        stats += concurrentRings(rings, bytes);

    // Phase 2: one representative per touched rack crosses the core.
    std::vector<sim::SocId> reps;
    for (const auto &r : byRack)
        if (!r.empty())
            reps.push_back(r.front());
    stats += ringAllReduce(reps, bytes);

    // Phase 3: representatives fan the fleet result back out inside
    // their racks. The broadcasts use disjoint fabric, so wall clock
    // is the slowest rack's; bytes accumulate across all of them.
    CommStats fanout;
    for (const auto &r : byRack) {
        if (r.size() <= 1)
            continue;
        const std::vector<sim::SocId> dests(r.begin() + 1, r.end());
        const CommStats b = broadcast(r.front(), dests, bytes);
        fanout.seconds = std::max(fanout.seconds, b.seconds);
        fanout.rounds = std::max(fanout.rounds, b.rounds);
        fanout.wireBytes += b.wireBytes;
    }
    stats += fanout;
    recordCollective("hierarchical", stats, clusterRef.network().captureActive());
    return stats;
}

CommStats
CollectiveEngine::ringAllReduceFrom(const std::vector<sim::SocId> &ring,
                                    double bytes,
                                    std::size_t first_round) const
{
    CommStats stats;
    const std::size_t n = ring.size();
    if (n <= 1 || bytes <= 0.0)
        return stats;
    const std::size_t totalRounds = 2 * (n - 1);
    if (first_round >= totalRounds)
        return stats;

    const double chunk = bytes / static_cast<double>(n);
    const std::size_t rounds = totalRounds - first_round;
    const double roundTime =
        clusterRef.network().makespan(ringRoundFlows(ring, chunk)) +
        clusterRef.roundOverheadS(n);

    stats.seconds = roundTime * static_cast<double>(rounds);
    stats.wireBytes =
        chunk * static_cast<double>(n) * static_cast<double>(rounds);
    stats.rounds = rounds;
    recordCollective("ring", stats, clusterRef.network().captureActive());
    return stats;
}

SyncOutcome
CollectiveEngine::resumeFromChunk(
    const std::vector<sim::SocId> &ring, double bytes,
    std::size_t acked_rounds,
    const std::vector<sim::SocId> *extra_dead) const
{
    SyncOutcome out;
    out.survivors = survivorsOf(ring, extra_dead);

    const std::size_t n = ring.size();
    if (n <= 1 || bytes <= 0.0)
        return out;
    const std::size_t totalRounds = 2 * (n - 1);
    out.chunksTotal = n * totalRounds;

    if (out.survivors.size() == ring.size()) {
        // Nobody died after all: just finish the in-flight rounds.
        out.stats = ringAllReduceFrom(ring, bytes, acked_rounds);
        return out;
    }

    // The successor of the dead member times out once waiting for its
    // chunk; membership is known from the fault model, so the
    // survivor ring re-forms after a single backoff -- no blind
    // retries (this is the latency the chunk resume saves over the
    // full envelope of ringAllReduceResilient).
    static obs::Counter &timeouts =
        obs::metrics().counter("collective_timeouts_total");
    out.attempts = 2;
    out.retries = 1;
    out.degraded = true;
    out.stats.seconds += policy.timeoutS + policy.backoffBaseS;
    timeouts.add(1.0);

    // Resume at the equivalent progress on the survivor ring: the
    // acked fraction of the payload is already reduced and its CRC
    // tags verified, so only the remaining rounds re-run.
    const std::size_t m = out.survivors.size();
    if (m > 1) {
        const std::size_t survRounds = 2 * (m - 1);
        const std::size_t resumeRound = std::min(
            survRounds,
            (acked_rounds * survRounds) / totalRounds);
        out.stats += ringAllReduceFrom(out.survivors, bytes,
                                       resumeRound);
        out.chunksResumed = m * (survRounds - resumeRound);
        chunkMetrics().resumed.add(
            static_cast<double>(out.chunksResumed));
    }
    return out;
}

SyncOutcome
CollectiveEngine::ringAllReduceChecked(
    const std::vector<sim::SocId> &ring, double bytes,
    std::size_t corrupt_chunks) const
{
    SyncOutcome out;
    out.survivors = ring;
    out.stats = ringAllReduce(ring, bytes);
    const std::size_t n = ring.size();
    if (n <= 1 || bytes <= 0.0)
        return out;
    out.chunksTotal = n * 2 * (n - 1);
    if (corrupt_chunks == 0)
        return out;

    ChunkMetrics &cm = chunkMetrics();
    // Adversarial burst model: every corruption event hits the next
    // arriving transfer of the same afflicted chunk, so the first
    // corrupted chunk absorbs the whole burst. b <= maxRetries
    // resolves after b retransmissions; anything longer exhausts the
    // budget and fails typed.
    out.corruptDetected = std::min(
        corrupt_chunks, policy.maxRetries + 1);
    const bool exhausted = corrupt_chunks > policy.maxRetries;
    out.chunksRetransmitted =
        exhausted ? policy.maxRetries : corrupt_chunks;
    cm.corruptDetected.add(static_cast<double>(out.corruptDetected));
    cm.retransmitted.add(
        static_cast<double>(out.chunksRetransmitted));

    // Each retransmission re-requests the chunk from the predecessor
    // on the afflicted segment and backs off per the SyncPolicy.
    const double chunk = bytes / static_cast<double>(n);
    const double hop =
        clusterRef.network().makespan(
            {transfer(ring[0], ring[1], chunk)}) +
        clusterRef.roundOverheadS(2);
    double backoff = policy.backoffBaseS;
    for (std::size_t r = 0; r < out.chunksRetransmitted; ++r) {
        out.stats.seconds += hop + backoff;
        out.stats.wireBytes += chunk;
        ++out.stats.rounds;
        backoff = std::min(backoff * policy.backoffMultiplier,
                           policy.backoffMaxS);
    }
    out.retries = out.chunksRetransmitted;
    out.attempts = 1 + out.retries;

    if (exhausted) {
        out.error = SyncError::CorruptRetryExhausted;
        cm.syncFailures.add(1.0);
    }
    return out;
}

SyncOutcome
CollectiveEngine::ringAllReduceResilient(
    const std::vector<sim::SocId> &ring, double bytes,
    const std::vector<sim::SocId> *extra_dead) const
{
    SyncOutcome out;
    out.survivors = survivorsOf(ring, extra_dead);

    if (out.survivors.size() == ring.size()) {
        out.stats = ringAllReduce(ring, bytes);
        return out;
    }

    // A dead member never answers: every attempt stalls for the full
    // timeout, then backs off before the retry. Crashes are permanent
    // at this granularity, so the envelope is always exhausted before
    // the ring is shrunk; timed-out attempts put no accounted bytes
    // on the wire (the partial chunks are discarded).
    static obs::Counter &timeouts =
        obs::metrics().counter("collective_timeouts_total");
    static obs::Counter &retries =
        obs::metrics().counter("collective_retries_total");
    static obs::Counter &degradedOps =
        obs::metrics().counter("collective_degraded_total");

    double backoff = policy.backoffBaseS;
    out.attempts = policy.maxRetries + 1;
    out.retries = policy.maxRetries;
    for (std::size_t a = 0; a <= policy.maxRetries; ++a) {
        out.stats.seconds += policy.timeoutS;
        if (a < policy.maxRetries) {
            out.stats.seconds += backoff;
            backoff = std::min(backoff * policy.backoffMultiplier,
                               policy.backoffMaxS);
        }
    }
    timeouts.add(static_cast<double>(out.attempts));
    retries.add(static_cast<double>(out.retries));
    degradedOps.add(1.0);

    out.degraded = true;
    out.stats += ringAllReduce(out.survivors, bytes);
    return out;
}

SyncOutcome
CollectiveEngine::ringAllReduceFenced(
    const std::vector<sim::SocId> &ring, double bytes,
    const std::vector<std::uint64_t> &member_gen,
    std::uint64_t current_gen) const
{
    if (member_gen.size() != ring.size())
        fatal("fenced all-reduce needs one generation stamp per ",
              "member: ", member_gen.size(), " stamps for ",
              ring.size(), " members");

    // Fence before the ring forms: a stale-generation contribution is
    // rejected at admission, so no partial reduction ever contains it.
    std::vector<sim::SocId> admitted;
    admitted.reserve(ring.size());
    std::size_t fenced = 0;
    for (std::size_t i = 0; i < ring.size(); ++i) {
        if (member_gen[i] >= current_gen)
            admitted.push_back(ring[i]);
        else
            ++fenced;
    }
    if (fenced > 0) {
        static obs::Counter &fencedMsgs =
            obs::metrics().counter("fenced_stale_msgs_total");
        fencedMsgs.add(static_cast<double>(fenced));
    }

    SyncOutcome out = ringAllReduceResilient(admitted, bytes);
    out.fencedStale = fenced;
    if (fenced > 0)
        out.degraded = true;
    return out;
}

} // namespace collectives
} // namespace socflow
