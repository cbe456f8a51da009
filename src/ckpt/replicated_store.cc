#include "ckpt/replicated_store.hh"

#include <algorithm>
#include <cstring>
#include <map>

#include "core/checkpoint.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace socflow {
namespace ckpt {

namespace {

using core::getU64;
using core::putU64;

/** Manifest payload: [generation][epoch][blob checksum][k][k × soc]. */
std::vector<std::uint8_t>
buildManifest(std::uint64_t generation, std::uint64_t epoch,
              std::uint64_t blobChecksum,
              const std::vector<ReplicaSite> &sites)
{
    std::vector<std::uint8_t> p;
    p.reserve(8 * (4 + sites.size()));
    putU64(p, generation);
    putU64(p, epoch);
    putU64(p, blobChecksum);
    putU64(p, sites.size());
    for (const auto &s : sites)
        putU64(p, s.soc);
    return p;
}

/** Decoded manifest payload. */
struct Manifest {
    std::uint64_t generation = 0;
    std::uint64_t epoch = 0;
    std::uint64_t blobChecksum = 0;
    std::vector<sim::SocId> socs;
};

Manifest
parseManifest(const std::vector<std::uint8_t> &payload)
{
    if (payload.size() < 32)
        throw core::CheckpointError("manifest payload truncated");
    Manifest m;
    m.generation = getU64(payload, 0);
    m.epoch = getU64(payload, 8);
    m.blobChecksum = getU64(payload, 16);
    const std::uint64_t k = getU64(payload, 24);
    if (payload.size() != 32 + 8 * k)
        throw core::CheckpointError("manifest replica list malformed");
    for (std::uint64_t i = 0; i < k; ++i)
        m.socs.push_back(
            static_cast<sim::SocId>(getU64(payload, 32 + 8 * i)));
    return m;
}

} // namespace

ReplicatedCkptStore::ReplicatedCkptStore(const sim::Cluster &cluster_,
                                         CkptStoreConfig config)
    : cluster(cluster_), cfg(config)
{
    if (cfg.replicas == 0)
        fatal("checkpoint replication factor must be >= 1");
    sites = planPlacement(cluster, cfg.source, cfg.replicas);
    cells.reserve(sites.size());
    for (const auto &s : sites)
        cells.push_back(Cell{s, {}, {}});
    if (sites.size() < cfg.replicas)
        warn("checkpoint store: fleet yields only ", sites.size(),
             " distinct replica sites of ", cfg.replicas, " requested");
}

void
ReplicatedCkptStore::drainFaultBudget()
{
    if (cfg.faults == nullptr)
        return;
    const std::size_t pending = cfg.faults->drainReplicaLosses();
    if (pending > 0)
        loseReplicas(pending);
}

WriteReceipt
ReplicatedCkptStore::write(std::uint64_t epoch,
                           const std::vector<std::uint8_t> &blob)
{
    drainFaultBudget();

    WriteReceipt receipt;
    receipt.generation = gate.bump();
    receipt.epoch = epoch;

    const std::uint64_t blobSum = core::checkpointChecksum(blob);
    const std::vector<std::uint8_t> sealed =
        core::sealEnvelope(kReplicaMagic, blob);
    const std::vector<std::uint8_t> manifest = core::sealEnvelope(
        kManifestMagic,
        buildManifest(receipt.generation, epoch, blobSum, sites));

    static obs::Counter &written =
        obs::metrics().counter("ckpt_replica_writes_total");
    static obs::Counter &torn = obs::metrics().counter(
        "ckpt_replica_writes_total", {{"outcome", "torn"}});

    std::vector<sim::FlowSpec> flows;
    for (auto &cell : cells) {
        // An injected write failure at this site. Copies land
        // write-to-temp + atomic-rename style, so the failure leaves
        // the site's PREVIOUS generation intact -- the torn temp copy
        // never becomes visible. This is what lets a minority of
        // failed writes roll back to the last acked generation
        // instead of destroying it; at-rest corruption (bit rot,
        // replica loss) is what the envelope checksums catch.
        if (cfg.faults != nullptr && cfg.faults->checkpointWriteFails()) {
            torn.add();
            continue;
        }
        cell.data = sealed;
        cell.manifest = manifest;
        ++receipt.replicasWritten;
        written.add();
        if (cell.site.soc != cfg.source)
            flows.push_back(cluster.transfer(
                cfg.source, cell.site.soc,
                static_cast<double>(sealed.size())));
    }
    // The local copy costs one message latency (storage commit); the
    // remote fan-out is priced on the shared network like any other
    // traffic, so checkpointing contends with training for uplinks.
    receipt.writeSeconds = cluster.config().messageLatencyS +
                           cluster.network().makespan(flows);
    receipt.acked = receipt.replicasWritten >= sites.size() / 2 + 1;

    obs::tracer().recordInstant(
        receipt.acked ? "checkpoint replicated (acked)"
                      : "checkpoint replication below quorum",
        "ckpt", obs::kTrackControl, 0.0);
    return receipt;
}

RestoreResult
ReplicatedCkptStore::restore(sim::SocId reader)
{
    drainFaultBudget();

    RestoreResult result;
    std::vector<sim::FlowSpec> manifestFlows;

    // 1. Quorum read: validate every surviving manifest copy. Torn
    //    and bit-flipped copies fail the envelope checksum and are
    //    discarded -- they never vote.
    struct Candidate {
        Manifest manifest;
        std::size_t votes = 0;
    };
    std::map<std::uint64_t, Candidate> byGen;
    for (const auto &cell : cells) {
        if (cell.manifest.empty())
            continue;
        if (cell.site.soc != reader)
            manifestFlows.push_back(cluster.transfer(
                cell.site.soc, reader,
                static_cast<double>(cell.manifest.size())));
        try {
            Manifest m = parseManifest(
                core::openEnvelope(kManifestMagic, cell.manifest));
            auto [it, fresh] = byGen.try_emplace(m.generation);
            if (fresh)
                it->second.manifest = m;
            ++it->second.votes;
        } catch (const core::CheckpointError &) {
            ++result.tornCopies;
        }
    }
    if (byGen.empty())
        throw core::CheckpointError(
            "checkpoint restore: no readable manifest survives");

    // 2. Vote: most manifest copies wins; ties go to the newer
    //    generation. A torn newest write (minority of copies) loses
    //    to the last acked generation, which is the roll-back the
    //    ack contract promises.
    std::vector<const Candidate *> order;
    for (const auto &kv : byGen)
        order.push_back(&kv.second);
    std::sort(order.begin(), order.end(),
              [](const Candidate *a, const Candidate *b) {
                  if (a->votes != b->votes)
                      return a->votes > b->votes;
                  return a->manifest.generation > b->manifest.generation;
              });

    // 3. Fetch the blob from the nearest intact replica of the best
    //    restorable generation: same board beats same rack beats
    //    cross-rack, lowest SoC id breaks ties (determinism).
    for (const Candidate *cand : order) {
        const Manifest &m = cand->manifest;
        const Cell *best = nullptr;
        int bestClass = 3;
        std::vector<std::uint8_t> bestBlob;
        for (const auto &cell : cells) {
            if (cell.data.empty())
                continue;
            std::vector<std::uint8_t> blob;
            try {
                blob = core::openEnvelope(kReplicaMagic, cell.data);
            } catch (const core::CheckpointError &) {
                continue; // torn data copy; counted once below
            }
            if (core::checkpointChecksum(blob) != m.blobChecksum)
                continue; // intact copy of a *different* generation
            int cls = 2;
            if (cluster.sameBoard(cell.site.soc, reader))
                cls = 0;
            else if (cluster.sameRack(cell.site.soc, reader))
                cls = 1;
            if (cls < bestClass ||
                (best != nullptr && cls == bestClass &&
                 cell.site.soc < best->site.soc)) {
                bestClass = cls;
                best = &cell;
                bestBlob = std::move(blob);
            }
        }
        if (best == nullptr)
            continue; // manifest survives but no intact data copy
        result.bytes = std::move(bestBlob);
        result.generation = m.generation;
        result.epoch = m.epoch;
        result.replicaSoc = best->site.soc;
        std::vector<sim::FlowSpec> flows = manifestFlows;
        if (best->site.soc != reader)
            flows.push_back(cluster.transfer(
                best->site.soc, reader,
                static_cast<double>(best->data.size())));
        result.restoreSeconds = cluster.config().messageLatencyS +
                                cluster.network().makespan(flows);
        obs::metrics()
            .tdigest("ckpt_restore_seconds_digest")
            .observe(result.restoreSeconds);
        obs::tracer().recordInstant("checkpoint restored from replica",
                                    "ckpt", obs::kTrackControl, 0.0);
        return result;
    }
    throw core::CheckpointError(
        "checkpoint restore: no generation has an intact data replica");
}

void
ReplicatedCkptStore::loseRack(sim::RackId rack)
{
    std::size_t destroyed = 0;
    for (auto &cell : cells) {
        if (cell.site.rack != rack)
            continue;
        if (!cell.data.empty() || !cell.manifest.empty())
            ++destroyed;
        cell.data.clear();
        cell.manifest.clear();
    }
    if (destroyed > 0)
        warn("checkpoint store: rack ", rack, " loss destroyed ",
             destroyed, " replica site(s)");
}

std::size_t
ReplicatedCkptStore::loseReplicas(std::size_t n)
{
    std::size_t destroyed = 0;
    for (auto it = cells.rbegin(); it != cells.rend() && destroyed < n;
         ++it) {
        if (it->data.empty() && it->manifest.empty())
            continue;
        it->data.clear();
        it->manifest.clear();
        ++destroyed;
    }
    if (destroyed > 0)
        warn("checkpoint store: fault destroyed ", destroyed,
             " replica copy(ies)");
    return destroyed;
}

std::size_t
ReplicatedCkptStore::survivingCopies() const
{
    std::size_t n = 0;
    for (const auto &cell : cells) {
        if (core::envelopeIntact(kReplicaMagic, cell.data))
            ++n;
    }
    return n;
}

std::vector<std::uint8_t> &
ReplicatedCkptStore::replicaData(std::size_t i)
{
    if (i >= cells.size())
        fatal("replica index ", i, " out of range");
    return cells[i].data;
}

std::vector<std::uint8_t> &
ReplicatedCkptStore::manifestData(std::size_t i)
{
    if (i >= cells.size())
        fatal("manifest index ", i, " out of range");
    return cells[i].manifest;
}

} // namespace ckpt
} // namespace socflow
