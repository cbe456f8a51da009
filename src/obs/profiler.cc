#include "obs/profiler.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace socflow {
namespace obs {

namespace {

const char *const kPhaseNames[kNumPhases] = {
    "forward",  "backward",          "update",  "wave1_sync",
    "wave2_sync", "hierarchical_sync", "ps_push", "ps_pull",
    "recovery", "paused",            "stall",
};

// Conservation tolerance: exclusive phase seconds must reproduce the
// epoch's wall seconds up to fp accumulation noise. Absolute floor
// covers near-zero epochs, relative bound covers long ones.
constexpr double kConsAbsTol = 1e-9;
constexpr double kConsRelTol = 1e-6;

void
appendDouble(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    out += buf;
}

/** Append `,"key":v` to a JSON object under construction. */
void
appendField(std::string &out, std::string_view key, double v)
{
    out += ",\"";
    out += key;
    out += "\":";
    appendDouble(out, v);
}

void
appendQuoted(std::string &out, std::string_view s)
{
    out += '"';
    appendJsonEscaped(out, s);
    out += '"';
}

/**
 * Sorted, disjoint interval list. subtractAndInsert() returns the
 * length of [s, e) not already covered, then merges the interval in.
 */
class Covered
{
  public:
    double
    subtractAndInsert(double s, double e)
    {
        double uncovered = e - s;
        // First interval whose end is past s.
        auto it = std::lower_bound(
            ivs.begin(), ivs.end(), s,
            [](const std::pair<double, double> &iv, double v) {
                return iv.second < v;
            });
        const std::size_t firstIdx =
            static_cast<std::size_t>(it - ivs.begin());
        for (auto j = it; j != ivs.end() && j->first < e; ++j) {
            const double lo = std::max(s, j->first);
            const double hi = std::min(e, j->second);
            if (hi > lo)
                uncovered -= hi - lo;
        }
        // Merge [s, e) with every overlapping/adjacent interval.
        double ns = s, ne = e;
        std::size_t lo = firstIdx, hi = firstIdx;
        while (hi < ivs.size() && ivs[hi].first <= ne) {
            ns = std::min(ns, ivs[hi].first);
            ne = std::max(ne, ivs[hi].second);
            ++hi;
        }
        if (lo == hi) {
            ivs.insert(ivs.begin() + static_cast<std::ptrdiff_t>(lo),
                       {ns, ne});
        } else {
            ivs[lo] = {ns, ne};
            ivs.erase(ivs.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                      ivs.begin() + static_cast<std::ptrdiff_t>(hi));
        }
        return std::max(0.0, uncovered);
    }

  private:
    std::vector<std::pair<double, double>> ivs;
};

} // namespace

const char *
phaseName(Phase p)
{
    const std::size_t i = static_cast<std::size_t>(p);
    SOCFLOW_ASSERT(i < kNumPhases, "bad phase");
    return kPhaseNames[i];
}

Profiler::Profiler()
{
    const char *env = std::getenv("SOCFLOW_PROFILE");
    if (env != nullptr &&
        (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0))
        on.store(false, std::memory_order_relaxed);
}

void
Profiler::setEnabled(bool enable) noexcept
{
    on.store(enable, std::memory_order_relaxed);
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    spans.clear();
    slotCount = 0;
    minSlotCount = 0;
    epochOpen = false;
    epochRes.clear();
    pendingCommCriticalS = 0.0;
    pendingCommReliefS = 0.0;
    epochs = 0;
    wallS = 0.0;
    std::fill(cumExclusive, cumExclusive + kNumPhases, 0.0);
    std::fill(cumInclusive, cumInclusive + kNumPhases, 0.0);
    computeWinS = 0.0;
    commWinS = 0.0;
    hiddenS = 0.0;
    conservationOk = true;
    worstConsErr = 0.0;
    lastTimelineHash = 0;
    layers.clear();
    cumRes.clear();
}

void
Profiler::registerLayers(
    const std::vector<std::pair<std::string, std::size_t>> &layer_params)
{
    std::lock_guard<std::mutex> lock(mu);
    layers.clear();
    double total = 0.0;
    for (const auto &lp : layer_params)
        total += static_cast<double>(lp.second);
    if (total <= 0.0)
        return;
    layers.reserve(layer_params.size());
    for (const auto &lp : layer_params) {
        LayerAcc acc;
        acc.name = lp.first;
        acc.weight = static_cast<double>(lp.second) / total;
        layers.push_back(std::move(acc));
    }
}

void
Profiler::beginEpoch(std::size_t slots)
{
    std::lock_guard<std::mutex> lock(mu);
    spans.clear();
    slotCount = slots;
    minSlotCount = slots;
    epochOpen = true;
    epochRes.clear();
    pendingCommCriticalS = 0.0;
    pendingCommReliefS = 0.0;
}

void
Profiler::noteSlotCount(std::size_t slots)
{
    std::lock_guard<std::mutex> lock(mu);
    if (epochOpen)
        minSlotCount = std::min(minSlotCount, slots);
}

void
Profiler::addSpan(std::size_t slot, Phase phase, double start_s,
                  double end_s)
{
    if (end_s <= start_s)
        return;
    std::lock_guard<std::mutex> lock(mu);
    if (!epochOpen)
        return;
    spans.push_back(Span{slot, phase, start_s, end_s});
}

void
Profiler::noteStepWindows(double compute_s, double sync_s,
                          bool overlapped)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!epochOpen)
        return;
    computeWinS += compute_s;
    commWinS += sync_s;
    const double hidden =
        overlapped ? std::min(compute_s, sync_s) : 0.0;
    hiddenS += hidden;
    if (layers.empty())
        return;
    // Gradients transfer in backward order: the last layer's bucket
    // is ready first and overlaps the most remaining compute.
    double commOff = 0.0;
    const double hideEnd = overlapped ? compute_s : 0.0;
    for (std::size_t i = layers.size(); i-- > 0;) {
        LayerAcc &l = layers[i];
        l.computeS += compute_s * l.weight;
        const double c = sync_s * l.weight;
        l.commS += c;
        const double lo = std::min(commOff, hideEnd);
        const double hi = std::min(commOff + c, hideEnd);
        if (hi > lo)
            l.hiddenS += hi - lo;
        commOff += c;
    }
}

void
Profiler::noteEpochComm(double sync_s)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!epochOpen)
        return;
    commWinS += sync_s;
    for (std::size_t i = layers.size(); i-- > 0;)
        layers[i].commS += sync_s * layers[i].weight;
}

void
Profiler::attributeCritical(const std::string &resource, double seconds,
                            double relief_s)
{
    if (seconds <= 0.0)
        return;
    std::lock_guard<std::mutex> lock(mu);
    ResourceAcc &acc = cumRes[resource];
    acc.criticalS += seconds;
    acc.reliefS += std::max(0.0, relief_s);
}

void
Profiler::attributeCommCritical(double seconds, double relief_s)
{
    if (seconds <= 0.0)
        return;
    std::lock_guard<std::mutex> lock(mu);
    pendingCommCriticalS += seconds;
    pendingCommReliefS += std::max(0.0, relief_s);
}

void
Profiler::noteResourceUsage(const std::string &name, double capacity_bps,
                            double busy_s, double bytes_through,
                            double binding_s)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!epochOpen)
        return;
    ResourceAcc &acc = epochRes[name];
    acc.capacityBps = capacity_bps;
    acc.busyS += busy_s;
    acc.bytes += bytes_through;
    acc.bindingS += binding_s;
}

void
Profiler::noteTimelineHash(std::uint64_t hash)
{
    std::lock_guard<std::mutex> lock(mu);
    lastTimelineHash = hash;
}

void
Profiler::foldSlot(std::vector<Span> &slot_spans,
                   double exclusive[kNumPhases])
{
    // Deterministic fold: sort by (phase priority, interval), so the
    // totals are independent of recording thread/order.
    std::sort(slot_spans.begin(), slot_spans.end(),
              [](const Span &a, const Span &b) {
                  if (a.phase != b.phase)
                      return a.phase < b.phase;
                  if (a.startS != b.startS)
                      return a.startS < b.startS;
                  return a.endS < b.endS;
              });
    Covered covered;
    for (const Span &s : slot_spans)
        exclusive[static_cast<std::size_t>(s.phase)] +=
            covered.subtractAndInsert(s.startS, s.endS);
}

void
Profiler::endEpoch(double wall_s)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!epochOpen)
        return;
    epochOpen = false;

    // Partition the ledger: per-slot spans plus the shared kAllSlots
    // spans, replicated into every surviving slot. Slots at or above
    // the minimum observed group count have incomplete ledgers
    // (groups shrank mid-epoch) and are dropped.
    const std::size_t slots = std::max<std::size_t>(1, minSlotCount);
    std::vector<std::vector<Span>> perSlot(slots);
    for (const Span &s : spans) {
        if (s.slot == kAllSlots) {
            for (std::size_t g = 0; g < slots; ++g)
                perSlot[g].push_back(s);
        } else if (s.slot < slots) {
            perSlot[s.slot].push_back(s);
        }
    }

    double meanExcl[kNumPhases] = {};
    double meanIncl[kNumPhases] = {};
    for (std::size_t g = 0; g < slots; ++g) {
        double excl[kNumPhases] = {};
        for (const Span &s : perSlot[g])
            meanIncl[static_cast<std::size_t>(s.phase)] +=
                s.endS - s.startS;
        foldSlot(perSlot[g], excl);
        double sum = 0.0;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            sum += excl[p];
            meanExcl[p] += excl[p];
        }
        const double err = std::fabs(sum - wall_s);
        const double rel =
            wall_s > 0.0 ? err / wall_s : err;
        worstConsErr = std::max(worstConsErr, rel);
        if (err > kConsAbsTol && rel > kConsRelTol)
            conservationOk = false;
    }
    const double inv = 1.0 / static_cast<double>(slots);
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        cumExclusive[p] += meanExcl[p] * inv;
        cumInclusive[p] += meanIncl[p] * inv;
    }
    wallS += wall_s;
    ++epochs;

    // Resolve comm-bound critical path: split across this epoch's
    // captured resources by how long each was the binding constraint.
    if (pendingCommCriticalS > 0.0) {
        double totalBinding = 0.0;
        for (const auto &kv : epochRes)
            totalBinding += kv.second.bindingS;
        if (totalBinding > 0.0) {
            for (const auto &kv : epochRes) {
                const double share = kv.second.bindingS / totalBinding;
                if (share <= 0.0)
                    continue;
                ResourceAcc &acc = cumRes[kv.first];
                acc.criticalS += pendingCommCriticalS * share;
                acc.reliefS += pendingCommReliefS * share;
            }
        } else {
            ResourceAcc &acc = cumRes["network"];
            acc.criticalS += pendingCommCriticalS;
            acc.reliefS += pendingCommReliefS;
        }
        pendingCommCriticalS = 0.0;
        pendingCommReliefS = 0.0;
    }
    for (const auto &kv : epochRes) {
        ResourceAcc &acc = cumRes[kv.first];
        acc.capacityBps = kv.second.capacityBps;
        acc.busyS += kv.second.busyS;
        acc.bytes += kv.second.bytes;
        acc.bindingS += kv.second.bindingS;
    }
    epochRes.clear();
    spans.clear();

    publishMetricsLocked();
}

void
Profiler::publishMetricsLocked()
{
    MetricsRegistry &m = metrics();
    const double inv = epochs > 0
                           ? 1.0 / static_cast<double>(epochs)
                           : 0.0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        // Per-epoch mean exclusive seconds feed the distribution.
        m.tdigest("phase_seconds_digest",
                  {{"phase", kPhaseNames[p]}})
            .observe(cumExclusive[p] * inv);
    }
    m.gauge("overlap_ratio")
        .set(commWinS > 0.0 ? hiddenS / commWinS : 0.0);
    double totalCritical = 0.0;
    for (const auto &kv : cumRes)
        totalCritical += kv.second.criticalS;
    for (const auto &kv : cumRes) {
        if (kv.second.criticalS > 0.0 && totalCritical > 0.0)
            m.gauge("critical_path_share", {{"resource", kv.first}})
                .set(kv.second.criticalS / totalCritical);
        if (kv.second.busyS > 0.0 && wallS > 0.0)
            m.gauge("flow_resource_utilization",
                    {{"resource", kv.first}})
                .set(kv.second.busyS / wallS);
    }
}

PerfReport
Profiler::report() const
{
    std::lock_guard<std::mutex> lock(mu);
    PerfReport r;
    r.epochs = epochs;
    r.wallSeconds = wallS;
    std::copy(cumExclusive, cumExclusive + kNumPhases,
              r.exclusiveSeconds);
    std::copy(cumInclusive, cumInclusive + kNumPhases,
              r.inclusiveSeconds);
    r.computeWindowSeconds = computeWinS;
    r.commWindowSeconds = commWinS;
    r.hiddenCommSeconds = hiddenS;
    r.overlapRatio = commWinS > 0.0 ? hiddenS / commWinS : 0.0;
    r.conservationOk = conservationOk;
    r.worstConservationError = worstConsErr;
    r.timelineHash = lastTimelineHash;
    r.layers.reserve(layers.size());
    for (const LayerAcc &l : layers) {
        PerfLayer pl;
        pl.name = l.name;
        pl.computeSeconds = l.computeS;
        pl.commSeconds = l.commS;
        pl.hiddenSeconds = l.hiddenS;
        r.layers.push_back(std::move(pl));
    }
    double totalCritical = 0.0;
    for (const auto &kv : cumRes)
        totalCritical += kv.second.criticalS;
    r.resources.reserve(cumRes.size());
    for (const auto &kv : cumRes) {
        const ResourceAcc &a = kv.second;
        PerfResource pr;
        pr.name = kv.first;
        pr.criticalSeconds = a.criticalS;
        pr.criticalShare =
            totalCritical > 0.0 ? a.criticalS / totalCritical : 0.0;
        pr.predictedBenefitSeconds = a.reliefS;
        pr.utilization = wallS > 0.0 ? a.busyS / wallS : 0.0;
        pr.busySeconds = a.busyS;
        pr.bytes = a.bytes;
        pr.bindingSeconds = a.bindingS;
        if (a.busyS > 0.0 && a.capacityBps > 0.0) {
            const double achieved = a.bytes / a.busyS;
            pr.headroom =
                std::max(0.0, 1.0 - achieved / a.capacityBps);
        }
        r.resources.push_back(std::move(pr));
    }
    std::sort(r.resources.begin(), r.resources.end(),
              [](const PerfResource &a, const PerfResource &b) {
                  if (a.criticalSeconds != b.criticalSeconds)
                      return a.criticalSeconds > b.criticalSeconds;
                  return a.name < b.name;
              });
    return r;
}

std::size_t
Profiler::epochsProfiled() const
{
    std::lock_guard<std::mutex> lock(mu);
    return epochs;
}

std::string
PerfReport::toJson() const
{
    std::string out;
    out.reserve(2048);
    out += "{\"epochs\":";
    appendDouble(out, static_cast<double>(epochs));
    appendField(out, "wall_seconds", wallSeconds);
    char hashBuf[24];
    std::snprintf(hashBuf, sizeof hashBuf, "%016llx",
                  static_cast<unsigned long long>(timelineHash));
    out += ",\"timeline_hash\":\"";
    out += hashBuf;
    out += "\",\"conservation_ok\":";
    out += conservationOk ? "true" : "false";
    appendField(out, "worst_conservation_error", worstConservationError);
    appendField(out, "overlap_ratio", overlapRatio);
    out += ",\"phases\":{";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        if (p)
            out += ',';
        appendQuoted(out, kPhaseNames[p]);
        out += ":{\"exclusive_seconds\":";
        appendDouble(out, exclusiveSeconds[p]);
        appendField(out, "inclusive_seconds", inclusiveSeconds[p]);
        out += '}';
    }
    out += "},\"step_windows\":{\"compute_seconds\":";
    appendDouble(out, computeWindowSeconds);
    appendField(out, "comm_seconds", commWindowSeconds);
    appendField(out, "hidden_comm_seconds", hiddenCommSeconds);
    out += "},\"layers\":[";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        if (i)
            out += ',';
        out += "{\"name\":";
        appendQuoted(out, layers[i].name);
        appendField(out, "compute_seconds", layers[i].computeSeconds);
        appendField(out, "comm_seconds", layers[i].commSeconds);
        appendField(out, "hidden_comm_seconds", layers[i].hiddenSeconds);
        appendField(out, "overlap_ratio", layers[i].overlapRatio());
        out += '}';
    }
    out += "],\"resources\":[";
    for (std::size_t i = 0; i < resources.size(); ++i) {
        const PerfResource &r = resources[i];
        if (i)
            out += ',';
        out += "{\"name\":";
        appendQuoted(out, r.name);
        appendField(out, "critical_path_seconds", r.criticalSeconds);
        appendField(out, "critical_path_share", r.criticalShare);
        appendField(out, "predicted_benefit_seconds",
                    r.predictedBenefitSeconds);
        appendField(out, "utilization", r.utilization);
        appendField(out, "headroom", r.headroom);
        appendField(out, "busy_seconds", r.busySeconds);
        appendField(out, "bytes", r.bytes);
        appendField(out, "binding_seconds", r.bindingSeconds);
        out += '}';
    }
    out += "]}";
    return out;
}

std::string
PerfReport::doctorSummary() const
{
    std::string out;
    char buf[256];
    out += "=== SoCFlow perf doctor ===\n";
    std::snprintf(buf, sizeof buf,
                  "profiled %zu epoch(s), %.6g simulated seconds\n",
                  epochs, wallSeconds);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "conservation: %s (worst relative error %.3g)\n",
                  conservationOk ? "OK" : "VIOLATED",
                  worstConservationError);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "compute/comm overlap ratio: %.3f\n", overlapRatio);
    out += buf;
    out += "top bottlenecks:\n";
    const std::size_t n = std::min<std::size_t>(3, resources.size());
    for (std::size_t i = 0; i < n; ++i) {
        const PerfResource &r = resources[i];
        std::snprintf(
            buf, sizeof buf,
            "  %zu. %s -- %.1f%% of critical path; relieving it "
            "saves ~%.6g s",
            i + 1, r.name.c_str(), r.criticalShare * 100.0,
            r.predictedBenefitSeconds);
        out += buf;
        if (r.busySeconds > 0.0) {
            std::snprintf(buf, sizeof buf,
                          " (utilization %.2f, headroom %.2f)",
                          r.utilization, r.headroom);
            out += buf;
        }
        out += '\n';
    }
    if (n == 0)
        out += "  (none attributed)\n";
    return out;
}

std::string
PerfReport::summaryJson() const
{
    std::string out;
    out += "{\"epochs\":";
    appendDouble(out, static_cast<double>(epochs));
    out += ",\"conservation_ok\":";
    out += conservationOk ? "true" : "false";
    appendField(out, "worst_conservation_error", worstConservationError);
    appendField(out, "overlap_ratio", overlapRatio);
    out += ",\"top_bottlenecks\":[";
    const std::size_t n = std::min<std::size_t>(3, resources.size());
    for (std::size_t i = 0; i < n; ++i) {
        const PerfResource &r = resources[i];
        if (i)
            out += ',';
        out += "{\"resource\":";
        appendQuoted(out, r.name);
        appendField(out, "critical_path_share", r.criticalShare);
        appendField(out, "predicted_benefit_seconds",
                    r.predictedBenefitSeconds);
        out += '}';
    }
    out += "]}";
    return out;
}

Profiler &
profiler()
{
    static Profiler instance;
    return instance;
}

} // namespace obs
} // namespace socflow
