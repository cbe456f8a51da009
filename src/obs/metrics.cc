#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.hh"

namespace socflow {
namespace obs {

namespace {

/** Atomic add for doubles via CAS (portable across C++17 targets). */
void
atomicAdd(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
    }
}

/** Atomic min/max update via CAS. */
void
atomicMin(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/** Canonical series key: name{k="v",...} with labels sorted by key. */
std::string
seriesKey(std::string_view name, const Labels &labels)
{
    std::string key(name);
    if (labels.empty())
        return key;
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    key += '{';
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            key += ',';
        key += sorted[i].first;
        key += "=\"";
        key += sorted[i].second;
        key += '"';
    }
    key += '}';
    return key;
}

/** Insert a label into an already-rendered series key (for dumps). */
std::string
keyWithExtraLabel(const std::string &key, const char *label_key,
                  const char *label_value)
{
    std::string extra = std::string(label_key) + "=\"" + label_value +
                        "\"";
    if (key.back() == '}') {
        std::string out = key;
        out.insert(out.size() - 1, "," + extra);
        return out;
    }
    return key + '{' + extra + '}';
}

std::string
formatValue(double v)
{
    std::ostringstream oss;
    oss.precision(12);
    oss << v;
    return oss.str();
}

} // namespace

void
Counter::add(double v) noexcept
{
    atomicAdd(val, v);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : ub(std::move(upper_bounds)),
      lo(std::numeric_limits<double>::infinity()),
      hi(-std::numeric_limits<double>::infinity())
{
    SOCFLOW_ASSERT(std::is_sorted(ub.begin(), ub.end()),
                   "histogram bounds must be sorted");
    SOCFLOW_ASSERT(std::adjacent_find(ub.begin(), ub.end()) == ub.end(),
                   "histogram bounds must be strictly increasing");
    buckets =
        std::make_unique<std::atomic<std::uint64_t>[]>(ub.size() + 1);
    for (std::size_t i = 0; i <= ub.size(); ++i)
        buckets[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v) noexcept
{
    const std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(ub.begin(), ub.end(), v) - ub.begin());
    buckets[idx].fetch_add(1, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(total, v);
    atomicMin(lo, v);
    atomicMax(hi, v);
}

double
Histogram::minSeen() const noexcept
{
    return count() ? lo.load(std::memory_order_relaxed) : 0.0;
}

double
Histogram::maxSeen() const noexcept
{
    return count() ? hi.load(std::memory_order_relaxed) : 0.0;
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(ub.size() + 1);
    for (std::size_t i = 0; i <= ub.size(); ++i)
        out[i] = buckets[i].load(std::memory_order_relaxed);
    return out;
}

double
Histogram::percentile(double p) const
{
    const std::uint64_t total_n = count();
    if (total_n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    if (p <= 0.0)
        return lo.load(std::memory_order_relaxed);
    if (p >= 100.0)
        return hi.load(std::memory_order_relaxed);
    // Nearest-rank target (1-based).
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(total_n))));

    const double observedLo = lo.load(std::memory_order_relaxed);
    const double observedHi = hi.load(std::memory_order_relaxed);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= ub.size(); ++i) {
        const std::uint64_t inBucket =
            buckets[i].load(std::memory_order_relaxed);
        if (inBucket == 0)
            continue;
        if (cum + inBucket < target) {
            cum += inBucket;
            continue;
        }
        // The target rank falls in bucket i; interpolate linearly,
        // clamping the bucket edges to the observed extremes.
        double bucketLo = i == 0 ? observedLo : ub[i - 1];
        double bucketHi = i == ub.size() ? observedHi : ub[i];
        bucketLo = std::max(bucketLo, observedLo);
        bucketHi = std::min(bucketHi, observedHi);
        const double frac = static_cast<double>(target - cum) /
                            static_cast<double>(inBucket);
        return bucketLo + frac * (bucketHi - bucketLo);
    }
    return observedHi;
}

void
Histogram::reset() noexcept
{
    for (std::size_t i = 0; i <= ub.size(); ++i)
        buckets[i].store(0, std::memory_order_relaxed);
    n.store(0, std::memory_order_relaxed);
    total.store(0.0, std::memory_order_relaxed);
    lo.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
    hi.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double>
Histogram::exponentialBounds(double lo_bound, double hi_bound,
                             std::size_t per_decade)
{
    SOCFLOW_ASSERT(lo_bound > 0.0 && hi_bound > lo_bound &&
                       per_decade > 0,
                   "bad exponential bucket parameters");
    std::vector<double> bounds;
    const double step =
        std::pow(10.0, 1.0 / static_cast<double>(per_decade));
    for (double b = lo_bound; b < hi_bound * (1.0 + 1e-12); b *= step)
        bounds.push_back(b);
    return bounds;
}

template <class T, class Make>
T &
MetricsRegistry::series(std::map<std::string, std::unique_ptr<T>> &own,
                        std::string_view name, const Labels &labels,
                        Make make)
{
    const std::string key = seriesKey(name, labels);
    std::lock_guard<std::mutex> lock(mu);
    SOCFLOW_ASSERT(counters.count(key) + gauges.count(key) +
                           histograms.count(key) + digests.count(key) ==
                       own.count(key),
                   "metric re-registered with a different type: ", key);
    auto it = own.find(key);
    if (it == own.end())
        it = own.emplace(key, make()).first;
    return *it->second;
}

Counter &
MetricsRegistry::counter(std::string_view name, const Labels &labels)
{
    return series(counters, name, labels,
                  [] { return std::make_unique<Counter>(); });
}

Gauge &
MetricsRegistry::gauge(std::string_view name, const Labels &labels)
{
    return series(gauges, name, labels,
                  [] { return std::make_unique<Gauge>(); });
}

Histogram &
MetricsRegistry::histogram(std::string_view name, const Labels &labels,
                           std::vector<double> upper_bounds)
{
    return series(histograms, name, labels, [&] {
        if (upper_bounds.empty())
            upper_bounds = Histogram::exponentialBounds(1e-6, 1e3, 3);
        return std::make_unique<Histogram>(std::move(upper_bounds));
    });
}

TDigest &
MetricsRegistry::tdigest(std::string_view name, const Labels &labels,
                         double compression)
{
    return series(digests, name, labels,
                  [&] { return std::make_unique<TDigest>(compression); });
}

std::size_t
MetricsRegistry::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters.size() + gauges.size() + histograms.size() +
           digests.size();
}

std::string
MetricsRegistry::textDump() const
{
    std::ostringstream oss;
    for (const auto &[key, v] : snapshotValues())
        oss << key << ' ' << formatValue(v) << '\n';
    return oss.str();
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::snapshotValues() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(counters.size() + gauges.size() +
                histograms.size() * 5 + digests.size() * 6);
    for (const auto &[key, c] : counters)
        out.emplace_back(key, c->value());
    for (const auto &[key, g] : gauges)
        out.emplace_back(key, g->value());
    for (const auto &[key, h] : histograms) {
        out.emplace_back(key + "_count",
                         static_cast<double>(h->count()));
        out.emplace_back(key + "_sum", h->sum());
        static constexpr struct {
            const char *label;
            double p;
        } quantiles[] = {{"0.5", 50.0}, {"0.95", 95.0}, {"0.99", 99.0}};
        for (const auto &q : quantiles)
            out.emplace_back(keyWithExtraLabel(key, "quantile", q.label),
                             h->percentile(q.p));
    }
    for (const auto &[key, d] : digests) {
        out.emplace_back(key + "_count",
                         static_cast<double>(d->count()));
        out.emplace_back(key + "_sum", d->sum());
        static constexpr struct {
            const char *label;
            double q;
        } quantiles[] = {{"0.5", 0.5},
                         {"0.95", 0.95},
                         {"0.99", 0.99},
                         {"0.999", 0.999}};
        for (const auto &q : quantiles)
            out.emplace_back(keyWithExtraLabel(key, "quantile", q.label),
                             d->quantile(q.q));
    }
    return out;
}

bool
MetricsRegistry::writeTextDump(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << textDump();
    return static_cast<bool>(out);
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &[key, c] : counters)
        c->reset();
    for (auto &[key, g] : gauges)
        g->reset();
    for (auto &[key, h] : histograms)
        h->reset();
    for (auto &[key, d] : digests)
        d->reset();
}

MetricsRegistry &
metrics()
{
    // Leaked on purpose: instrumented code caches references in
    // function-local statics whose destruction order at exit is
    // unspecified relative to a registry destructor.
    static MetricsRegistry *global = new MetricsRegistry();
    return *global;
}

} // namespace obs
} // namespace socflow
