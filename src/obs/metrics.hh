/**
 * @file
 * Lock-cheap metrics registry: counters, gauges, histograms, and
 * t-digest sketches with label sets, in the spirit of a Prometheus
 * client.
 *
 * Registration (name + labels -> instrument) takes a mutex and is
 * expected on cold paths only; callers cache the returned reference.
 * Counter::add, Gauge::set and Histogram::observe are lock-free
 * atomic updates, safe to call from any thread on hot paths;
 * TDigest::observe takes a short buffered critical section.
 * Instruments are never destroyed while the registry lives, so cached
 * references stay valid across reset().
 *
 * The registry exports a plain-text dump (one `name{labels} value`
 * line per series) for offline inspection and diffing; the span-level
 * timeline lives in obs/trace.hh.
 */

#ifndef SOCFLOW_OBS_METRICS_HH
#define SOCFLOW_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/tdigest.hh"

namespace socflow {
namespace obs {

/** Label set attached to one metric series, e.g. {{"method","RING"}}. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonically increasing value (events, bytes, rounds). */
class Counter
{
  public:
    /** Atomically add `v` (must be >= 0 to stay monotone). */
    void add(double v = 1.0) noexcept;

    /** Current value. */
    double value() const noexcept
    {
        return val.load(std::memory_order_relaxed);
    }

    /** Zero the counter (registry reset; instrument stays valid). */
    void reset() noexcept { val.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> val{0.0};
};

/** Last-written value (alpha, active groups, test accuracy). */
class Gauge
{
  public:
    /** Atomically overwrite the value. */
    void set(double v) noexcept
    {
        val.store(v, std::memory_order_relaxed);
    }

    /** Current value. */
    double value() const noexcept
    {
        return val.load(std::memory_order_relaxed);
    }

    /** Zero the gauge (registry reset; instrument stays valid). */
    void reset() noexcept { val.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> val{0.0};
};

/**
 * Fixed-bucket histogram with count/sum/min/max and interpolated
 * percentile queries. Buckets are defined by sorted upper bounds; an
 * implicit overflow bucket catches everything above the last bound.
 */
class Histogram
{
  public:
    /** @param upper_bounds strictly increasing bucket upper bounds. */
    explicit Histogram(std::vector<double> upper_bounds);

    /** Record one sample (lock-free). */
    void observe(double v) noexcept;

    /** Number of samples recorded. */
    std::uint64_t count() const noexcept
    {
        return n.load(std::memory_order_relaxed);
    }

    /** Sum of all samples. */
    double sum() const noexcept
    {
        return total.load(std::memory_order_relaxed);
    }

    /** Smallest sample seen; 0 when empty. */
    double minSeen() const noexcept;

    /** Largest sample seen; 0 when empty. */
    double maxSeen() const noexcept;

    /**
     * Estimated percentile by nearest-rank over the buckets with
     * linear interpolation inside the bucket, clamped to the observed
     * min/max. @param p in [0, 100]; p <= 0 returns the observed
     * minimum and p >= 100 the maximum. Returns NaN when empty.
     */
    double percentile(double p) const;

    /** Configured upper bounds (without the overflow bucket). */
    const std::vector<double> &bounds() const { return ub; }

    /** Per-bucket counts, including the final overflow bucket. */
    std::vector<std::uint64_t> bucketCounts() const;

    /** Zero all state (registry reset; instrument stays valid). */
    void reset() noexcept;

    /**
     * `per_decade` log-spaced bounds per power of ten covering
     * [lo, hi] -- the default shape for latency distributions.
     */
    static std::vector<double> exponentialBounds(double lo, double hi,
                                                 std::size_t per_decade);

  private:
    std::vector<double> ub;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> n{0};
    std::atomic<double> total{0.0};
    std::atomic<double> lo;
    std::atomic<double> hi;
};

/**
 * Owns every instrument. One process-wide instance is available via
 * metrics(); independent registries can be created for tests.
 */
class MetricsRegistry
{
  public:
    /**
     * Find or create a series. Requesting an existing name with a
     * different instrument type is an internal error (panic).
     */
    Counter &counter(std::string_view name, const Labels &labels = {});
    Gauge &gauge(std::string_view name, const Labels &labels = {});

    /**
     * @param upper_bounds bucket bounds for a newly created series;
     *        ignored when the series already exists. Empty selects
     *        the default exponential 1 us .. 1000 s layout.
     */
    Histogram &histogram(std::string_view name,
                         const Labels &labels = {},
                         std::vector<double> upper_bounds = {});

    /**
     * @param compression delta for a newly created sketch; ignored
     *        when the series already exists.
     */
    TDigest &tdigest(std::string_view name, const Labels &labels = {},
                     double compression = 100.0);

    /** Number of registered series across all instrument types. */
    std::size_t seriesCount() const;

    /**
     * Plain-text dump, one line per series in sorted order:
     *   name{k="v",...} value
     * Histograms expand to _count/_sum plus p50/p95/p99 quantile
     * series; t-digests add a p99.9 series (their tail resolution is
     * the point).
     */
    std::string textDump() const;

    /**
     * Flattened (series key, value) pairs in dump order, expanding
     * histograms and digests exactly like textDump(). Quantiles of
     * empty instruments are NaN -- serializers map them to null.
     */
    std::vector<std::pair<std::string, double>> snapshotValues() const;

    /** Write textDump() to a file; false on I/O failure. */
    bool writeTextDump(const std::string &path) const;

    /**
     * Zero every instrument. References handed out earlier remain
     * valid (instruments are reset in place, never destroyed).
     */
    void reset();

  private:
    /** The series `name`/`labels` of `own`, made by make() on first
     *  use; one registered in another of the four maps panics. */
    template <class T, class Make>
    T &series(std::map<std::string, std::unique_ptr<T>> &own,
              std::string_view name, const Labels &labels, Make make);

    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::map<std::string, std::unique_ptr<TDigest>> digests;
};

/** The process-wide registry used by the instrumented subsystems. */
MetricsRegistry &metrics();

} // namespace obs
} // namespace socflow

#endif // SOCFLOW_OBS_METRICS_HH
