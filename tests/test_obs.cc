/**
 * @file
 * Observability-layer tests: metrics registry semantics, histogram
 * percentiles, span nesting on the host timeline, Chrome trace JSON
 * well-formedness (checked with a mini JSON parser, not string
 * matching), the zero-allocation guarantee of disabled-mode
 * instrumentation, and the end-to-end overlap invariant -- compute
 * and communication spans from a real SoCFlowTrainer run overlap
 * exactly when CG planning is on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/thread_pool.hh"

using namespace socflow;
using namespace socflow::obs;

// ------------------------------------------------ allocation counting
//
// Global operator new replacement so the disabled-mode test can
// prove the hot path performs zero heap allocations. Counting is
// atomic; the test reads the counter before/after the probe.
// Incompatible with sanitizer allocator interception, so the exact
// count is only asserted in non-sanitized builds.

#if defined(__SANITIZE_ADDRESS__)
#define OBS_COUNTS_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OBS_COUNTS_ALLOCATIONS 0
#else
#define OBS_COUNTS_ALLOCATIONS 1
#endif
#else
#define OBS_COUNTS_ALLOCATIONS 1
#endif

namespace {
std::atomic<std::size_t> g_allocCount{0};
} // namespace

#if OBS_COUNTS_ALLOCATIONS

void *
operator new(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // OBS_COUNTS_ALLOCATIONS

// ------------------------------------------------------- mini parser
//
// A strict recursive-descent JSON parser: no values are interpreted,
// only grammar is enforced. Good enough to prove the exporter emits
// well-formed JSON (correct escaping, no trailing commas, balanced
// brackets) without relying on string matching.

namespace {

struct JsonParser {
    const std::string &s;
    std::size_t i = 0;
    bool ok = true;

    explicit JsonParser(const std::string &text) : s(text) {}

    void
    ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                                s[i] == '\n' || s[i] == '\r'))
            ++i;
    }

    bool
    consume(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return ok = false;
    }

    bool
    parseString()
    {
        ws();
        if (i >= s.size() || s[i] != '"')
            return ok = false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return ok = false;
                const char e = s[i];
                if (e == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        ++i;
                        if (i >= s.size() || !std::isxdigit(s[i]))
                            return ok = false;
                    }
                } else if (e != '"' && e != '\\' && e != '/' &&
                           e != 'b' && e != 'f' && e != 'n' &&
                           e != 'r' && e != 't') {
                    return ok = false;
                }
            } else if (static_cast<unsigned char>(s[i]) < 0x20) {
                return ok = false;  // raw control char inside string
            }
            ++i;
        }
        if (i >= s.size())
            return ok = false;
        ++i;  // closing quote
        return true;
    }

    bool
    parseNumber()
    {
        ws();
        const std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() && std::isdigit(s[i]))
            ++i;
        if (i < s.size() && s[i] == '.') {
            ++i;
            while (i < s.size() && std::isdigit(s[i]))
                ++i;
        }
        if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < s.size() && (s[i] == '+' || s[i] == '-'))
                ++i;
            while (i < s.size() && std::isdigit(s[i]))
                ++i;
        }
        return i > start || (ok = false);
    }

    bool
    parseValue()
    {
        ws();
        if (i >= s.size())
            return ok = false;
        switch (s[i]) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return parseNumber();
        }
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++i)
            if (i >= s.size() || s[i] != *p)
                return ok = false;
        return true;
    }

    bool
    parseObject()
    {
        if (!consume('{'))
            return false;
        ws();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return true;
        }
        while (true) {
            if (!parseString() || !consume(':') || !parseValue())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            return consume('}');
        }
    }

    bool
    parseArray()
    {
        if (!consume('['))
            return false;
        ws();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return true;
        }
        while (true) {
            if (!parseValue())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            return consume(']');
        }
    }

    /** Whole input must be one valid JSON value, nothing trailing. */
    bool
    parseDocument()
    {
        const bool v = parseValue();
        ws();
        return v && ok && i == s.size();
    }
};

data::DataBundle
tinyBundle()
{
    data::SyntheticParams p;
    p.name = "obs";
    p.classes = 4;
    p.channels = 1;
    p.height = 8;
    p.width = 8;
    p.trainSamples = 480;  // several steps per epoch at 10x8 batch
    p.testSamples = 32;
    p.noise = 0.3;
    p.seed = 11;
    return data::makeSynthetic(p);
}

core::SoCFlowConfig
tinyConfig()
{
    core::SoCFlowConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = 30;
    cfg.numGroups = 10;  // size-3 groups on size-5 boards: conflicts
    cfg.groupBatch = 8;
    return cfg;
}

} // namespace

// ------------------------------------------------------------ metrics

TEST(Metrics, CounterAccumulatesAndResets)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("requests_total");
    EXPECT_EQ(c.value(), 0.0);
    c.add(1.0);
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);

    // Lookup returns the same instrument; reset zeroes in place so
    // cached references stay valid.
    Counter &again = reg.counter("requests_total");
    EXPECT_EQ(&again, &c);
    reg.reset();
    EXPECT_EQ(c.value(), 0.0);
    c.add(1.0);
    EXPECT_EQ(c.value(), 1.0);
}

TEST(Metrics, CounterConcurrentAddsLoseNothing)
{
    // Regression for the parallel core: Counter::add is a CAS loop
    // on an atomic<double> and registry lookup takes a lock, so
    // hammering both from pool workers must neither lose increments
    // nor mint duplicate series. Integer-valued doubles sum exactly,
    // so any lost CAS shows up as a shortfall, not rounding noise.
    MetricsRegistry reg;
    Counter &hot = reg.counter("hot_total");
    ThreadPool pool(8);
    constexpr std::size_t kTasks = 64;
    constexpr int kAddsPerTask = 1000;
    pool.parallelFor(kTasks, [&](std::size_t t) {
        // Half the tasks re-resolve the series concurrently with the
        // adds; lookup must hand back the same instrument.
        Counter &viaLookup = reg.counter("hot_total");
        Counter &target = (t % 2 == 0) ? hot : viaLookup;
        for (int i = 0; i < kAddsPerTask; ++i)
            target.add(1.0);
    });
    EXPECT_EQ(hot.value(),
              static_cast<double>(kTasks) * kAddsPerTask);
    EXPECT_EQ(reg.seriesCount(), 1u);

    // Concurrent first-touch of distinct labeled series must create
    // each exactly once.
    pool.parallelFor(kTasks, [&](std::size_t t) {
        reg.counter("sharded", {{"shard", std::to_string(t % 4)}})
            .add(1.0);
    });
    EXPECT_EQ(reg.seriesCount(), 5u);
    for (int shard = 0; shard < 4; ++shard) {
        EXPECT_EQ(reg.counter("sharded",
                              {{"shard", std::to_string(shard)}})
                      .value(),
                  static_cast<double>(kTasks) / 4);
    }
}

TEST(Metrics, LabeledSeriesAreDistinct)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("ops", {{"op", "ring"}});
    Counter &b = reg.counter("ops", {{"op", "tree"}});
    EXPECT_NE(&a, &b);
    a.add(2.0);
    b.add(5.0);
    EXPECT_EQ(a.value(), 2.0);
    EXPECT_EQ(b.value(), 5.0);
    // Label order does not create a new series.
    Counter &c = reg.counter("multi", {{"x", "1"}, {"y", "2"}});
    Counter &d = reg.counter("multi", {{"y", "2"}, {"x", "1"}});
    EXPECT_EQ(&c, &d);
    EXPECT_EQ(reg.seriesCount(), 3u);
}

TEST(Metrics, GaugeSetsAndResets)
{
    MetricsRegistry reg;
    Gauge &g = reg.gauge("alpha");
    g.set(0.75);
    EXPECT_DOUBLE_EQ(g.value(), 0.75);
    g.set(-2.0);
    EXPECT_DOUBLE_EQ(g.value(), -2.0);
    reg.reset();
    EXPECT_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramCountsSumsAndExtremes)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("lat", {}, {1.0, 10.0, 100.0});
    for (double v : {0.5, 2.0, 3.0, 50.0, 500.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 555.5);
    EXPECT_DOUBLE_EQ(h.minSeen(), 0.5);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 500.0);
    const auto buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
    EXPECT_EQ(buckets[0], 1u);
    EXPECT_EQ(buckets[1], 2u);
    EXPECT_EQ(buckets[2], 1u);
    EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, HistogramPercentilesInterpolate)
{
    MetricsRegistry reg;
    // 100 uniform observations 1..100 against decade buckets.
    Histogram &h =
        reg.histogram("p", {}, {10.0, 25.0, 50.0, 75.0, 100.0});
    for (int v = 1; v <= 100; ++v)
        h.observe(static_cast<double>(v));

    // Nearest-rank with linear interpolation within the bucket:
    // every estimate must land inside the true bucket and within
    // one bucket width of the exact answer.
    EXPECT_NEAR(h.percentile(50.0), 50.0, 25.0);
    EXPECT_NEAR(h.percentile(95.0), 95.0, 25.0);
    EXPECT_GE(h.percentile(99.0), 75.0);
    // Clamped to observed extremes.
    EXPECT_GE(h.percentile(0.0), 1.0);
    EXPECT_LE(h.percentile(100.0), 100.0);
    // Monotone in p.
    EXPECT_LE(h.percentile(10.0), h.percentile(50.0));
    EXPECT_LE(h.percentile(50.0), h.percentile(90.0));
    EXPECT_LE(h.percentile(90.0), h.percentile(99.9));
}

TEST(Metrics, PercentileOfEmptyHistogramIsNaN)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("empty");
    EXPECT_TRUE(std::isnan(h.percentile(50.0)));
    EXPECT_TRUE(std::isnan(h.percentile(0.0)));
    EXPECT_TRUE(std::isnan(h.percentile(100.0)));
    EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, PercentileExtremesAreObservedMinMax)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("edges");
    for (double v : {0.002, 0.4, 7.0, 31.0})
        h.observe(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.002);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 31.0);
    EXPECT_DOUBLE_EQ(h.percentile(-5.0), 0.002);   // clamped
    EXPECT_DOUBLE_EQ(h.percentile(250.0), 31.0);   // clamped
}

TEST(Metrics, ExponentialBoundsAreSortedAndSpanRange)
{
    const auto b = Histogram::exponentialBounds(1e-3, 1e3, 3);
    ASSERT_GE(b.size(), 2u);
    for (std::size_t i = 1; i < b.size(); ++i)
        EXPECT_LT(b[i - 1], b[i]);
    EXPECT_LE(b.front(), 1e-3 * 1.0001);
    EXPECT_GE(b.back(), 1e3 * 0.9999);
}

TEST(Metrics, TextDumpListsEverySeries)
{
    MetricsRegistry reg;
    reg.counter("steps_total").add(7.0);
    reg.gauge("alpha", {{"trainer", "ours"}}).set(0.5);
    reg.histogram("lat").observe(0.1);
    const std::string dump = reg.textDump();
    EXPECT_NE(dump.find("steps_total 7"), std::string::npos);
    EXPECT_NE(dump.find("alpha{trainer=\"ours\"} 0.5"),
              std::string::npos);
    EXPECT_NE(dump.find("lat_count 1"), std::string::npos);
    EXPECT_NE(dump.find("quantile=\"0.95\""), std::string::npos);
}

// ------------------------------------------------------------- spans

TEST(Trace, NestedHostSpansAreContained)
{
    Tracer t;
    t.setEnabled(true);
    {
        ScopedSpan outer(t, "outer", "test");
        EXPECT_EQ(t.openSpanDepth(), 1u);
        {
            ScopedSpan inner(t, "inner", "test");
            EXPECT_EQ(t.openSpanDepth(), 2u);
        }
        EXPECT_EQ(t.openSpanDepth(), 1u);
    }
    EXPECT_EQ(t.openSpanDepth(), 0u);

    const auto events = t.snapshot();
    const TraceEvent *outer = nullptr, *inner = nullptr;
    for (const auto &e : events) {
        if (e.name == "outer")
            outer = &e;
        if (e.name == "inner")
            inner = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->pid, kPidHost);
    // The inner span nests within the outer one.
    EXPECT_GE(inner->tsUs, outer->tsUs - 1e-6);
    EXPECT_LE(inner->tsUs + inner->durUs,
              outer->tsUs + outer->durUs + 1e-6);
}

TEST(Trace, DisabledSpansStayBalancedAcrossToggles)
{
    Tracer t;
    // Opened while disabled, closed while disabled: no events, no
    // imbalance.
    t.beginSpan("ghost", "test");
    t.endSpan();
    EXPECT_EQ(t.eventCount(), 0u);

    // Opened while disabled, closed after enabling: still dropped
    // (the matching begin never recorded a start).
    t.beginSpan("ghost2", "test");
    t.setEnabled(true);
    t.endSpan();
    EXPECT_EQ(t.eventCount(), 0u);

    // A fully-enabled span afterwards works normally.
    t.beginSpan("real", "test");
    t.endSpan();
    EXPECT_EQ(t.eventCount(), 1u);
}

TEST(Trace, UnbalancedEndSpanPanics)
{
    Tracer t;
    t.setEnabled(true);
    EXPECT_DEATH(t.endSpan(), "matching beginSpan");
}

TEST(Trace, SimSpansCarryExplicitTimestamps)
{
    Tracer t;
    t.setEnabled(true);
    t.recordSpan("compute", "compute", kTrackGroupBase, 1.5, 0.25,
                 {{"group", 3.0}});
    t.recordInstant("preempt", "control", kTrackControl, 2.0);
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].pid, kPidSim);
    EXPECT_DOUBLE_EQ(events[0].tsUs, 1.5e6);
    EXPECT_DOUBLE_EQ(events[0].durUs, 0.25e6);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].first, "group");
    EXPECT_EQ(events[1].phase, 'i');
    EXPECT_DOUBLE_EQ(events[1].tsUs, 2.0e6);
}

// ------------------------------------------------------ JSON export

TEST(Trace, ChromeTraceJsonIsWellFormed)
{
    Tracer t;
    t.setEnabled(true);
    t.setProcessName(kPidSim, "sim");
    t.setTrackName(kPidSim, kTrackComm, "communication");
    // Hostile names exercise the escaper.
    t.recordSpan("quote\" slash\\ newline\n tab\t", "cat\"egory",
                 kTrackComm, 0.0, 1.0, {{"ctrl", 1.0}});
    t.recordInstant("bell\x07", "test", kTrackControl, 0.5);
    t.beginSpan("host \"span\"", "test");
    t.endSpan();

    const std::string json = t.chromeTraceJson();
    JsonParser parser(json);
    EXPECT_TRUE(parser.parseDocument())
        << "invalid JSON near offset " << parser.i << ":\n"
        << json.substr(parser.i, 80);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(Trace, EmptyTraceStillValidJson)
{
    Tracer t;
    const std::string json = t.chromeTraceJson();
    JsonParser parser(json);
    EXPECT_TRUE(parser.parseDocument());
}

// --------------------------------------------- disabled-mode hot path

TEST(Obs, DisabledModeAllocatesNothingOnStepPath)
{
    Tracer t;  // disabled by default
    MetricsRegistry reg;
    // Registration (allowed to allocate) happens up front, exactly
    // like the instrumented trainers cache their handles.
    Counter &steps = reg.counter("steps_total");
    Histogram &lat = reg.histogram("lat");
    Gauge &alpha = reg.gauge("alpha");

    const std::size_t before = g_allocCount.load();
    for (int i = 0; i < 1000; ++i) {
        t.recordSpan("step", "control", kTrackControl, i * 1.0, 0.5,
                     {{"step", static_cast<double>(i)}});
        t.recordInstant("tick", "control", kTrackControl, i * 1.0);
        t.beginSpan("epoch", "trainer");
        t.endSpan();
        steps.add(1.0);
        lat.observe(0.001 * i);
        alpha.set(0.5);
    }
    const std::size_t after = g_allocCount.load();
#if OBS_COUNTS_ALLOCATIONS
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " allocations on the disabled path";
#else
    (void)before;
    (void)after;  // sanitizer owns the allocator; count not observable
#endif
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(steps.value(), 1000.0);
}

// ------------------------------------------------- overlap invariant

namespace {

struct Span {
    double start, end;
};

/** Collect sim-timeline spans by name from the global tracer. */
std::vector<Span>
simSpans(const std::vector<TraceEvent> &events, const char *name)
{
    std::vector<Span> out;
    for (const auto &e : events) {
        if (e.pid == kPidSim && e.phase == 'X' && e.name == name)
            out.push_back({e.tsUs, e.tsUs + e.durUs});
    }
    return out;
}

bool
anyOverlap(const std::vector<Span> &a, const std::vector<Span> &b)
{
    for (const auto &x : a)
        for (const auto &y : b)
            if (x.start < y.end - 1e-9 && y.start < x.end - 1e-9)
                return true;
    return false;
}

std::vector<TraceEvent>
traceOneEpoch(bool use_planning)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig cfg = tinyConfig();
    cfg.usePlanning = use_planning;
    cfg.overlapCommCompute = true;

    Tracer &t = tracer();
    t.clear();
    t.setEnabled(true);
    core::SoCFlowTrainer trainer(cfg, bundle);
    trainer.runEpoch();
    t.setEnabled(false);
    auto events = t.snapshot();
    t.clear();
    return events;
}

} // namespace

/**
 * The paper's Fig. 7 property, machine-checked from the trace: with
 * CG planning the sync waves overlap group compute; without planning
 * all communication is serialized after compute.
 */
TEST(Obs, TraceShowsOverlapExactlyWhenPlanning)
{
    const auto planned = traceOneEpoch(true);
    const auto computeP = simSpans(planned, "compute");
    const auto syncP = simSpans(planned, "sync wave");
    ASSERT_FALSE(computeP.empty());
    ASSERT_FALSE(syncP.empty());
    EXPECT_TRUE(anyOverlap(computeP, syncP))
        << "planned run should overlap compute and communication";

    const auto unplanned = traceOneEpoch(false);
    const auto computeU = simSpans(unplanned, "compute");
    const auto syncU = simSpans(unplanned, "sync wave");
    ASSERT_FALSE(computeU.empty());
    ASSERT_FALSE(syncU.empty());
    EXPECT_FALSE(anyOverlap(computeU, syncU))
        << "unplanned run must serialize communication after compute";
}

/**
 * A wave-phase crash re-prices the topology in the middle of a step;
 * that step's sync-wave spans still tile its sync window, which
 * without overlap is the gap between the slowest group's compute and
 * the update.
 */
TEST(Obs, WaveSpansTileSyncAcrossMidWaveCrash)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig cfg = tinyConfig();
    cfg.overlapCommCompute = false;
    fault::FaultPlan plan;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::SocCrashMidWave;
    crash.step = 1;
    crash.phase = fault::FaultPhase::Wave1;
    crash.soc = 1;
    plan.add(crash);
    fault::FaultInjector inj(plan);

    Tracer &t = tracer();
    t.clear();
    t.setEnabled(true);
    core::SoCFlowTrainer trainer(cfg, bundle);
    trainer.attachFaultInjector(&inj);
    const core::EpochRecord rec = trainer.runEpoch();
    t.setEnabled(false);
    const auto events = t.snapshot();
    t.clear();
    ASSERT_EQ(rec.waveResumes, 1u);

    const auto steps = simSpans(events, "step");
    const auto updates = simSpans(events, "update");
    const auto computes = simSpans(events, "compute");
    const auto waves = simSpans(events, "sync wave");
    ASSERT_GT(steps.size(), 2u);
    ASSERT_EQ(updates.size(), steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const auto inStep = [&](const Span &x) {
            return x.start >= steps[i].start &&
                   (i + 1 == steps.size() || x.start < steps[i + 1].start);
        };
        double computeEnd = steps[i].start, waveSum = 0.0;
        for (const Span &c : computes)
            if (inStep(c))
                computeEnd = std::max(computeEnd, c.end);
        for (const Span &w : waves)
            if (inStep(w))
                waveSum += w.end - w.start;
        const double syncUs = updates[i].start - computeEnd;
        ASSERT_GT(syncUs, 0.0) << "step " << i;
        EXPECT_NEAR(waveSum, syncUs, 1e-9 * steps[i].end)
            << "step " << i;
    }
}

/** Sim-timeline spans of one run live on a monotone step sequence. */
TEST(Obs, StepSpansAreMonotoneAndNonOverlapping)
{
    const auto events = traceOneEpoch(true);
    const auto steps = simSpans(events, "step");
    ASSERT_GT(steps.size(), 1u);
    for (std::size_t i = 1; i < steps.size(); ++i)
        EXPECT_GE(steps[i].start, steps[i - 1].end - 1e-6)
            << "step " << i << " starts before step " << i - 1
            << " ends";
}
