/**
 * @file
 * The shared bench/example command line (bench/bench_common): both
 * value forms, argv compaction, every default, every bound, the
 * cross-flag requirements, and the options reaching bench::options().
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace socflow;
using bench::BenchOptions;

namespace {

/** A mutable, null-terminated argv over `args` (argv[0] = "bench"). */
struct Argv {
    std::vector<std::string> storage;
    std::vector<char *> ptrs;
    int argc = 0;

    explicit Argv(std::initializer_list<const char *> args)
    {
        storage.emplace_back("bench");
        for (const char *a : args)
            storage.emplace_back(a);
        for (std::string &s : storage)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(storage.size());
    }

    /** The arguments left after parsing, argv[0] excluded. */
    std::vector<std::string>
    rest() const
    {
        return std::vector<std::string>(ptrs.begin() + 1,
                                         ptrs.begin() + argc);
    }
};

BenchOptions
parse(std::initializer_list<const char *> args)
{
    Argv a(args);
    return bench::parseBenchFlags(a.argc, a.ptrs.data());
}

} // namespace

TEST(BenchFlags, BothValueForms)
{
    const BenchOptions eq = parse({"--seed=7", "--trace-out=t.json",
                                   "--oversub=2.5", "--sync-retries=5"});
    const BenchOptions sp = parse({"--seed", "7", "--trace-out", "t.json",
                                   "--oversub", "2.5", "--sync-retries",
                                   "5"});
    for (const BenchOptions &o : {eq, sp}) {
        EXPECT_EQ(o.seed, 7u);
        EXPECT_EQ(o.traceOut, "t.json");
        EXPECT_EQ(o.oversub, 2.5);
        EXPECT_EQ(o.sync.maxRetries, 5u);
    }
}

TEST(BenchFlags, CompactionKeepsUnknownArgumentsInOrder)
{
    Argv a({"--benchmark_filter=Gemm", "--smoke", "pos1", "--racks", "2",
            "--seedling", "--threads=3", "--benchmark_min_time=0.05",
            "pos2"});
    const BenchOptions o = bench::parseBenchFlags(a.argc, a.ptrs.data());
    EXPECT_TRUE(o.smoke);
    EXPECT_EQ(o.racks, 2u);
    EXPECT_EQ(o.threads, 3u);
    EXPECT_EQ(a.rest(),
              (std::vector<std::string>{"--benchmark_filter=Gemm", "pos1",
                                        "--seedling",
                                        "--benchmark_min_time=0.05",
                                        "pos2"}));
    EXPECT_EQ(a.ptrs[a.argc], nullptr);
}

TEST(BenchFlags, EveryDefault)
{
    Argv a({});
    const BenchOptions o = bench::parseBenchFlags(a.argc, a.ptrs.data());
    EXPECT_EQ(a.argc, 1);
    EXPECT_EQ(o.traceOut, "");
    EXPECT_EQ(o.traceRotateMb, 0u);
    EXPECT_EQ(o.metricsOut, "");
    EXPECT_EQ(o.metricsInterval, 0u);
    EXPECT_EQ(o.postmortemOut, "");
    EXPECT_EQ(o.postmortemSpans, 0u);
    EXPECT_EQ(o.threads, 0u);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_FALSE(o.smoke);
    EXPECT_EQ(o.racks, 1u);
    EXPECT_EQ(o.coreGbps, 100.0);
    EXPECT_EQ(o.oversub, 1.0);
    EXPECT_EQ(o.psShards, 8u);
    EXPECT_EQ(o.staleness, 4u);
    EXPECT_EQ(o.profileOut, "");
    EXPECT_EQ(o.benchJson, "");
    EXPECT_EQ(o.baseline, "");
    EXPECT_EQ(o.sync.timeoutS, 0.5);
    EXPECT_EQ(o.sync.maxRetries, 3u);
    EXPECT_EQ(o.sync.backoffBaseS, 0.05);
    EXPECT_EQ(o.sync.backoffMaxS, 1.0);
    EXPECT_EQ(o.checkpointMaxRetries, 3u);
    EXPECT_EQ(o.checkpointBackoffS, 2.0);
    EXPECT_EQ(o.ckptReplicas, 1u);
    EXPECT_EQ(o.ckptIntervalEpochs, 0u);
    EXPECT_EQ(o.phiThreshold, 8.0);
    EXPECT_EQ(o.phiWindow, 32u);
    EXPECT_EQ(o.metricSeries, nullptr);
}

TEST(BenchFlags, BoundaryValuesAccepted)
{
    const BenchOptions o =
        parse({"--racks=1", "--ps-shards=1", "--oversub=1",
               "--postmortem-spans=1", "--staleness=0", "--core-gbps=0.5",
               "--sync-timeout=0", "--phi-threshold=0",
               "--seed=18446744073709551615"});
    EXPECT_EQ(o.racks, 1u);
    EXPECT_EQ(o.psShards, 1u);
    EXPECT_EQ(o.oversub, 1.0);
    EXPECT_EQ(o.postmortemSpans, 1u);
    EXPECT_EQ(o.staleness, 0u);
    EXPECT_EQ(o.coreGbps, 0.5);
    EXPECT_EQ(o.sync.timeoutS, 0.0);
    EXPECT_EQ(o.phiThreshold, 0.0);
    EXPECT_EQ(o.seed, 18446744073709551615ull);
}

TEST(BenchFlagsDeathTest, EveryBoundIsFatal)
{
    const struct {
        const char *arg;
        const char *message;
    } cases[] = {
        {"--seed=2.5", "bad value for --seed: '2.5'"},
        {"--seed=-1", "bad value for --seed: '-1'"},
        {"--seed=1e3", "bad value for --seed: '1e3'"},
        {"--seed=18446744073709551616", "bad value for --seed"},
        {"--threads=x", "bad value for --threads"},
        {"--racks=0", "bad value for --racks: '0' \\(must be >= 1\\)"},
        {"--ps-shards=0", "bad value for --ps-shards"},
        {"--postmortem-spans=0", "bad value for --postmortem-spans"},
        {"--oversub=0.5", "bad value for --oversub: '0.5' \\(must be >= 1\\)"},
        {"--oversub=0", "bad value for --oversub"},
        {"--core-gbps=0", "bad value for --core-gbps: '0' \\(must be > 0\\)"},
        {"--core-gbps=fast", "bad value for --core-gbps"},
        {"--sync-timeout=-0.1", "bad value for --sync-timeout"},
        {"--sync-backoff-base=nan", "bad value for --sync-backoff-base"},
        {"--sync-backoff-max=1s", "bad value for --sync-backoff-max"},
        {"--ckpt-backoff=-2", "bad value for --ckpt-backoff"},
        {"--phi-threshold=-8", "bad value for --phi-threshold"},
        {"--sync-retries=1.5", "bad value for --sync-retries"},
        {"--ckpt-retries=+3", "bad value for --ckpt-retries"},
        {"--ckpt-replicas=two", "bad value for --ckpt-replicas"},
        {"--ckpt-replicas=0",
         "bad value for --ckpt-replicas: '0' \\(must be >= 1\\)"},
        {"--ckpt-interval=-1", "bad value for --ckpt-interval"},
        {"--phi-window=0x20", "bad value for --phi-window"},
        {"--staleness=", "bad value for --staleness: ''"},
        {"--trace-out=", "bad value for --trace-out: ''"},
        {"--trace-rotate-mb=1.5", "bad value for --trace-rotate-mb"},
        {"--metrics-interval=-2", "bad value for --metrics-interval"},
    };
    for (const auto &c : cases)
        EXPECT_EXIT(parse({c.arg}), ::testing::ExitedWithCode(1), c.message)
            << c.arg;
    EXPECT_EXIT(parse({"--seed"}), ::testing::ExitedWithCode(1),
                "--seed requires a value argument");
}

TEST(BenchFlagsDeathTest, OutputFlagsNeedTheirOutput)
{
    EXPECT_EXIT(parse({"--trace-rotate-mb=4"}),
                ::testing::ExitedWithCode(1),
                "--trace-rotate-mb requires --trace-out");
    EXPECT_EXIT(parse({"--metrics-interval", "2"}),
                ::testing::ExitedWithCode(1),
                "--metrics-interval requires --metrics-out");
    // A zero value asks for nothing, so it needs nothing.
    const BenchOptions o =
        parse({"--trace-rotate-mb=0", "--metrics-interval=0"});
    EXPECT_EQ(o.traceRotateMb, 0u);
    EXPECT_EQ(o.metricsInterval, 0u);
    const BenchOptions both =
        parse({"--trace-rotate-mb=4", "--trace-out=t.json",
               "--metrics-interval=2", "--metrics-out=m.ndjson"});
    EXPECT_EQ(both.traceRotateMb, 4u);
    EXPECT_EQ(both.metricsInterval, 2u);
}

TEST(BenchFlags, FaultPolicyFlagReachesOptions)
{
    Argv a({"--sync-retries", "7", "--ckpt-replicas=3", "--phi-window=16",
            "--keep"});
    bench::initBenchObservability(a.argc, a.ptrs.data());
    EXPECT_EQ(bench::options().sync.maxRetries, 7u);
    EXPECT_EQ(bench::options().ckptReplicas, 3u);
    EXPECT_EQ(bench::options().phiWindow, 16u);
    EXPECT_EQ(bench::options().seed, 42u);
    EXPECT_EQ(a.rest(), std::vector<std::string>{"--keep"});
}
