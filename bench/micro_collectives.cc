/**
 * @file
 * google-benchmark microbenchmarks of the fabric simulator and the
 * collective timing algorithms (these measure *host* time to
 * evaluate the models, not simulated time).
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hh"

#include "collectives/engine.hh"
#include "collectives/reduce.hh"
#include "core/comm_plan.hh"
#include "core/mapping.hh"
#include "sim/cluster.hh"
#include "util/rng.hh"

using namespace socflow;

static void
BM_RingAllReduceEval(benchmark::State &state)
{
    sim::ClusterConfig cfg;
    cfg.numSocs = 60;
    sim::Cluster cluster(cfg);
    collectives::CollectiveEngine eng(cluster);
    std::vector<sim::SocId> socs;
    for (sim::SocId s = 0;
         s < static_cast<std::size_t>(state.range(0)); ++s)
        socs.push_back(s);
    for (auto _ : state) {
        auto stats = eng.ringAllReduce(socs, 37e6);
        benchmark::DoNotOptimize(stats.seconds);
    }
}
BENCHMARK(BM_RingAllReduceEval)->Arg(5)->Arg(16)->Arg(32)->Arg(60);

static void
BM_ParamServerEval(benchmark::State &state)
{
    sim::ClusterConfig cfg;
    cfg.numSocs = 60;
    sim::Cluster cluster(cfg);
    collectives::CollectiveEngine eng(cluster);
    std::vector<sim::SocId> socs;
    for (sim::SocId s = 0;
         s < static_cast<std::size_t>(state.range(0)); ++s)
        socs.push_back(s);
    for (auto _ : state) {
        auto stats = eng.paramServer(socs, 0, 37e6);
        benchmark::DoNotOptimize(stats.seconds);
    }
}
BENCHMARK(BM_ParamServerEval)->Arg(8)->Arg(32);

static void
BM_PlannedSyncEval(benchmark::State &state)
{
    sim::ClusterConfig cfg;
    cfg.numSocs = 60;
    sim::Cluster cluster(cfg);
    collectives::CollectiveEngine eng(cluster);
    const core::Mapping m = core::mapGroups(
        60, 5, static_cast<std::size_t>(state.range(0)),
        core::MapStrategy::IntegrityGreedy);
    const core::CommPlan plan =
        core::planCommGroups(core::conflictGraph(m, 5));
    for (auto _ : state) {
        auto stats = core::plannedSyncCost(eng, m, plan, 37e6);
        benchmark::DoNotOptimize(stats.seconds);
    }
}
BENCHMARK(BM_PlannedSyncEval)->Arg(12)->Arg(20);

static void
BM_IntegrityGreedyMapping(benchmark::State &state)
{
    for (auto _ : state) {
        auto m = core::mapGroups(
            60, 5, static_cast<std::size_t>(state.range(0)),
            core::MapStrategy::IntegrityGreedy);
        benchmark::DoNotOptimize(m.members.data());
    }
}
BENCHMARK(BM_IntegrityGreedyMapping)->Arg(12)->Arg(30);

static void
BM_TopKCompression(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    std::vector<float> grad(n), residual(n, 0.0f);
    for (auto &g : grad)
        g = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        std::vector<float> res = residual;
        auto sparse = collectives::compressTopK(grad, res, 0.05);
        benchmark::DoNotOptimize(sparse.values.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKCompression)->Arg(1 << 14)->Arg(1 << 18);

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    // The smoke tier translates --smoke into a near-zero measurement
    // budget so every benchmark still registers, builds its fixtures,
    // and runs at least one iteration under ctest.
    std::vector<char *> args(argv, argv + argc);
    static char smokeMinTime[] = "--benchmark_min_time=0.001";
    if (bench::options().smoke)
        args.push_back(smokeMinTime);
    args.push_back(nullptr);
    int benchArgc = static_cast<int>(args.size()) - 1;
    benchmark::Initialize(&benchArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(benchArgc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
