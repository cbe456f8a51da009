/**
 * @file
 * The whole benchmark: every workload repeated in child processes,
 * one traced run each, the correctness gates, the result file, and
 * the comparison of two result files.
 */

#ifndef SOCFLOW_BENCH_SUITE_HH
#define SOCFLOW_BENCH_SUITE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace socflow_bench {

struct SuiteOptions {
    /** Trainer seed, and the seed of the day (runUnit()). */
    std::uint64_t seed = 42;
    std::uint64_t daySeed = 42;
    std::size_t repeats = 5;
    /** Result file; empty writes none. */
    std::string out;
    /** Toy sizes (--smoke). */
    bool toy = false;
};

/** Path of this binary's plain (traced = false) or traced build. */
std::string binaryPath(bool traced);

/** Run the suite; returns the exit code (0 = every gate passed). */
int runSuite(const SuiteOptions &o);

/**
 * Compare two result files under BENCHMARK.json's bounds; returns 0
 * unless an end-to-end metric got worse by more than its bound or
 * `next` failed one of its own correctness checks.
 */
int compareResults(const std::string &base, const std::string &next);

} // namespace socflow_bench

#endif // SOCFLOW_BENCH_SUITE_HH
