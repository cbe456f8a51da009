/**
 * @file
 * socflow_bench: the end-to-end and per-layer benchmark of the SoCFlow
 * simulator (README.md in this directory).
 *
 *   socflow_bench [--seed N] [--day-seed N] [--repeats N] [--out FILE]
 *                 [--smoke]
 *       every workload, repeated in fresh child processes, plus one
 *       traced run each; prints every metric, checks correctness, and
 *       writes the result file
 *   socflow_bench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--day-seed N] [--smoke]
 *       one run of one workload; the last stdout line is the result
 *   socflow_bench --compare BASE.json NEW.json
 *       compare two result files under BENCHMARK.json's bounds
 *
 * --seed is the trainer seed; --day-seed (default 42) draws the harvest
 * day's tidal trace and churn-1rack's fault plan.
 */

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "layers.hh"
#include "measure.hh"
#include "suite.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

using namespace socflow_bench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: socflow_bench [--seed N] [--day-seed N] "
                 "[--repeats N] [--out FILE] [--smoke]\n"
                 "       socflow_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--day-seed N] [--smoke]\n"
                 "       socflow_bench --compare BASE.json NEW.json\n"
                 "workloads:");
    for (const Workload &w : allWorkloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    socflow::setLogLevel(socflow::LogLevel::Silent);

    RunRequest run;
    SuiteOptions suite;
    bool single = false, repeatsGiven = false;
    std::string compareBase, compareNext;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        const bool hasValue = i + 1 < argc;
        std::uint64_t n = 0;
        if (a == "--smoke") {
            run.toy = suite.toy = true;
        } else if (a == "--workload" && hasValue) {
            run.workload = findWorkload(argv[++i]);
            if (!run.workload)
                return usage();
            single = true;
        } else if (a == "--seed" && hasValue && parseUnsigned(argv[++i], n)) {
            run.seed = suite.seed = n;
        } else if (a == "--day-seed" && hasValue &&
                   parseUnsigned(argv[++i], n)) {
            run.daySeed = suite.daySeed = n;
        } else if (a == "--seconds" && hasValue &&
                   parseUnsigned(argv[++i], n)) {
            run.seconds = static_cast<double>(n);
        } else if (a == "--trace" && hasValue) {
            const std::string_view t = argv[++i];
            if (t != "0" && t != "1")
                return usage();
            run.trace = t == "1";
        } else if (a == "--repeats" && hasValue &&
                   parseUnsigned(argv[++i], n) && n > 0) {
            suite.repeats = n;
            repeatsGiven = true;
        } else if (a == "--out" && hasValue) {
            suite.out = argv[++i];
        } else if (a == "--compare" && i + 2 < argc) {
            compareBase = argv[++i];
            compareNext = argv[++i];
        } else {
            return usage();
        }
    }

    if (!compareBase.empty())
        return compareResults(compareBase, compareNext);

    if (single) {
        // Per-layer metrics need the wrapped build: hand the same
        // arguments to it (exec, so no extra process stays around).
        if (run.trace && !layers::available()) {
            const std::string traced = binaryPath(true);
            argv[0] = const_cast<char *>(traced.c_str());
            execv(traced.c_str(), argv);
            std::perror(traced.c_str());
            return 1;
        }
        socflow::setGlobalThreads(kThreads);
        return runWorkload(run);
    }

    if (suite.toy && !repeatsGiven)
        suite.repeats = 2;
    return runSuite(suite);
}
