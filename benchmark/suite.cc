#include "suite.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "json.hh"
#include "measure.hh"
#include "workloads.hh"

#ifndef SOCFLOW_BENCH_SPEC
#error "SOCFLOW_BENCH_SPEC must name BENCHMARK.json"
#endif

namespace socflow_bench {

namespace {

/** The two last stdout lines of one child run, parsed. */
struct ChildRun {
    bool ok = false;  //!< exited 0 and printed both lines
    json::Value detail;
    json::Value result;
};

ChildRun
spawn(const std::vector<std::string> &args)
{
    ChildRun run;
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        return run;
    }
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        close(fds[0]);
        close(fds[1]);
        return run;
    }
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        execv(argv[0], argv.data());
        std::perror("execv");
        _exit(127);
    }
    close(fds[1]);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < out.size()) {
        const std::size_t nl = out.find('\n', pos);
        const std::size_t end = nl == std::string::npos ? out.size() : nl;
        if (end > pos)
            lines.push_back(out.substr(pos, end - pos));
        pos = end + 1;
    }
    if (lines.size() < 2)
        return run;
    auto detail = json::parse(lines[lines.size() - 2]);
    auto result = json::parse(lines.back());
    if (!detail || !result || !detail->find("detail"))
        return run;
    run.detail = *detail->find("detail");
    run.result = std::move(*result);
    run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return run;
}

std::vector<std::string>
childArgs(const Workload &w, const SuiteOptions &o, bool trace)
{
    std::vector<std::string> a = {binaryPath(false),
                                  "--workload", w.name,
                                  "--seed", std::to_string(o.seed),
                                  "--day-seed", std::to_string(o.daySeed),
                                  "--seconds", "0",
                                  "--trace", trace ? "1" : "0"};
    if (o.toy)
        a.push_back("--smoke");
    return a;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Metric names and units of one BENCHMARK.json list equal `specs`. */
bool
specMatches(const json::Value &spec, const char *list,
            const std::vector<MetricSpec> &specs)
{
    const json::Value *l = spec.find(list);
    if (!l || l->array.size() != specs.size())
        return false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const json::Value *name = l->array[i].find("name");
        const json::Value *unit = l->array[i].find("unit");
        if (!name || !unit || name->str() != specs[i].name ||
            unit->str() != specs[i].unit)
            return false;
    }
    return true;
}

/** Everything the suite learned about one workload. */
struct WorkloadResult {
    const Workload *w = nullptr;
    std::map<std::string, std::vector<double>> samples;
    std::vector<std::string> hashes;
    std::string tracedHash;
    json::Value perLayer;
    double simSecondsToTarget = NAN;
    std::vector<std::string> failures;
};

void
collectFailures(const ChildRun &c, const std::string &what,
                std::vector<std::string> &failures)
{
    if (const json::Value *f = c.detail.find("failures"))
        for (const json::Value &v : f->array)
            failures.push_back(what + ": " + v.str());
    if (!c.ok)
        failures.push_back(what + ": run failed");
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

std::string
binaryPath(bool traced)
{
    char buf[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    std::string self = n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                             : std::string("socflow_bench");
    const std::size_t slash = self.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : self.substr(0, slash);
    return dir + (traced ? "/socflow_bench_traced" : "/socflow_bench");
}

int
runSuite(const SuiteOptions &o)
{
    std::vector<std::string> failures;
    const auto spec = json::parseFile(SOCFLOW_BENCH_SPEC);
    if (!spec)
        failures.push_back("cannot read " SOCFLOW_BENCH_SPEC);
    else if (!specMatches(*spec, "end_to_end", endToEndSpecs()) ||
             !specMatches(*spec, "per_layer", perLayerSpecs()))
        failures.push_back("BENCHMARK.json metric names/units differ "
                           "from the ones socflow_bench reports");

    const std::vector<Workload> &all = allWorkloads();
    std::vector<WorkloadResult> res(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        res[i].w = &all[i];

    // Each repeat is a fresh process; the order rotates so no workload
    // always runs first (cold caches) or last.
    for (std::size_t r = 0; r < o.repeats; ++r) {
        for (std::size_t k = 0; k < all.size(); ++k) {
            WorkloadResult &wr = res[(k + r) % all.size()];
            std::fprintf(stderr, "[%zu/%zu] %s\n", r + 1, o.repeats,
                         wr.w->name);
            const ChildRun c = spawn(childArgs(*wr.w, o, false));
            collectFailures(c, wr.w->name, wr.failures);
            if (const json::Value *m = c.result.find("metrics"))
                for (const auto &[name, v] : m->object)
                    if (const json::Value *x = v.find("value"))
                        wr.samples[name].push_back(x->numberOr(NAN));
            if (const json::Value *h = c.detail.find("timeline_hash"))
                wr.hashes.push_back(h->str());
            if (const json::Value *t = c.detail.find("sim_s_to_target"))
                wr.simSecondsToTarget = t->numberOr(NAN);
        }
    }
    for (WorkloadResult &wr : res) {
        std::fprintf(stderr, "[traced] %s\n", wr.w->name);
        const ChildRun c = spawn(childArgs(*wr.w, o, true));
        collectFailures(c, std::string(wr.w->name) + " (traced)",
                        wr.failures);
        if (const json::Value *m = c.result.find("metrics"))
            wr.perLayer = *m;
        if (const json::Value *h = c.detail.find("timeline_hash"))
            wr.tracedHash = h->str();
        for (const std::string &h : wr.hashes)
            if (h != wr.hashes.front())
                wr.failures.push_back(std::string(wr.w->name) +
                                      ": timeline hash differs across "
                                      "repeats");
        if (!wr.hashes.empty() && wr.tracedHash != wr.hashes.front())
            wr.failures.push_back(std::string(wr.w->name) +
                                  ": traced timeline hash differs from "
                                  "the untraced one");
        failures.insert(failures.end(), wr.failures.begin(),
                        wr.failures.end());
    }

    // Report: every end-to-end metric per workload, then the per-layer
    // table (one column per workload).
    std::printf("%-14s %-16s %12s %12s %12s %3s %s\n", "workload",
                "metric", "median", "q1", "q3", "n", "unit");
    for (const WorkloadResult &wr : res) {
        for (const MetricSpec &m : endToEndSpecs()) {
            const Spread s = spreadOf(wr.samples.count(m.name)
                                          ? wr.samples.at(m.name)
                                          : std::vector<double>{});
            std::printf("%-14s %-16s %12s %12s %12s %3zu %s\n",
                        wr.w->name, m.name, fmt(s.median).c_str(),
                        fmt(s.q1).c_str(), fmt(s.q3).c_str(), s.n, m.unit);
        }
        if (!std::isnan(wr.simSecondsToTarget))
            std::printf("%-14s %-16s %12s %12s %12s %3s %s\n", wr.w->name,
                        "sim_s_to_target", fmt(wr.simSecondsToTarget).c_str(),
                        "", "", "", "sim_s");
    }
    std::printf("\n%-34s", "per-layer (traced run)");
    for (const WorkloadResult &wr : res)
        std::printf(" %14s", wr.w->name);
    std::printf("  unit\n");
    for (const MetricSpec &m : perLayerSpecs()) {
        std::printf("%-34s", m.name);
        for (const WorkloadResult &wr : res) {
            const json::Value *v = wr.perLayer.find(m.name);
            const json::Value *x = v ? v->find("value") : nullptr;
            std::printf(" %14s", x ? fmt(x->numberOr(NAN)).c_str() : "-");
        }
        std::printf("  %s\n", m.unit);
    }

    if (!o.out.empty()) {
        std::string j = "{\n  \"benchmark\": \"socflow_bench\",\n";
        j += "  \"seed\": " + std::to_string(o.seed) + ",\n";
        j += "  \"day_seed\": " + std::to_string(o.daySeed) + ",\n";
        j += "  \"repeats\": " + std::to_string(o.repeats) + ",\n";
        j += std::string("  \"smoke\": ") + (o.toy ? "true" : "false") +
             ",\n";
        j += "  \"host\": {\"nproc\": " +
             std::to_string(std::thread::hardware_concurrency()) +
             ", \"cpu_model\": " + json::quote(cpuModel()) +
             ", \"threads\": " + std::to_string(kThreads) + "},\n";
        j += std::string("  \"correct\": ") +
             (failures.empty() ? "true" : "false") + ",\n";
        j += "  \"workloads\": [";
        for (std::size_t i = 0; i < res.size(); ++i) {
            const WorkloadResult &wr = res[i];
            j += (i ? ",\n" : "\n");
            j += "    {\"name\": " + json::quote(wr.w->name) +
                 ",\n     \"timeline_hash\": " +
                 json::quote(wr.hashes.empty() ? "" : wr.hashes.front()) +
                 ",\n     \"sim_s_to_target\": " +
                 json::number(wr.simSecondsToTarget) +
                 ",\n     \"end_to_end\": {";
            bool first = true;
            for (const MetricSpec &m : endToEndSpecs()) {
                const std::vector<double> v = wr.samples.count(m.name)
                                                  ? wr.samples.at(m.name)
                                                  : std::vector<double>{};
                const Spread s = spreadOf(v);
                j += std::string(first ? "\n" : ",\n") + "       " +
                     json::quote(m.name) + ": {\"unit\": " +
                     json::quote(m.unit) + ", \"median\": " +
                     json::number(s.median) + ", \"q1\": " +
                     json::number(s.q1) + ", \"q3\": " +
                     json::number(s.q3) + ", \"n\": " +
                     std::to_string(s.n) + ", \"samples\": [";
                for (std::size_t k = 0; k < v.size(); ++k)
                    j += (k ? ", " : "") + json::number(v[k]);
                j += "]}";
                first = false;
            }
            j += "},\n     \"per_layer\": {";
            first = true;
            for (const auto &[name, v] : wr.perLayer.object) {
                const json::Value *x = v.find("value");
                const json::Value *u = v.find("unit");
                j += std::string(first ? "\n" : ",\n") + "       " +
                     json::quote(name) + ": {\"value\": " +
                     json::number(x ? x->numberOr(NAN) : NAN) +
                     ", \"unit\": " + json::quote(u ? u->str() : "") + "}";
                first = false;
            }
            j += "},\n     \"failures\": [";
            for (std::size_t k = 0; k < wr.failures.size(); ++k)
                j += (k ? ", " : "") + json::quote(wr.failures[k]);
            j += "]}";
        }
        j += "\n  ]\n}\n";
        std::ofstream f(o.out);
        f << j;
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
            return 1;
        }
    }

    for (const std::string &f : failures)
        std::fprintf(stderr, "FAIL %s\n", f.c_str());
    std::fprintf(stderr, "%s\n",
                 failures.empty() ? "all checks passed" : "checks FAILED");
    return failures.empty() ? 0 : 1;
}

int
compareResults(const std::string &basePath, const std::string &nextPath)
{
    const auto base = json::parseFile(basePath);
    const auto next = json::parseFile(nextPath);
    const auto spec = json::parseFile(SOCFLOW_BENCH_SPEC);
    if (!base || !next || !spec) {
        std::fprintf(stderr, "cannot read %s, %s or %s\n",
                     basePath.c_str(), nextPath.c_str(),
                     SOCFLOW_BENCH_SPEC);
        return 2;
    }
    // Empty Value: every find() on it returns nullptr.
    static const json::Value none;
    const auto member = [](const json::Value *v, std::string_view key) {
        const json::Value *m = v ? v->find(key) : nullptr;
        return m ? m : &none;
    };
    const auto named = [](const json::Value *list, std::string_view name) {
        for (const json::Value &item : list->array)
            if (const json::Value *n = item.find("name"); n && n->str() == name)
                return &item;
        return &none;
    };

    // A new result that failed its own checks is rejected whatever its
    // medians say.
    bool regression = false;
    if (!member(&*next, "correct")->boolean) {
        std::printf("%s failed its correctness checks\n", nextPath.c_str());
        regression = true;
    }
    for (const json::Value &wl : member(&*next, "workloads")->array)
        for (const json::Value &f : member(&wl, "failures")->array) {
            std::printf("FAIL %s\n", f.str().c_str());
            regression = true;
        }
    for (const char *key : {"seed", "day_seed"})
        if (member(&*base, key)->numberOr(-1) !=
            member(&*next, key)->numberOr(-1))
            std::printf("%s differs: the two files ran other inputs\n", key);

    std::printf("%-14s %-16s %12s %12s %9s %8s  %s\n", "workload", "metric",
                "base", "new", "change", "bound", "verdict");
    for (const Workload &w : allWorkloads()) {
        const json::Value *b = named(member(&*base, "workloads"), w.name);
        const json::Value *n = named(member(&*next, "workloads"), w.name);
        for (const MetricSpec &m : endToEndSpecs()) {
            const json::Value *limit =
                named(member(&*spec, "end_to_end"), m.name);
            const bool lower = member(limit, "better")->str() == "lower";
            const double bound = member(limit, "bound")->numberOr(NAN);
            const json::Value *bm = member(member(b, "end_to_end"), m.name);
            const json::Value *nm = member(member(n, "end_to_end"), m.name);
            const auto get = [&](const json::Value *v, const char *k) {
                return member(v, k)->numberOr(NAN);
            };
            const double bMed = get(bm, "median"), nMed = get(nm, "median");
            const double spreadB = (get(bm, "q3") - get(bm, "q1")) / std::fabs(bMed);
            const double spreadN = (get(nm, "q3") - get(nm, "q1")) / std::fabs(nMed);
            const double change =
                bMed == nMed ? 0.0 : (nMed - bMed) / std::fabs(bMed);
            // Positive `worse`: the new median moved the wrong way.
            const double worse = lower ? change : -change;
            const char *verdict = "unchanged";
            if (std::isnan(worse) || std::isnan(bound)) {
                verdict = "missing";
                regression = true;
            } else if (!(spreadB <= bound && spreadN <= bound)) {
                // Too noisy to call, unless every new sample beats every
                // base sample.
                verdict = "unresolved";
                const auto &bs = member(bm, "samples")->array;
                const auto &ns = member(nm, "samples")->array;
                bool allBetter = !bs.empty() && !ns.empty();
                for (const json::Value &x : ns)
                    for (const json::Value &y : bs)
                        allBetter &= lower ? x.number < y.number
                                           : x.number > y.number;
                if (allBetter)
                    verdict = "improved";
            } else if (worse > bound) {
                verdict = "worse";
                regression = true;
            } else if (worse < -bound) {
                verdict = "improved";
            }
            std::printf("%-14s %-16s %12s %12s %8.2f%% %8s  %s\n", w.name,
                        m.name, fmt(bMed).c_str(), fmt(nMed).c_str(),
                        100.0 * change, fmt(bound).c_str(), verdict);
        }
        const std::string &bh = member(b, "timeline_hash")->str();
        const std::string &nh = member(n, "timeline_hash")->str();
        if (bh != nh)
            std::printf("%-14s timeline hash CHANGED: %s -> %s\n", w.name,
                        bh.c_str(), nh.c_str());
    }
    return regression ? 1 : 0;
}

} // namespace socflow_bench
