/**
 * @file
 * Figure 9: energy consumed up to convergence (kJ on the simulated
 * cluster) for every method and workload at 32 SoCs.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    setLogLevel(LogLevel::Warn);
    Table t("Figure 9: energy to 97% relative convergence, 32 SoCs "
            "(kJ)");
    std::vector<std::string> header = {"workload"};
    for (const auto &m : suiteMethods())
        header.push_back(m);
    header.push_back("saving-vs-PS");
    t.setHeader(header);

    for (const auto &w : paperWorkloads()) {
        const SuiteResult suite = runSuite(w, 32, 10);
        std::vector<std::string> row = {w.key};
        double psE = 0.0, oursE = 0.0;
        for (const auto &m : suiteMethods()) {
            const auto &run = findRun(suite, m);
            const bool reached = run.result.reached(suite.targetAcc);
            const double kj =
                run.result.joulesToAccuracy(suite.targetAcc) / 1000.0;
            std::string cell = reached ? "" : ">";
            cell += formatDouble(kj, 1);
            row.push_back(cell);
            if (m == "PS")
                psE = kj;
            if (m == "Ours")
                oursE = kj;
        }
        row.push_back(formatDouble(psE / oursE, 1) + "x");
        t.addRow(std::move(row));
        std::fprintf(stderr, "[fig09] finished %s\n", w.key.c_str());
    }
    t.print();
    std::printf("\n(paper: SoCFlow cuts energy 20-158x vs PS, "
                "1.9-60x vs RING, 2.1-9.9x vs FedAvg)\n");
    return 0;
}
