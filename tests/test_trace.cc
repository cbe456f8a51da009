/**
 * @file
 * Tidal trace generator and harvesting scheduler tests.
 */

#include <gtest/gtest.h>

#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "trace/harvest.hh"
#include "trace/tidal.hh"

using namespace socflow;
using namespace socflow::trace;

TEST(Tidal, SlotCount)
{
    TidalConfig cfg;
    cfg.slotMinutes = 5.0;
    TidalTrace t(cfg);
    EXPECT_EQ(t.numSlots(), 288u);
    EXPECT_NEAR(t.slotHour(0), 0.0, 1e-9);
    EXPECT_NEAR(t.slotHour(12), 1.0, 1e-9);
}

TEST(Tidal, DemandPeaksAtPeakHour)
{
    TidalConfig cfg;
    TidalTrace t(cfg);
    EXPECT_NEAR(t.demand(cfg.peakHour), cfg.peakBusy, 1e-6);
    // Trough is 12h away from the peak.
    EXPECT_NEAR(t.demand(cfg.peakHour + 12.0), cfg.troughBusy, 1e-6);
}

TEST(Tidal, OrderOfMagnitudeDaySwing)
{
    // The paper reports >10x more active users at peak vs trough
    // (Fig. 3); the demand curve must reproduce that swing.
    TidalConfig cfg;
    TidalTrace t(cfg);
    EXPECT_GT(t.demand(cfg.peakHour) /
                  t.demand(cfg.peakHour + 12.0),
              10.0);
}

TEST(Tidal, BusyFractionTracksDemand)
{
    TidalConfig cfg;
    cfg.numSocs = 200;  // large for low sampling noise
    TidalTrace t(cfg);
    // Average busy fraction in the peak hour >> trough hour.
    auto hourAvg = [&](double hour) {
        double s = 0.0;
        int n = 0;
        for (std::size_t slot = 0; slot < t.numSlots(); ++slot) {
            if (std::abs(t.slotHour(slot) - hour) < 0.5) {
                s += t.busyFraction(slot);
                ++n;
            }
        }
        return s / n;
    };
    EXPECT_GT(hourAvg(14.0), 4.0 * hourAvg(4.0));
}

TEST(Tidal, IdleCountComplementsBusy)
{
    TidalConfig cfg;
    TidalTrace t(cfg);
    for (std::size_t slot = 0; slot < t.numSlots(); slot += 37) {
        const double busy = t.busyFraction(slot);
        EXPECT_NEAR(t.idleCount(slot),
                    cfg.numSocs * (1.0 - busy), 1e-6);
    }
}

TEST(Tidal, DeterministicForSeed)
{
    TidalConfig cfg;
    TidalTrace a(cfg), b(cfg);
    for (std::size_t slot = 0; slot < a.numSlots(); slot += 13)
        for (std::size_t soc = 0; soc < cfg.numSocs; soc += 7)
            EXPECT_EQ(a.busy(soc, slot), b.busy(soc, slot));
}

TEST(Tidal, LongestIdleWindowIsMeaningful)
{
    TidalConfig cfg;
    TidalTrace t(cfg);
    // At night most of the 60 SoCs idle for hours; requiring
    // 32 idle SoCs should still find a multi-hour window.
    EXPECT_GT(t.longestIdleWindowHours(32), 2.0);
    // Requiring every SoC idle simultaneously is much rarer.
    EXPECT_LE(t.longestIdleWindowHours(60),
              t.longestIdleWindowHours(32));
}

TEST(Tidal, OutOfRangePanics)
{
    TidalConfig cfg;
    TidalTrace t(cfg);
    EXPECT_DEATH(t.busy(999, 0), "range");
}

// ------------------------------------------------------------ harvest

namespace {

data::DataBundle
tinyBundle()
{
    data::SyntheticParams p;
    p.name = "tiny";
    p.classes = 4;
    p.channels = 1;
    p.height = 8;
    p.width = 8;
    p.trainSamples = 192;
    p.testSamples = 64;
    p.noise = 0.3;
    p.seed = 5;
    return data::makeSynthetic(p);
}

} // namespace

TEST(Harvest, TrainsThroughTheNightAndPreempts)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig tcfg;
    tcfg.modelFamily = "mlp";
    tcfg.numSocs = 16;
    tcfg.numGroups = 4;
    tcfg.groupBatch = 16;
    core::SoCFlowTrainer trainer(tcfg, bundle);

    TidalConfig trCfg;
    trCfg.numSocs = 16;
    trCfg.slotMinutes = 60.0;  // one epoch per hour slot
    TidalTrace trace(trCfg);

    HarvestConfig hcfg;
    hcfg.socsPerGroup = 4;
    const HarvestReport report =
        runHarvestDay(trainer, tcfg, trace, hcfg);

    EXPECT_GT(report.epochsTrained, 0u);
    EXPECT_GT(report.finalTestAcc, 0.3);
    EXPECT_FALSE(report.timeline.empty());
    // Every timeline event carries a consistent group count.
    for (const auto &ev : report.timeline)
        EXPECT_LE(ev.activeGroups, tcfg.numGroups);
}

TEST(Harvest, DemandSurgeCausesSuspension)
{
    data::DataBundle bundle = tinyBundle();
    core::SoCFlowConfig tcfg;
    tcfg.modelFamily = "mlp";
    tcfg.numSocs = 16;
    tcfg.numGroups = 4;
    tcfg.groupBatch = 16;
    core::SoCFlowTrainer trainer(tcfg, bundle);

    TidalConfig trCfg;
    trCfg.numSocs = 16;
    trCfg.slotMinutes = 30.0;
    trCfg.peakBusy = 1.0;  // guaranteed full-busy peak
    trCfg.troughBusy = 0.0;
    trCfg.stickiness = 0.0;
    TidalTrace trace(trCfg);

    HarvestConfig hcfg;
    hcfg.socsPerGroup = 4;
    const HarvestReport report =
        runHarvestDay(trainer, tcfg, trace, hcfg);
    EXPECT_GT(report.suspensions + report.preemptions, 0u);
    EXPECT_EQ(report.suspensions + report.preemptions,
              report.checkpointsTaken);
}

