#include "fault/fault.hh"

#include <algorithm>
#include <array>
#include <string>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace socflow {
namespace fault {

namespace {

/** Injection accounting, one counter per fault kind. All 13 series
 *  are registered on first use, so the metrics dump lists every kind
 *  (label = faultKindName with '-' replaced by '_'). */
obs::Counter &
injectedCounter(FaultKind k)
{
    constexpr std::size_t kKinds =
        static_cast<std::size_t>(FaultKind::CkptReplicaLoss) + 1;
    static const std::array<obs::Counter *, kKinds> counters = [] {
        std::array<obs::Counter *, kKinds> c{};
        for (std::size_t i = 0; i < kKinds; ++i) {
            std::string kind = faultKindName(static_cast<FaultKind>(i));
            std::replace(kind.begin(), kind.end(), '-', '_');
            c[i] = &obs::metrics().counter("fault_injected_total",
                                           {{"kind", kind}});
        }
        return c;
    }();
    return *counters[static_cast<std::size_t>(k)];
}

/** Partition accounting, labelled by cut scope. */
obs::Counter &
partitionCounter(FaultKind k)
{
    struct Counters {
        obs::Counter &board;
        obs::Counter &sw;
        Counters()
            : board(obs::metrics().counter("partition_total",
                                           {{"kind", "board"}})),
              sw(obs::metrics().counter("partition_total",
                                        {{"kind", "switch"}}))
        {
        }
    };
    static Counters c;
    return k == FaultKind::BoardPartition ? c.board : c.sw;
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::SocCrash:
        return "soc-crash";
      case FaultKind::LinkDegrade:
        return "link-degrade";
      case FaultKind::Straggler:
        return "straggler";
      case FaultKind::CheckpointFail:
        return "checkpoint-fail";
      case FaultKind::SocCrashMidWave:
        return "soc-crash-mid-wave";
      case FaultKind::GradCorrupt:
        return "grad-corrupt";
      case FaultKind::LeaderCrash:
        return "leader-crash";
      case FaultKind::BoardPartition:
        return "board-partition";
      case FaultKind::SwitchPartition:
        return "switch-partition";
      case FaultKind::SocRejoin:
        return "soc-rejoin";
      case FaultKind::PsServerCrash:
        return "ps-server-crash";
      case FaultKind::RackPowerLoss:
        return "rack-power-loss";
      case FaultKind::CkptReplicaLoss:
        return "ckpt-replica-loss";
    }
    panic("unknown fault kind");
}

const char *
faultPhaseName(FaultPhase p)
{
    switch (p) {
      case FaultPhase::Compute:
        return "compute";
      case FaultPhase::Wave1:
        return "wave1";
      case FaultPhase::Wave2:
        return "wave2";
      case FaultPhase::LeaderRing:
        return "leader-ring";
      case FaultPhase::Checkpoint:
        return "checkpoint";
    }
    panic("unknown fault phase");
}

FaultPlan
FaultPlan::random(const FaultPlanConfig &cfg)
{
    if (cfg.numSocs == 0 || cfg.horizonEpochs < 2)
        fatal("fault plan needs SoCs and a horizon of >= 2 epochs");
    Rng rng(cfg.seed);
    const std::size_t numBoards =
        (cfg.numSocs + cfg.socsPerBoard - 1) / cfg.socsPerBoard;
    // Epochs land in [1, horizon) so epoch 0 stays fault-free (the
    // run establishes a consensus baseline before anything breaks).
    auto pickEpoch = [&] {
        return 1 + static_cast<std::size_t>(
                       rng.uniformInt(cfg.horizonEpochs - 1));
    };
    auto pickStep = [&] {
        return cfg.stepsPerEpoch == 0
                   ? std::size_t{0}
                   : static_cast<std::size_t>(
                         rng.uniformInt(cfg.stepsPerEpoch));
    };

    FaultPlan plan;
    for (std::size_t i = 0; i < cfg.crashes; ++i) {
        FaultSpec s;
        s.kind = FaultKind::SocCrash;
        s.epoch = pickEpoch();
        s.soc = rng.uniformInt(cfg.numSocs);
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.linkDegrades; ++i) {
        FaultSpec s;
        s.kind = FaultKind::LinkDegrade;
        s.epoch = pickEpoch();
        s.board = rng.uniformInt(numBoards);
        s.factor = cfg.linkFactor;
        s.durationEpochs = cfg.windowEpochs;
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.stragglers; ++i) {
        FaultSpec s;
        s.kind = FaultKind::Straggler;
        s.epoch = pickEpoch();
        s.soc = rng.uniformInt(cfg.numSocs);
        s.factor = cfg.stragglerFactor;
        s.durationEpochs = cfg.windowEpochs;
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.checkpointFailures; ++i) {
        FaultSpec s;
        s.kind = FaultKind::CheckpointFail;
        s.epoch = pickEpoch();
        s.phase = FaultPhase::Checkpoint;
        s.count = cfg.checkpointFailBurst;
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.midWaveCrashes; ++i) {
        FaultSpec s;
        s.kind = FaultKind::SocCrashMidWave;
        s.epoch = pickEpoch();
        s.step = pickStep();
        s.phase = rng.bernoulli(0.5) ? FaultPhase::Wave1
                                     : FaultPhase::Wave2;
        s.soc = rng.uniformInt(cfg.numSocs);
        s.progress = 0.25 + 0.5 * rng.uniform();
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.gradCorrupts; ++i) {
        FaultSpec s;
        s.kind = FaultKind::GradCorrupt;
        s.epoch = pickEpoch();
        s.step = pickStep();
        s.phase = rng.bernoulli(0.5) ? FaultPhase::Wave1
                                     : FaultPhase::Wave2;
        s.soc = rng.uniformInt(cfg.numSocs);
        s.count = cfg.gradCorruptBurst;
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.leaderCrashes; ++i) {
        FaultSpec s;
        s.kind = FaultKind::LeaderCrash;
        s.epoch = pickEpoch();
        s.step = pickStep();
        s.phase = FaultPhase::LeaderRing;
        s.soc = rng.uniformInt(cfg.numSocs);
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.boardPartitions; ++i) {
        FaultSpec s;
        s.kind = FaultKind::BoardPartition;
        s.epoch = pickEpoch();
        s.board = rng.uniformInt(numBoards);
        s.durationEpochs = cfg.partitionWindowEpochs;
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.switchPartitions; ++i) {
        FaultSpec s;
        s.kind = FaultKind::SwitchPartition;
        s.epoch = pickEpoch();
        const std::size_t span =
            std::min(cfg.switchPartitionBoards, numBoards);
        s.board = rng.uniformInt(numBoards - span + 1);
        s.count = span;
        s.durationEpochs = cfg.partitionWindowEpochs;
        plan.add(s);
    }
    // Rack cuts: SwitchPartitions aligned to rack boundaries so one
    // whole rack of the fleet drops off the core at a time. Needs at
    // least two full racks -- cutting the only rack cuts everyone and
    // leaves no majority to keep training.
    const std::size_t numRacks =
        cfg.boardsPerRack > 0 ? numBoards / cfg.boardsPerRack : 0;
    for (std::size_t i = 0; numRacks > 1 && i < cfg.rackCuts; ++i) {
        plan.add(rackCut(rng.uniformInt(numRacks), cfg.boardsPerRack,
                         pickEpoch(), cfg.partitionWindowEpochs));
    }
    // PS-server crashes land on the sharded parameter server's shard
    // hosts: the first SoC of each of the first min(psShards, boards)
    // boards (matching ps::ShardMap's initial placement). The loop
    // draws nothing when the count is zero, so pre-existing seeded
    // plans replay byte-identically.
    const std::size_t serverPool = std::min(
        std::max<std::size_t>(cfg.psShards, 1), numBoards);
    for (std::size_t i = 0; i < cfg.psServerCrashes; ++i) {
        FaultSpec s;
        s.kind = FaultKind::PsServerCrash;
        s.epoch = pickEpoch();
        s.step = pickStep();
        s.soc = rng.uniformInt(serverPool) * cfg.socsPerBoard;
        plan.add(s);
    }
    // Rack power losses land mid-epoch (random step, Compute phase)
    // on a random rack; `rackPowerLossRacks` >= the fleet's rack
    // count makes the loss fleet-wide. Both loops draw nothing when
    // their count is zero, so existing seeded plans stay
    // byte-identical.
    for (std::size_t i = 0; i < cfg.rackPowerLosses; ++i) {
        FaultSpec s;
        s.kind = FaultKind::RackPowerLoss;
        s.epoch = pickEpoch();
        s.step = pickStep();
        s.board = rng.uniformInt(std::max<std::size_t>(cfg.numRacks, 1));
        s.count = std::max<std::size_t>(cfg.rackPowerLossRacks, 1);
        plan.add(s);
    }
    for (std::size_t i = 0; i < cfg.ckptReplicaLosses; ++i) {
        FaultSpec s;
        s.kind = FaultKind::CkptReplicaLoss;
        s.epoch = pickEpoch();
        s.count = std::max<std::size_t>(cfg.ckptReplicaLossBurst, 1);
        plan.add(s);
    }
    // Rejoins target SoCs the plan has already crashed (when it has
    // any), landing strictly after the crash so the comeback is real.
    std::vector<FaultSpec> crashes;
    for (const FaultSpec &s : plan.specs()) {
        if (s.kind == FaultKind::SocCrash ||
            s.kind == FaultKind::SocCrashMidWave ||
            s.kind == FaultKind::LeaderCrash ||
            s.kind == FaultKind::PsServerCrash)
            crashes.push_back(s);
    }
    for (std::size_t i = 0; i < cfg.rejoins; ++i) {
        FaultSpec s;
        s.kind = FaultKind::SocRejoin;
        if (!crashes.empty()) {
            const FaultSpec &c =
                crashes[rng.uniformInt(crashes.size())];
            s.soc = c.soc;
            s.epoch = std::min(c.epoch + 1 +
                                   rng.uniformInt(cfg.windowEpochs),
                               cfg.horizonEpochs - 1);
        } else {
            s.soc = rng.uniformInt(cfg.numSocs);
            s.epoch = pickEpoch();
        }
        plan.add(s);
    }
    return plan;
}

FaultSpec
rackCut(sim::RackId rack, std::size_t boards_per_rack,
        std::size_t epoch, std::size_t duration_epochs)
{
    if (boards_per_rack == 0)
        fatal("rack cut requires a positive rack width");
    FaultSpec s;
    s.kind = FaultKind::SwitchPartition;
    s.epoch = epoch;
    s.board = rack * boards_per_rack;
    s.count = boards_per_rack;
    s.durationEpochs = duration_epochs;
    return s;
}

void
FaultPlan::add(const FaultSpec &spec)
{
    if (!(spec.factor > 0.0 && spec.factor <= 1.0))
        fatal("fault factor must be in (0, 1], got ", spec.factor);
    if (!(spec.progress >= 0.0 && spec.progress <= 1.0))
        fatal("fault progress must be in [0, 1], got ", spec.progress);
    // Stable insert: new specs go after existing same-point ones.
    auto it = std::upper_bound(
        ordered.begin(), ordered.end(), spec,
        [](const FaultSpec &a, const FaultSpec &b) {
            return a.point() < b.point();
        });
    ordered.insert(it, spec);
}

std::size_t
FaultPlan::countKind(FaultKind k) const
{
    std::size_t n = 0;
    for (const FaultSpec &s : ordered)
        n += s.kind == k ? 1 : 0;
    return n;
}

FaultInjector::FaultInjector(FaultPlan plan_in)
    : schedule(std::move(plan_in))
{
}

std::vector<FaultSpec>
FaultInjector::advanceTo(const FaultPoint &now)
{
    clock = std::max(clock, now);
    // Expire rate windows stale at the clock's epoch.
    const auto expire = [this](auto &windows) {
        for (auto it = windows.begin(); it != windows.end();) {
            if (it->second.untilEpoch <= clock.epoch)
                it = windows.erase(it);
            else
                ++it;
        }
    };
    expire(slow);
    expire(degraded);
    expire(partitioned);

    std::vector<FaultSpec> fired;
    const auto &specs = schedule.specs();
    while (nextSpec < specs.size() &&
           specs[nextSpec].point() <= clock) {
        const FaultSpec &s = specs[nextSpec++];
        injectedCounter(s.kind).add(1.0);
        if (obs::flightRecorder().armed()) {
            // Keep the injection itself in the post-mortem timeline,
            // next to the recovery spans it triggers.
            obs::TraceEvent e;
            e.name = faultKindName(s.kind);
            e.category = "fault-injected";
            e.phase = 'i';
            e.tid = obs::kTrackControl;
            e.args.emplace_back("epoch", std::to_string(s.epoch));
            e.args.emplace_back("step", std::to_string(s.step));
            e.args.emplace_back("soc", std::to_string(s.soc));
            obs::flightRecorder().record(e);
        }
        switch (s.kind) {
          case FaultKind::SocCrash:
          case FaultKind::SocCrashMidWave:
          case FaultKind::LeaderCrash:
          case FaultKind::PsServerCrash:
            if (dead.insert(s.soc).second)
                crashed.push_back(s.soc);
            break;
          case FaultKind::LinkDegrade:
            degraded.emplace(
                s.board, Window{s.epoch + s.durationEpochs, s.factor});
            break;
          case FaultKind::Straggler:
            slow.emplace(
                s.soc, Window{s.epoch + s.durationEpochs, s.factor});
            break;
          case FaultKind::CheckpointFail:
            ckptFailBudget += s.count;
            break;
          case FaultKind::GradCorrupt:
            gradCorruptBudget += s.count;
            break;
          case FaultKind::BoardPartition:
            partitioned.emplace(
                s.board, Window{s.epoch + s.durationEpochs, 0.0});
            partitionCounter(s.kind).add(1.0);
            break;
          case FaultKind::SwitchPartition:
            // A ToR port/cable cut takes out a run of adjacent
            // boards: [board, board + count).
            for (std::size_t b = 0; b < std::max<std::size_t>(
                                            s.count, 1); ++b)
                partitioned.emplace(
                    s.board + b,
                    Window{s.epoch + s.durationEpochs, 0.0});
            partitionCounter(s.kind).add(1.0);
            break;
          case FaultKind::SocRejoin:
            // The SoC is back on the network; the membership layer
            // runs the actual rejoin protocol (weight catch-up,
            // generation bump, live re-mapping).
            if (dead.erase(s.soc) != 0)
                crashed.erase(std::remove(crashed.begin(),
                                          crashed.end(), s.soc),
                              crashed.end());
            break;
          case FaultKind::RackPowerLoss:
            // Event-only: a power cycle reboots the machines rather
            // than removing them, so the dead-set stays untouched.
            // Volatile training state on the affected racks is gone;
            // the trainer observes the fired spec and aborts the
            // epoch, then restarts from a durable checkpoint.
            break;
          case FaultKind::CkptReplicaLoss:
            // Durable-storage loss: the replicated checkpoint store
            // drains this budget at its next read/write boundary and
            // destroys that many replica copies.
            replicaLossBudget += std::max<std::size_t>(s.count, 1);
            break;
        }
        fired.push_back(s);
    }
    return fired;
}

std::vector<FaultSpec>
FaultInjector::advanceTo(std::size_t epoch)
{
    return advanceTo(FaultPoint::epochEnd(epoch));
}

bool
FaultInjector::socAlive(sim::SocId soc) const
{
    return dead.find(soc) == dead.end();
}

double
FaultInjector::computeFactor(sim::SocId soc) const
{
    double f = 1.0;
    auto [lo, hi] = slow.equal_range(soc);
    for (auto it = lo; it != hi; ++it) {
        if (it->second.untilEpoch > clock.epoch)
            f = std::min(f, it->second.factor);
    }
    return f;
}

double
FaultInjector::linkFactor(sim::BoardId board) const
{
    double f = 1.0;
    auto [lo, hi] = degraded.equal_range(board);
    for (auto it = lo; it != hi; ++it) {
        if (it->second.untilEpoch > clock.epoch)
            f = std::min(f, it->second.factor);
    }
    return f;
}

bool
FaultInjector::boardReachable(sim::BoardId board) const
{
    auto [lo, hi] = partitioned.equal_range(board);
    for (auto it = lo; it != hi; ++it) {
        if (it->second.untilEpoch > clock.epoch)
            return false;
    }
    return true;
}

bool
FaultInjector::checkpointWriteFails()
{
    if (ckptFailBudget == 0)
        return false;
    --ckptFailBudget;
    static obs::Counter &failures = obs::metrics().counter(
        "checkpoint_write_failures_total");
    failures.add(1.0);
    return true;
}

bool
FaultInjector::corruptNextChunk()
{
    if (gradCorruptBudget == 0)
        return false;
    --gradCorruptBudget;
    return true;
}

std::size_t
FaultInjector::drainGradCorrupt()
{
    const std::size_t n = gradCorruptBudget;
    gradCorruptBudget = 0;
    return n;
}

std::size_t
FaultInjector::drainReplicaLosses()
{
    const std::size_t n = replicaLossBudget;
    replicaLossBudget = 0;
    return n;
}

} // namespace fault
} // namespace socflow
