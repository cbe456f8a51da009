#include "sim/energy.hh"

#include "util/logging.hh"

namespace socflow {
namespace sim {

const char *
powerStateName(PowerState s)
{
    switch (s) {
      case PowerState::Idle:
        return "idle";
      case PowerState::CpuTrain:
        return "cpu-train";
      case PowerState::NpuTrain:
        return "npu-train";
      case PowerState::Comm:
        return "comm";
      case PowerState::GpuTrain:
        return "gpu-train";
    }
    panic("unknown power state");
}

EnergyMeter::EnergyMeter(PowerProfile p) : profile(p)
{
}

double
EnergyMeter::powerW(PowerState state, Device gpu) const
{
    switch (state) {
      case PowerState::Idle:
        return profile.socIdleW;
      case PowerState::CpuTrain:
        return profile.socCpuTrainW;
      case PowerState::NpuTrain:
        return profile.socNpuTrainW;
      case PowerState::Comm:
        return profile.socCommW;
      case PowerState::GpuTrain:
        return (gpu == Device::GpuA100 ? profile.a100W : profile.v100W) +
               profile.gpuHostW;
    }
    panic("unknown power state");
}

void
EnergyMeter::accumulate(PowerState state, double seconds,
                        std::size_t count, Device gpu)
{
    SOCFLOW_ASSERT(seconds >= 0.0, "negative interval");
    const double joules =
        powerW(state, gpu) * seconds * static_cast<double>(count);
    byState[state] += joules;
    total += joules;
}

void
EnergyMeter::fillIdle(double total_soc_seconds, double busy_soc_seconds)
{
    if (total_soc_seconds > busy_soc_seconds)
        accumulate(PowerState::Idle, total_soc_seconds - busy_soc_seconds);
}

double
EnergyMeter::joules(PowerState state) const
{
    auto it = byState.find(state);
    return it == byState.end() ? 0.0 : it->second;
}

void
EnergyMeter::reset()
{
    byState.clear();
    total = 0.0;
}

} // namespace sim
} // namespace socflow
