/**
 * @file
 * Energy accounting for simulated training runs.
 *
 * The SoC-Cluster control board meters per-SoC power; we reproduce
 * that with an accumulator fed by (device-state, duration) intervals.
 */

#ifndef SOCFLOW_SIM_ENERGY_HH
#define SOCFLOW_SIM_ENERGY_HH

#include <cstddef>
#include <map>
#include <string>

#include "sim/compute_model.hh"

namespace socflow {
namespace sim {

/** Activity states that draw distinct power. */
enum class PowerState {
    Idle,
    CpuTrain,
    NpuTrain,
    Comm,
    GpuTrain,
};

/** Printable state name. */
const char *powerStateName(PowerState s);

/**
 * Accumulates energy in joules, broken down by power state.
 */
class EnergyMeter
{
  public:
    explicit EnergyMeter(PowerProfile profile = PowerProfile());

    /**
     * Account `seconds` of `count` devices in `state`. For GpuTrain
     * the device kind selects V100 vs A100 power.
     */
    void accumulate(PowerState state, double seconds,
                    std::size_t count = 1,
                    Device gpu = Device::GpuV100);

    /**
     * Account the SoC-seconds of `total_soc_seconds` that
     * `busy_soc_seconds` left unused as Idle (nothing when busy
     * covers the total).
     */
    void fillIdle(double total_soc_seconds, double busy_soc_seconds);

    /** Total accumulated energy, joules. */
    double totalJoules() const { return total; }

    /** Total accumulated energy, kilojoules. */
    double totalKilojoules() const { return total / 1000.0; }

    /** Energy attributed to one state, joules. */
    double joules(PowerState state) const;

    /** Reset all accumulators. */
    void reset();

    /** Power draw of one device in a given state, watts. */
    double powerW(PowerState state, Device gpu = Device::GpuV100) const;

  private:
    PowerProfile profile;
    std::map<PowerState, double> byState;
    double total = 0.0;
};

} // namespace sim
} // namespace socflow

#endif // SOCFLOW_SIM_ENERGY_HH
