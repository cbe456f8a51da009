/**
 * @file
 * The plain benchmark binary's stand-in for layer_timers.cc: nothing
 * is wrapped, so nothing is timed.
 */

#include "layers.hh"

namespace socflow_bench {
namespace layers {

bool
available()
{
    return false;
}

void
setEnabled(bool)
{
}

double
callCost()
{
    return 0.0;
}

void
reset()
{
}

Totals
collect()
{
    return {};
}

} // namespace layers
} // namespace socflow_bench
