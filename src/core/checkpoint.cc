#include "core/checkpoint.hh"

#include "util/hash.hh"

namespace socflow {
namespace core {

std::uint64_t
checkpointChecksum(const std::vector<std::uint8_t> &blob)
{
    Fnv1a64 h;
    h.mixBytes(blob.data(), blob.size());
    return h.value();
}

} // namespace core
} // namespace socflow
