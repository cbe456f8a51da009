#include "core/checkpoint.hh"

#include "util/hash.hh"

namespace socflow {
namespace core {

namespace {

/** Why `bytes` is not an intact envelope under `magic`, or null. */
const char *
envelopeDefect(std::uint64_t magic, const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 24)
        return "envelope truncated before header";
    if (getU64(bytes, 0) != magic)
        return "envelope magic mismatch";
    if (bytes.size() != getU64(bytes, 8) + 24)
        return "envelope size mismatch";
    Fnv1a64 h;
    h.mixBytes(bytes.data(), bytes.size() - 8);
    if (h.value() != getU64(bytes, bytes.size() - 8))
        return "envelope checksum mismatch";
    return nullptr;
}

} // namespace

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t{in[off + i]} << (8 * i);
    return v;
}

std::uint64_t
checkpointChecksum(const std::vector<std::uint8_t> &blob)
{
    Fnv1a64 h;
    h.mixBytes(blob.data(), blob.size());
    return h.value();
}

std::vector<std::uint8_t>
sealEnvelope(std::uint64_t magic, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(payload.size() + 24);
    putU64(out, magic);
    putU64(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    putU64(out, checkpointChecksum(out));
    return out;
}

std::vector<std::uint8_t>
openEnvelope(std::uint64_t magic, const std::vector<std::uint8_t> &bytes)
{
    if (const char *defect = envelopeDefect(magic, bytes))
        throw CheckpointError(defect);
    return std::vector<std::uint8_t>(bytes.begin() + 16,
                                     bytes.end() - 8);
}

bool
envelopeIntact(std::uint64_t magic, const std::vector<std::uint8_t> &bytes)
{
    return envelopeDefect(magic, bytes) == nullptr;
}

} // namespace core
} // namespace socflow
