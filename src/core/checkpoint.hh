/**
 * @file
 * The one checkpoint envelope: [magic u64][len u64][payload][FNV-1a
 * u64 over all prior bytes].
 *
 * SoCFlowTrainer seals its training state (epoch, mixed-precision
 * alpha, weights) under its blob magic; the replicated store
 * (ckpt/replicated_store.hh) seals its data and manifest copies of
 * such blobs under its own magics and is the only durable home of
 * them.
 */

#ifndef SOCFLOW_CORE_CHECKPOINT_HH
#define SOCFLOW_CORE_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace socflow {
namespace core {

/**
 * A malformed or corrupted checkpoint blob handed to
 * SoCFlowTrainer::loadCheckpoint() (or read back from the replicated
 * store). Thrown (not fatal) because a scheduler holding many
 * checkpoints wants to skip a bad one and keep the trainer usable;
 * validation completes before any trainer state is mutated.
 */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/** Append `v` to `out` as 8 little-endian bytes. */
void putU64(std::vector<std::uint8_t> &out, std::uint64_t v);

/** The little-endian u64 at `in[off, off + 8)`. */
std::uint64_t getU64(const std::vector<std::uint8_t> &in, std::size_t off);

/** 64-bit FNV-1a over `blob` (util/hash.hh Fnv1a64). */
std::uint64_t checkpointChecksum(const std::vector<std::uint8_t> &blob);

/** Seal `payload` into an envelope under `magic`. */
std::vector<std::uint8_t> sealEnvelope(
    std::uint64_t magic, const std::vector<std::uint8_t> &payload);

/**
 * Validate and open an envelope sealed with `magic`. Throws
 * CheckpointError on truncation, wrong magic, size mismatch or
 * checksum mismatch -- a torn or bit-flipped copy never opens.
 */
std::vector<std::uint8_t> openEnvelope(
    std::uint64_t magic, const std::vector<std::uint8_t> &bytes);

/** True when openEnvelope() would open `bytes`; copies nothing. */
bool envelopeIntact(std::uint64_t magic,
                    const std::vector<std::uint8_t> &bytes);

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_CHECKPOINT_HH
