/**
 * @file
 * Checkpoint integrity shared by every checkpoint envelope.
 *
 * SoCFlowTrainer serializes its training state to a byte buffer
 * (weights + epoch + mixed-precision state) sealed with
 * checkpointChecksum; the replicated store (ckpt/replicated_store.hh)
 * seals its data and manifest envelopes with the same checksum and is
 * the only durable home of such buffers.
 */

#ifndef SOCFLOW_CORE_CHECKPOINT_HH
#define SOCFLOW_CORE_CHECKPOINT_HH

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

/** 64-bit FNV-1a over `blob` (util/hash.hh Fnv1a64). */
std::uint64_t checkpointChecksum(const std::vector<std::uint8_t> &blob);

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_CHECKPOINT_HH
