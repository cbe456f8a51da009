/**
 * @file
 * Integrity and fingerprint hashing.
 *
 * crc32() is the IEEE 802.3 CRC-32 used to tag gradient chunks on
 * ring segments (collectives/reduce.hh): it detects every single-bit
 * flip and all burst errors up to 32 bits, which is exactly the
 * corruption model of the GradCorrupt fault. Fnv1a64 is a streaming
 * FNV-1a accumulator used for the deterministic recovery-timeline
 * hash (same seed => same hash) that the chaos replay harness
 * compares across runs.
 */

#ifndef SOCFLOW_UTIL_HASH_HH
#define SOCFLOW_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace socflow {

/** CRC-32 (IEEE, reflected, init/final 0xFFFFFFFF) of `len` bytes. */
std::uint32_t crc32(const void *data, std::size_t len);

/** Streaming 64-bit FNV-1a accumulator. */
class Fnv1a64
{
  public:
    /** Mix raw bytes into the hash. */
    void
    mixBytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    /** Mix one integer word. */
    void
    mix(std::uint64_t v)
    {
        mixBytes(&v, sizeof(v));
    }

    /** Mix a double by bit pattern (deterministic across runs). */
    void
    mix(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    /** Mix several values in order, each as mix() would: floating
     *  values by bit pattern, integers and enums as one word. */
    template <class... Ts>
    void
    mixAll(Ts... vs)
    {
        const auto one = [this](auto v) {
            if constexpr (std::is_floating_point_v<decltype(v)>)
                mix(static_cast<double>(v));
            else
                mix(static_cast<std::uint64_t>(v));
        };
        (one(vs), ...);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

} // namespace socflow

#endif // SOCFLOW_UTIL_HASH_HH
