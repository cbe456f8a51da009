#include "util/hash.hh"

#include <array>

namespace socflow {

namespace {

/**
 * Slicing-by-8 tables for the reflected polynomial 0xEDB88320:
 * kCrcTables[0] is the classic byte-at-a-time table, and
 * kCrcTables[k][b] is the CRC of byte b followed by k zero bytes.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}();

/** Little-endian 32-bit load (one mov on x86). */
std::uint32_t
loadLe32(const unsigned char *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len)
{
    const auto &t = kCrcTables;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    // Eight bytes per step: the CRC state folds into the first four,
    // and each byte's contribution is looked up for its distance from
    // the end of the block.
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = loadLe32(p) ^ c;
        const std::uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace socflow
