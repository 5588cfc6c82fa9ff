/**
 * @file
 * Table-driven Toeplitz hashing.
 *
 * The Toeplitz hash XORs, for every set bit b of the input, the 32 key
 * bits starting at bit b. That is linear in the input, so the
 * contribution of each input byte depends only on its position and
 * value: table[i][v] holds the XOR of the key windows of the set bits
 * of byte value v at byte position i, and the hash of a 12-byte input
 * is the XOR of 12 table reads (the technique of DPDK's rte_thash).
 */

#include "flow.hh"

#include <cstddef>

namespace net
{

namespace
{

/** Bytes of the IPv4-with-ports RSS input. */
constexpr std::size_t inputBytes = 12;

using ByteTables = std::array<std::array<std::uint32_t, 256>, inputBytes>;

constexpr ByteTables
buildTables(const std::array<std::uint8_t, 40> &key)
{
    ByteTables tables{};
    for (std::size_t i = 0; i < inputBytes; ++i) {
        // Key bits [8i, 8i + 40): enough for the windows of all eight
        // bits of input byte i.
        std::uint64_t span = 0;
        for (std::size_t k = 0; k < 5; ++k)
            span = (span << 8) | key[i + k];
        for (std::uint32_t v = 0; v < 256; ++v) {
            std::uint32_t h = 0;
            for (int bit = 0; bit < 8; ++bit) {
                // Bit `bit` (MSB first) of the byte starts the window
                // at key bit 8i + bit.
                if ((v >> (7 - bit)) & 1)
                    h ^= static_cast<std::uint32_t>(span >> (8 - bit));
            }
            tables[i][v] = h;
        }
    }
    return tables;
}

constexpr ByteTables rssTables = buildTables(defaultRssKey);

} // anonymous namespace

std::uint32_t
toeplitzHash(const FiveTuple &tuple)
{
    const auto byte = [](std::uint32_t word, int shift) {
        return (word >> shift) & 0xff;
    };
    return rssTables[0][byte(tuple.srcIp, 24)] ^
           rssTables[1][byte(tuple.srcIp, 16)] ^
           rssTables[2][byte(tuple.srcIp, 8)] ^
           rssTables[3][byte(tuple.srcIp, 0)] ^
           rssTables[4][byte(tuple.dstIp, 24)] ^
           rssTables[5][byte(tuple.dstIp, 16)] ^
           rssTables[6][byte(tuple.dstIp, 8)] ^
           rssTables[7][byte(tuple.dstIp, 0)] ^
           rssTables[8][byte(tuple.srcPort, 8)] ^
           rssTables[9][byte(tuple.srcPort, 0)] ^
           rssTables[10][byte(tuple.dstPort, 8)] ^
           rssTables[11][byte(tuple.dstPort, 0)];
}

} // namespace net
