/**
 * @file
 * FiveTuple and Toeplitz hash tests.
 */

#include <gtest/gtest.h>

#include "net/flow.hh"

namespace
{

net::FiveTuple
tuple(std::uint32_t srcIp, std::uint32_t dstIp, std::uint16_t srcPort,
      std::uint16_t dstPort)
{
    net::FiveTuple t;
    t.srcIp = srcIp;
    t.dstIp = dstIp;
    t.srcPort = srcPort;
    t.dstPort = dstPort;
    return t;
}

constexpr std::uint32_t
ip(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d)
{
    return (a << 24) | (b << 16) | (c << 8) | d;
}

/**
 * Bit-serial Toeplitz reference, straight from the definition: for
 * every set input bit b (MSB first), XOR in the 32 key bits starting
 * at key bit b.
 */
std::uint32_t
bitSerialToeplitz(const net::FiveTuple &t)
{
    const std::uint8_t input[12] = {
        std::uint8_t(t.srcIp >> 24), std::uint8_t(t.srcIp >> 16),
        std::uint8_t(t.srcIp >> 8),  std::uint8_t(t.srcIp),
        std::uint8_t(t.dstIp >> 24), std::uint8_t(t.dstIp >> 16),
        std::uint8_t(t.dstIp >> 8),  std::uint8_t(t.dstIp),
        std::uint8_t(t.srcPort >> 8), std::uint8_t(t.srcPort),
        std::uint8_t(t.dstPort >> 8), std::uint8_t(t.dstPort),
    };
    const auto bitAt = [](const std::uint8_t *bytes, int b) {
        return (bytes[b / 8] >> (7 - b % 8)) & 1u;
    };
    std::uint32_t result = 0;
    for (int b = 0; b < 96; ++b) {
        if (!bitAt(input, b))
            continue;
        std::uint32_t window = 0;
        for (int i = 0; i < 32; ++i)
            window = (window << 1) | bitAt(net::defaultRssKey.data(), b + i);
        result ^= window;
    }
    return result;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

TEST(Toeplitz, KnownVectors)
{
    // The Microsoft RSS verification suite (IPv4 with ports, default
    // key): all five vectors.
    EXPECT_EQ(net::toeplitzHash(tuple(ip(66, 9, 149, 187),
                                      ip(161, 142, 100, 80), 2794,
                                      1766)),
              0x51ccc178u);
    EXPECT_EQ(net::toeplitzHash(tuple(ip(199, 92, 111, 2),
                                      ip(65, 69, 140, 83), 14230,
                                      4739)),
              0xc626b0eau);
    EXPECT_EQ(net::toeplitzHash(tuple(ip(24, 19, 198, 95),
                                      ip(12, 22, 207, 184), 12898,
                                      38024)),
              0x5c2b394au);
    EXPECT_EQ(net::toeplitzHash(tuple(ip(38, 27, 205, 30),
                                      ip(209, 142, 163, 6), 48228,
                                      2217)),
              0xafc7327fu);
    EXPECT_EQ(net::toeplitzHash(tuple(ip(153, 39, 163, 191),
                                      ip(202, 188, 127, 2), 44251,
                                      1303)),
              0x10e828a2u);
}

TEST(Toeplitz, MatchesBitSerialDefinition)
{
    // Edge inputs: all-zero, all-ones and each of the 96 single-bit
    // inputs (the single-bit hashes are exactly the key windows).
    EXPECT_EQ(net::toeplitzHash(tuple(0, 0, 0, 0)), 0u);
    const auto ones = tuple(~0u, ~0u, 0xffff, 0xffff);
    EXPECT_EQ(net::toeplitzHash(ones), bitSerialToeplitz(ones));
    for (int b = 0; b < 96; ++b) {
        net::FiveTuple t;
        if (b < 32)
            t.srcIp = 1u << (31 - b);
        else if (b < 64)
            t.dstIp = 1u << (63 - b);
        else if (b < 80)
            t.srcPort = std::uint16_t(1u << (79 - b));
        else
            t.dstPort = std::uint16_t(1u << (95 - b));
        ASSERT_EQ(net::toeplitzHash(t), bitSerialToeplitz(t))
            << "input bit " << b;
    }

    // Random tuples.
    std::uint64_t state = 13;
    for (int i = 0; i < 65536; ++i) {
        const std::uint64_t a = splitmix64(state);
        const std::uint64_t b = splitmix64(state);
        const auto t = tuple(std::uint32_t(a), std::uint32_t(a >> 32),
                             std::uint16_t(b), std::uint16_t(b >> 16));
        ASSERT_EQ(net::toeplitzHash(t), bitSerialToeplitz(t))
            << "tuple " << i;
    }
}

TEST(Toeplitz, Deterministic)
{
    net::FiveTuple t;
    t.srcIp = 0x01020304;
    t.dstIp = 0x05060708;
    t.srcPort = 1;
    t.dstPort = 2;
    EXPECT_EQ(net::toeplitzHash(t), net::toeplitzHash(t));
}

TEST(Toeplitz, SensitiveToEveryField)
{
    net::FiveTuple base;
    base.srcIp = 0x0a000001;
    base.dstIp = 0x0a000002;
    base.srcPort = 1000;
    base.dstPort = 2000;
    const auto h = net::toeplitzHash(base);

    auto t = base;
    t.srcIp ^= 1;
    EXPECT_NE(net::toeplitzHash(t), h);
    t = base;
    t.dstIp ^= 1;
    EXPECT_NE(net::toeplitzHash(t), h);
    t = base;
    t.srcPort ^= 1;
    EXPECT_NE(net::toeplitzHash(t), h);
    t = base;
    t.dstPort ^= 1;
    EXPECT_NE(net::toeplitzHash(t), h);
}

TEST(FiveTuple, EqualityAndHash)
{
    net::FiveTuple a, b;
    a.srcIp = b.srcIp = 5;
    a.dstPort = b.dstPort = 7;
    EXPECT_EQ(a, b);
    EXPECT_EQ(net::FiveTupleHash{}(a), net::FiveTupleHash{}(b));
    b.srcPort = 9;
    EXPECT_NE(a, b);
}

} // anonymous namespace
