/**
 * @file
 * Flow identification and RSS/Flow-Director hashing.
 */

#ifndef IDIO_NET_FLOW_HH
#define IDIO_NET_FLOW_HH

#include <array>
#include <cstdint>
#include <functional>

#include "net/headers.hh"

namespace net
{

/**
 * Canonical 5-tuple identifying a flow.
 */
struct FiveTuple
{
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    IpProto proto = IpProto::Udp;

    bool operator==(const FiveTuple &) const = default;
};

/** The default Microsoft RSS key (40 bytes). */
inline constexpr std::array<std::uint8_t, 40> defaultRssKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
};

/**
 * Toeplitz hash of the 5-tuple with defaultRssKey, as used by RSS and
 * Flow Director's signature filters. The input is the standard
 * IPv4-with-ports RSS string (srcIp | dstIp | srcPort | dstPort, 12
 * bytes big-endian; the protocol is not hashed). Table-driven: one
 * precomputed 256-entry table per input byte.
 */
std::uint32_t toeplitzHash(const FiveTuple &tuple);

/** Cheap structural hash for container keys. */
struct FiveTupleHash
{
    std::size_t
    operator()(const FiveTuple &t) const
    {
        std::uint64_t h = t.srcIp;
        h = h * 0x100000001b3ULL ^ t.dstIp;
        h = h * 0x100000001b3ULL ^ t.srcPort;
        h = h * 0x100000001b3ULL ^ t.dstPort;
        h = h * 0x100000001b3ULL ^ static_cast<std::uint8_t>(t.proto);
        return static_cast<std::size_t>(h);
    }
};

} // namespace net

#endif // IDIO_NET_FLOW_HH
