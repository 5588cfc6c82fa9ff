/**
 * @file
 * Replacement policy implementations.
 */

#include "replacement.hh"

#include <array>

#include "ckpt/serializer.hh"
#include "sim/logging.hh"

namespace cache
{

void
LruPolicy::init(std::uint32_t numSets, std::uint32_t a)
{
    SIM_ASSERT(a >= 1 && a <= 64, "LRU ages need 1..64 ways");
    assoc = a;
    wordsPerSet = (a + 7) / 8;
    allWays = lowWays(a);
    // One set's initial words, then that pattern copied to every set.
    std::array<std::uint64_t, 8> pattern{};
    for (std::uint32_t b = 0; b < 8 * wordsPerSet; ++b) {
        const std::uint64_t age = b < a ? a - 1 - b : padAge;
        pattern[b >> 3] |= age << (8 * (b & 7));
    }
    ages.clear();
    ages.reserve(std::size_t(numSets) * wordsPerSet);
    for (std::uint32_t set = 0; set < numSets; ++set)
        ages.insert(ages.end(), pattern.begin(),
                    pattern.begin() + wordsPerSet);
}

bool
LruPolicy::agesArePermutation(std::uint32_t set) const
{
    const std::uint64_t *a = setAges(set);
    WayMask seen = 0;
    for (std::uint32_t w = 0; w < 8 * wordsPerSet; ++w) {
        const std::uint32_t age = ageOf(a, w);
        if (w >= assoc) {
            if (age != padAge)
                return false;
        } else if (age >= assoc || (seen >> age & 1)) {
            return false;
        } else {
            seen |= WayMask(1) << age;
        }
    }
    return true;
}

void
RandomPolicy::init(std::uint32_t, std::uint32_t a)
{
    assoc = a;
}

std::uint32_t
RandomPolicy::victim(std::uint32_t, WayMask candidates)
{
    SIM_ASSERT(candidates != 0, "empty candidate mask");
    const int n = __builtin_popcountll(candidates);
    std::uint64_t pick = rng.below(static_cast<std::uint64_t>(n));
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (candidates & (WayMask(1) << w)) {
            if (pick == 0)
                return w;
            --pick;
        }
    }
    sim::panic("random victim selection fell through");
}

void
SrripPolicy::init(std::uint32_t numSets, std::uint32_t a)
{
    assoc = a;
    rrpv.assign(std::size_t(numSets) * assoc,
                static_cast<std::uint8_t>(maxRrpv));
}

void
SrripPolicy::touch(std::uint32_t set, std::uint32_t way)
{
    rrpv[std::size_t(set) * assoc + way] = 0; // hit promotion
}

void
SrripPolicy::fill(std::uint32_t set, std::uint32_t way)
{
    // SRRIP-HP inserts with "long" re-reference prediction.
    rrpv[std::size_t(set) * assoc + way] =
        static_cast<std::uint8_t>(maxRrpv - 1);
}

std::uint32_t
SrripPolicy::victim(std::uint32_t set, WayMask candidates)
{
    SIM_ASSERT(candidates != 0, "empty candidate mask");
    for (;;) {
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (!(candidates & (WayMask(1) << w)))
                continue;
            if (rrpv[std::size_t(set) * assoc + w] >= maxRrpv)
                return w;
        }
        // Age every candidate and retry.
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (candidates & (WayMask(1) << w))
                ++rrpv[std::size_t(set) * assoc + w];
        }
    }
}

void
LruPolicy::serialize(ckpt::Serializer &s) const
{
    s.writePodVec(ages);
}

void
LruPolicy::unserialize(ckpt::Deserializer &d)
{
    auto restored = d.readPodVec<std::uint64_t>();
    if (restored.size() != ages.size())
        sim::fatal("ckpt: LRU age word count mismatch (checkpoint %zu, "
                   "array %zu)",
                   restored.size(), ages.size());
    ages = std::move(restored);
    const auto sets = static_cast<std::uint32_t>(ages.size() / wordsPerSet);
    for (std::uint32_t set = 0; set < sets; ++set) {
        if (!agesArePermutation(set))
            sim::fatal("ckpt: LRU ages of set %u are not a permutation "
                       "of 0..%u",
                       set, assoc - 1);
    }
}

void
RandomPolicy::serialize(ckpt::Serializer &s) const
{
    for (const std::uint64_t w : rng.state())
        s.writeU64(w);
}

void
RandomPolicy::unserialize(ckpt::Deserializer &d)
{
    std::array<std::uint64_t, 4> st;
    for (std::uint64_t &w : st)
        w = d.readU64();
    rng.setState(st);
}

void
SrripPolicy::serialize(ckpt::Serializer &s) const
{
    s.writePodVec(rrpv);
}

void
SrripPolicy::unserialize(ckpt::Deserializer &d)
{
    const auto restored = d.readPodVec<std::uint8_t>();
    if (restored.size() != rrpv.size())
        sim::fatal("ckpt: SRRIP rrpv count mismatch (checkpoint %zu, "
                   "array %zu)",
                   restored.size(), rrpv.size());
    rrpv = restored;
}

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const std::string &name, std::uint64_t seed)
{
    if (name == "lru")
        return std::make_unique<LruPolicy>();
    if (name == "random")
        return std::make_unique<RandomPolicy>(seed);
    if (name == "srrip")
        return std::make_unique<SrripPolicy>();
    sim::fatal("unknown replacement policy '%s'", name.c_str());
}

} // namespace cache
