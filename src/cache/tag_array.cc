/**
 * @file
 * TagArray implementation.
 */

#include "tag_array.hh"

#include <algorithm>

#include "ckpt/serializer.hh"

namespace cache
{

namespace
{

std::uint32_t
setsFromSize(std::uint64_t sizeBytes, std::uint32_t assoc)
{
    // Before the division below; checkedSets repeats it harmlessly.
    TagArray::checkAssoc(assoc);
    const std::uint64_t lines = sizeBytes / mem::lineSize;
    if (lines == 0 || lines % assoc != 0) {
        sim::fatal("cache size %llu not divisible into %u ways of "
                   "64B lines",
                   (unsigned long long)sizeBytes, assoc);
    }
    return static_cast<std::uint32_t>(lines / assoc);
}

/** Geometry checks shared by every constructor, before allocation. */
std::uint32_t
checkedSets(std::uint32_t numSets, std::uint32_t assoc)
{
    TagArray::checkAssoc(assoc);
    if (numSets == 0)
        sim::fatal("cache needs at least one set");
    return numSets;
}

} // anonymous namespace

SetReducer::SetReducer(std::uint32_t d) : div(d)
{
    SIM_ASSERT(d >= 3 && !std::has_single_bit(d),
               "SetReducer needs a non-power-of-two divisor");
    const unsigned k = std::max<unsigned>(
        lineBits + static_cast<unsigned>(std::bit_width(d - 1)), 64);
    const unsigned __int128 m =
        ((static_cast<unsigned __int128>(1) << k) + d - 1) / d;
    SIM_ASSERT((m >> 64) == 0, "SetReducer multiplier overflows");
    mul = static_cast<std::uint64_t>(m);
    shift = k - 64;
}

void
TagArray::checkAssoc(std::uint32_t assoc)
{
    if (assoc == 0 || assoc > 64)
        sim::fatal("cache associativity %u out of range [1, 64]", assoc);
}

TagArray::TagArray(std::uint64_t sizeBytes, std::uint32_t assoc,
                   std::unique_ptr<ReplacementPolicy> policy)
    : TagArray(setsFromSize(sizeBytes, assoc), assoc, std::move(policy),
               0)
{
}

TagArray::TagArray(std::uint32_t numSets, std::uint32_t assoc,
                   std::unique_ptr<ReplacementPolicy> pol, int)
    : nSets(checkedSets(numSets, assoc)), nWays(assoc),
      setsPow2(std::has_single_bit(numSets)),
      setMask(numSets - 1), policy(std::move(pol)),
      slots(std::size_t(numSets) * assoc, SlotBits::invalid),
      freeWays(numSets, lowWays(assoc))
{
    if (!setsPow2)
        reduce = SetReducer(numSets);
    policy->init(nSets, nWays);
    if (policy->kind() == ReplKind::Lru)
        lruFast = static_cast<LruPolicy *>(policy.get());
}

TagArray
TagArray::withSets(std::uint32_t numSets, std::uint32_t assoc,
                   std::unique_ptr<ReplacementPolicy> policy)
{
    return TagArray(numSets, assoc, std::move(policy), 0);
}

std::uint64_t
TagArray::countValid(
    const std::function<bool(const CacheLine &, std::uint32_t)> &pred)
    const
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i] & SlotBits::invalid)
            continue;
        if (!pred ||
            pred(SlotBits::decode(slots[i]),
                 static_cast<std::uint32_t>(i % nWays)))
            ++n;
    }
    return n;
}

void
TagArray::clear()
{
    std::fill(slots.begin(), slots.end(), SlotBits::invalid);
    std::fill(freeWays.begin(), freeWays.end(), lowWays(nWays));
}

void
TagArray::serialize(ckpt::Serializer &s,
                    std::span<const std::uint64_t> sharers) const
{
    SIM_ASSERT(sharers.empty() || sharers.size() == slots.size(),
               "one sharer mask per slot");
    s.writeU32(nSets);
    s.writeU32(nWays);
    s.writePodVec(slots);
    s.writePodSpan(sharers);
    policy->serialize(s);
}

void
TagArray::unserialize(ckpt::Deserializer &d,
                      std::span<std::uint64_t> sharers)
{
    SIM_ASSERT(sharers.empty() || sharers.size() == slots.size(),
               "one sharer mask per slot");
    const std::uint32_t sets = d.readU32();
    const std::uint32_t ways = d.readU32();
    if (sets != nSets || ways != nWays) {
        sim::fatal("ckpt: tag-array geometry mismatch (checkpoint "
                   "%ux%u, config %ux%u)",
                   sets, ways, nSets, nWays);
    }
    auto words = d.readPodVec<std::uint64_t>();
    if (words.size() != slots.size()) {
        sim::fatal("ckpt: tag-array slot count mismatch (checkpoint "
                   "%zu, config %zu)",
                   words.size(), slots.size());
    }
    for (std::size_t i = 0; i < words.size(); ++i) {
        if (words[i] & (mem::lineSize - 1) & ~SlotBits::flagMask) {
            sim::fatal("ckpt: tag-array slot %zu holds unaligned "
                       "address %#llx",
                       i, (unsigned long long)(words[i] &
                                               ~SlotBits::flagMask));
        }
    }
    const auto masks = d.readPodVec<std::uint64_t>();
    if (sharers.empty() && !masks.empty()) {
        sim::fatal("ckpt: sharer masks on a non-directory tag array "
                   "(%zu masks)",
                   masks.size());
    }
    if (masks.size() != sharers.size()) {
        sim::fatal("ckpt: sharer mask count mismatch (checkpoint %zu, "
                   "directory %zu)",
                   masks.size(), sharers.size());
    }
    std::copy(masks.begin(), masks.end(), sharers.begin());
    slots = std::move(words);
    // Rebuild the derived free-way masks.
    for (std::uint32_t set = 0; set < nSets; ++set) {
        WayMask free = 0;
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if (slots[std::size_t(set) * nWays + w] & SlotBits::invalid)
                free |= WayMask(1) << w;
        }
        freeWays[set] = free;
    }
    policy->unserialize(d);
}

} // namespace cache
