/**
 * @file
 * TagArray tests: lookups, fills, masked fill slots, capacity, the
 * packed slot word and the per-set LRU ages against plain reference
 * models (64-bit use stamps), and the multiply-shift set-index
 * reduction.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/directory.hh"
#include "cache/replacement.hh"
#include "cache/tag_array.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace
{

using cache::TagArray;

TagArray
makeArray(std::uint64_t size, std::uint32_t assoc)
{
    return TagArray(size, assoc, cache::makeReplacementPolicy("lru"));
}

TEST(TagArray, GeometryFromSize)
{
    TagArray a = makeArray(64 * 1024, 2);
    EXPECT_EQ(a.assoc(), 2u);
    EXPECT_EQ(a.numSets(), 512u);
    EXPECT_EQ(a.capacityBytes(), 64u * 1024);
}

TEST(TagArray, WithSetsFactory)
{
    TagArray a = TagArray::withSets(128, 4,
                                    cache::makeReplacementPolicy("lru"));
    EXPECT_EQ(a.numSets(), 128u);
    EXPECT_EQ(a.capacityBytes(), 128u * 4 * 64);
}

TEST(TagArray, MissOnEmpty)
{
    TagArray a = makeArray(4096, 4);
    EXPECT_FALSE(a.lookup(0x1000));
    EXPECT_FALSE(a.contains(0x1000));
    EXPECT_EQ(a.find(0x1000), TagArray::npos);
}

TEST(TagArray, FillThenHit)
{
    TagArray a = makeArray(4096, 4);
    auto slot = a.findFillSlot(0x1000);
    EXPECT_FALSE(slot.valid());
    a.fill(slot, 0x1000, true, false);

    auto ref = a.lookup(0x1000);
    ASSERT_TRUE(ref);
    EXPECT_TRUE(ref.dirty());
    EXPECT_FALSE(ref.io());
    EXPECT_EQ(ref.addr(), 0x1000u);
}

TEST(TagArray, LookupAlignsAddresses)
{
    TagArray a = makeArray(4096, 4);
    a.fill(a.findFillSlot(0x1000), 0x1000, false, false);
    EXPECT_TRUE(a.lookup(0x1003));
    EXPECT_TRUE(a.lookup(0x103F));
    EXPECT_FALSE(a.lookup(0x1040));
}

TEST(TagArray, FillPrefersInvalidWay)
{
    TagArray a = makeArray(4 * 64, 4); // one set, 4 ways
    a.fill(a.findFillSlot(0x0), 0x0, false, false);
    auto slot = a.findFillSlot(0x1000);
    EXPECT_FALSE(slot.valid());
}

TEST(TagArray, EvictionWhenSetFull)
{
    TagArray a = makeArray(4 * 64, 4); // one set
    for (int i = 0; i < 4; ++i) {
        auto s = a.findFillSlot(i * 64);
        a.fill(s, i * 64, false, false);
    }
    auto victim = a.findFillSlot(0x5000);
    EXPECT_TRUE(victim.valid()); // caller must evict
    // LRU: line 0 was filled first and never touched again.
    EXPECT_EQ(victim.addr(), 0u);
}

TEST(TagArray, MaskedFillSlotStaysInMask)
{
    TagArray a = makeArray(8 * 64, 8); // one set, 8 ways
    for (int i = 0; i < 8; ++i)
        a.fill(a.findFillSlot(i * 64), i * 64, false, false);
    // DDIO-style: only ways 0-1 are candidates.
    for (int i = 0; i < 32; ++i) {
        auto slot = a.findFillSlot(0x9000 + i * 64, 0b11);
        EXPECT_LT(slot.way, 2u);
        a.invalidate(slot);
        a.fill(slot, 0x9000 + i * 64, false, true);
    }
    // Ways 2..7 still hold the original lines.
    for (int i = 2; i < 8; ++i)
        EXPECT_TRUE(a.lookup(i * 64));
}

TEST(TagArray, InvalidateClearsLine)
{
    TagArray a = makeArray(4096, 4);
    a.fill(a.findFillSlot(0x40), 0x40, true, true);
    auto ref = a.lookup(0x40);
    ASSERT_TRUE(ref);
    a.invalidate(ref);
    EXPECT_FALSE(a.lookup(0x40));
    // The slot keeps its stale address with every flag cleared.
    const cache::CacheLine l = a.lineAt(ref.set, ref.way);
    EXPECT_EQ(l.addr, 0x40u);
    EXPECT_FALSE(l.valid || l.dirty || l.io);
}

TEST(TagArray, CountValidWithPredicate)
{
    TagArray a = makeArray(4096, 4);
    a.fill(a.findFillSlot(0x00), 0x00, false, true);
    a.fill(a.findFillSlot(0x40), 0x40, false, false);
    a.fill(a.findFillSlot(0x80), 0x80, true, true);

    EXPECT_EQ(a.countValid(), 3u);
    EXPECT_EQ(a.countValid([](const cache::CacheLine &l, std::uint32_t) {
                  return l.io;
              }),
              2u);
    EXPECT_EQ(a.countValid([](const cache::CacheLine &l, std::uint32_t) {
                  return l.dirty;
              }),
              1u);
}

TEST(TagArray, ClearEmptiesEverything)
{
    TagArray a = makeArray(4096, 4);
    for (int i = 0; i < 16; ++i)
        a.fill(a.findFillSlot(i * 64), i * 64, false, false);
    a.clear();
    EXPECT_EQ(a.countValid(), 0u);
}

TEST(TagArray, TouchAffectsLruOrder)
{
    TagArray a = makeArray(2 * 64, 2); // one set, 2 ways
    a.fill(a.findFillSlot(0x00), 0x00, false, false);
    a.fill(a.findFillSlot(0x40), 0x40, false, false);
    auto ref = a.lookup(0x00);
    a.touch(ref); // way holding 0x00 is now MRU
    auto victim = a.findFillSlot(0x9000);
    EXPECT_EQ(victim.addr(), 0x40u);
}

TEST(TagArrayDeath, BadGeometryIsFatal)
{
    EXPECT_EXIT(makeArray(100, 4), ::testing::ExitedWithCode(1),
                "cache size");
    EXPECT_EXIT(makeArray(4096, 0), ::testing::ExitedWithCode(1),
                "associativity");
    EXPECT_EXIT(TagArray::withSets(16, 65,
                                   cache::makeReplacementPolicy("lru")),
                ::testing::ExitedWithCode(1), "associativity");
    // The directory builds its array with withSets: the same check
    // must fire before its set count divides by the associativity.
    EXPECT_EXIT(
        {
            sim::Simulation s;
            cache::MlcDirectory dir(s, "dir", 64, 0, "lru");
        },
        ::testing::ExitedWithCode(1), "associativity");
    EXPECT_EXIT(
        {
            sim::Simulation s;
            cache::MlcDirectory dir(s, "dir", 4096, 65, "lru");
        },
        ::testing::ExitedWithCode(1), "associativity");
}

/**
 * Plain reference model: one struct per way plus LRU stamps, with the
 * documented fill-slot rule (lowest free candidate, else the candidate
 * with the oldest stamp, lowest way on ties).
 */
class RefArray
{
  public:
    RefArray(std::uint32_t sets, std::uint32_t ways)
        : nSets(sets), nWays(ways), lines(std::size_t(sets) * ways),
          stamps(std::size_t(sets) * ways, 0)
    {
    }

    std::uint32_t setOf(sim::Addr a) const
    {
        return static_cast<std::uint32_t>(mem::lineNumber(a) % nSets);
    }

    cache::CacheLine &at(std::uint32_t s, std::uint32_t w)
    {
        return lines[std::size_t(s) * nWays + w];
    }

    /** Way holding @p a, or nWays. */
    std::uint32_t
    find(sim::Addr a)
    {
        const std::uint32_t s = setOf(a);
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if (at(s, w).valid && at(s, w).addr == mem::lineAlign(a))
                return w;
        }
        return nWays;
    }

    std::uint32_t
    fillSlot(sim::Addr a, cache::WayMask cand)
    {
        const std::uint32_t s = setOf(a);
        cand &= cache::lowWays(nWays);
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if ((cand >> w & 1) && !at(s, w).valid)
                return w;
        }
        std::uint32_t best = nWays;
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if ((cand >> w & 1) &&
                (best == nWays ||
                 stamps[std::size_t(s) * nWays + w] <
                     stamps[std::size_t(s) * nWays + best]))
                best = w;
        }
        return best;
    }

    void touch(std::uint32_t s, std::uint32_t w)
    {
        stamps[std::size_t(s) * nWays + w] = ++clock;
    }

    void
    fill(std::uint32_t s, std::uint32_t w, sim::Addr a, bool dirty,
         bool io)
    {
        at(s, w) = cache::CacheLine{mem::lineAlign(a), true, dirty, io,
                                    false, false};
        touch(s, w);
    }

    void
    invalidate(std::uint32_t s, std::uint32_t w)
    {
        at(s, w) = cache::CacheLine{at(s, w).addr, false, false, false,
                                    false, false};
    }

    std::uint32_t nSets;
    std::uint32_t nWays;
    std::vector<cache::CacheLine> lines;
    std::vector<std::uint64_t> stamps;
    std::uint64_t clock = 0;
};

void
expectSameState(const TagArray &a, RefArray &r)
{
    for (std::uint32_t s = 0; s < r.nSets; ++s) {
        for (std::uint32_t w = 0; w < r.nWays; ++w) {
            const cache::CacheLine got = a.lineAt(s, w);
            const cache::CacheLine &want = r.at(s, w);
            ASSERT_EQ(got.valid, want.valid) << s << "/" << w;
            ASSERT_EQ(got.addr, want.addr) << s << "/" << w;
            ASSERT_EQ(got.dirty, want.dirty) << s << "/" << w;
            ASSERT_EQ(got.io, want.io) << s << "/" << w;
            ASSERT_EQ(got.prefetched, want.prefetched) << s << "/" << w;
            ASSERT_EQ(got.ddioAlloc, want.ddioAlloc) << s << "/" << w;
        }
    }
}

/**
 * A victim candidate mask as the hierarchy builds them: all ways, a
 * DDIO partition (the low ways), a CAT allocation (a contiguous run)
 * or an arbitrary nonempty subset.
 */
cache::WayMask
candidateMask(sim::Rng &rng, std::uint32_t ways)
{
    switch (rng.below(4)) {
      case 0:
        return ~cache::WayMask(0);
      case 1:
        return cache::lowWays(1 + std::uint32_t(rng.below(ways)));
      case 2: {
        const auto lo = std::uint32_t(rng.below(ways));
        const auto n = 1 + std::uint32_t(rng.below(ways - lo));
        return cache::lowWays(n) << lo;
      }
      default: {
        const cache::WayMask m = rng.next() & cache::lowWays(ways);
        return m != 0 ? m : cache::WayMask(1) << rng.below(ways);
      }
    }
}

/** Random op mix on the packed array and the model, in lockstep. */
void
runDifferential(std::uint32_t sets, std::uint32_t ways,
                std::uint64_t seed)
{
    TagArray a =
        TagArray::withSets(sets, ways, cache::makeReplacementPolicy("lru"));
    RefArray r(sets, ways);
    sim::Rng rng(seed);
    // Three lines per slot on average, plus high addresses that use
    // every tag bit; in-line offsets exercise the alignment.
    const std::uint64_t pool = std::uint64_t(sets) * ways * 3;
    auto randomAddr = [&]() -> sim::Addr {
        sim::Addr line = rng.below(pool);
        if (rng.below(4) == 0)
            line |= (std::uint64_t(1) << 57) | (rng.next() >> 8 << 20);
        return (line << mem::lineShift) | rng.below(mem::lineSize);
    };
    auto randomMask = [&]() { return candidateMask(rng, ways); };

    for (int op = 0; op < 20000; ++op) {
        const sim::Addr addr = randomAddr();
        const std::uint32_t refWay = r.find(addr);
        const bool refHit = refWay < ways;
        switch (rng.below(6)) {
          case 0: { // lookup (+ touch)
            const cache::LineRef ref = a.lookup(addr);
            ASSERT_EQ(bool(ref), refHit) << "op " << op;
            if (refHit) {
                ASSERT_EQ(ref.way, refWay);
                ASSERT_EQ(a.find(addr), std::size_t(ref.set) * ways +
                                            ref.way);
                if (rng.below(2) == 0) {
                    a.touch(ref);
                    r.touch(ref.set, ref.way);
                }
            }
            ASSERT_EQ(a.contains(addr), refHit);
            break;
          }
          case 1:
          case 2: { // findFillSlot (+ fill on a miss)
            const cache::WayMask mask = randomMask();
            const cache::LineRef slot = a.findFillSlot(addr, mask);
            ASSERT_EQ(slot.set, r.setOf(addr));
            ASSERT_EQ(slot.way, r.fillSlot(addr, mask)) << "op " << op;
            if (!refHit && rng.below(4) != 0) {
                const bool dirty = rng.below(2);
                const bool io = rng.below(2);
                a.fill(slot, addr, dirty, io);
                r.fill(slot.set, slot.way, addr, dirty, io);
            }
            break;
          }
          case 3: { // lookupOrFillSlot
            const cache::WayMask mask = randomMask();
            const TagArray::Probe p = a.lookupOrFillSlot(addr, mask);
            ASSERT_EQ(p.hit, refHit) << "op " << op;
            ASSERT_EQ(p.slot.way,
                      refHit ? refWay : r.fillSlot(addr, mask));
            if (!refHit) {
                a.fill(p.slot, addr, false, true);
                r.fill(p.slot.set, p.slot.way, addr, false, true);
            }
            break;
          }
          case 4: { // invalidate a resident line
            if (!refHit)
                break;
            a.invalidate(a.lookup(addr));
            r.invalidate(r.setOf(addr), refWay);
            break;
          }
          case 5: { // flag setters on a resident line
            if (!refHit)
                break;
            const cache::LineRef ref = a.lookup(addr);
            cache::CacheLine &l = r.at(ref.set, ref.way);
            const bool v = rng.below(2);
            switch (rng.below(4)) {
              case 0: ref.setDirty(v); l.dirty = v; break;
              case 1: ref.setIo(v); l.io = v; break;
              case 2: ref.setPrefetched(v); l.prefetched = v; break;
              default: ref.setDdioAlloc(v); l.ddioAlloc = v; break;
            }
            break;
          }
        }
        expectSameState(a, r);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    std::uint64_t valid = 0;
    for (const auto &l : r.lines)
        valid += l.valid;
    EXPECT_EQ(a.countValid(), valid);
}

TEST(TagArrayDifferential, PowerOfTwoSetsMatchReferenceModel)
{
    runDifferential(8, 8, 1);
    runDifferential(4, 64, 2);
    runDifferential(16, 1, 3);
}

TEST(TagArrayDifferential, NonPowerOfTwoSetsMatchReferenceModel)
{
    runDifferential(12, 6, 4);
    runDifferential(3, 16, 5);
    runDifferential(23, 3, 6);
}

TEST(TagArrayDifferential, LlcAndDirectoryAssociativitiesMatch)
{
    runDifferential(8, 2, 7);
    runDifferential(6, 12, 8);
    runDifferential(4, 33, 9);
    runDifferential(5, 11, 10);
}

/**
 * LruPolicy on its own against a global 64-bit use-stamp clock (zero
 * stamps = never touched, ties to the lowest way): sparse touches
 * leave many ways untouched, so victims often fall among them. The
 * full age state is compared after every operation.
 */
void
runLruDifferential(std::uint32_t sets, std::uint32_t ways,
                   std::uint64_t seed)
{
    cache::LruPolicy lru;
    lru.init(sets, ways);
    std::vector<std::uint64_t> stamps(std::size_t(sets) * ways, 0);
    std::uint64_t clock = 0;
    sim::Rng rng(seed);

    auto stamp = [&](std::uint32_t s, std::uint32_t w) {
        return stamps[std::size_t(s) * ways + w];
    };
    // Recency rank of w: the ways used after it, or never-touched
    // ways above it, are more recent.
    auto refAge = [&](std::uint32_t s, std::uint32_t w) {
        std::uint32_t age = 0;
        for (std::uint32_t v = 0; v < ways; ++v) {
            if (stamp(s, v) > stamp(s, w) ||
                (stamp(s, v) == 0 && stamp(s, w) == 0 && v > w))
                ++age;
        }
        return age;
    };
    auto refVictim = [&](std::uint32_t s, cache::WayMask cand) {
        std::uint32_t best = ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if ((cand >> w & 1) &&
                (best == ways || stamp(s, w) < stamp(s, best)))
                best = w;
        }
        return best;
    };

    for (int op = 0; op < 4000; ++op) {
        const auto s = std::uint32_t(rng.below(sets));
        if (rng.below(3) == 0) {
            // Concentrate touches on a few ways so others stay cold.
            const auto w = std::uint32_t(
                rng.below(rng.below(2) ? ways : (ways + 3) / 4));
            lru.touch(s, w);
            stamps[std::size_t(s) * ways + w] = ++clock;
        } else {
            const cache::WayMask cand = candidateMask(rng, ways);
            ASSERT_EQ(lru.victim(s, cand),
                      refVictim(s, cand & cache::lowWays(ways)))
                << "op " << op << " set " << s << " mask " << cand;
        }
        for (std::uint32_t w = 0; w < ways; ++w)
            ASSERT_EQ(lru.age(s, w), refAge(s, w))
                << "op " << op << " set " << s << " way " << w;
        ASSERT_TRUE(lru.agesArePermutation(s));
    }
}

TEST(LruDifferential, AgesMatchAStampClockAtEveryAssociativity)
{
    std::uint64_t seed = 100;
    for (const std::uint32_t ways : {1u, 2u, 8u, 12u, 16u, 33u, 64u}) {
        SCOPED_TRACE(ways);
        runLruDifferential(3, ways, ++seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(SetReducer, EqualsModuloOnEdgeAndRandomLines)
{
    constexpr std::uint64_t maxLine =
        (std::uint64_t(1) << cache::SetReducer::lineBits) - 1;
    std::vector<std::uint32_t> divisors = {
        3,          5,          6,          7,          12,
        1000,       1536,       3 * 1536,   49152,      1536 * 31,
        0x7fffffff, 0x80000001, 0xfffffffd, 0xffffffff};
    sim::Rng rng(99);
    for (int i = 0; i < 64; ++i) {
        const auto d = static_cast<std::uint32_t>(rng.next() | 1);
        if (d >= 3)
            divisors.push_back(d); // odd, so never a power of two
    }
    for (const std::uint32_t d : divisors) {
        const cache::SetReducer reduce(d);
        std::vector<std::uint64_t> lines = {
            0, 1, d - 1u, d, d + 1u, 2ull * d - 1, maxLine, maxLine - 1,
            maxLine / d * d, maxLine / d * d - 1, (maxLine / d - 1) * d};
        for (int i = 0; i < 2000; ++i)
            lines.push_back(rng.next() & maxLine);
        for (const std::uint64_t n : lines)
            ASSERT_EQ(reduce(n), n % d) << n << " % " << d;
    }
}

TEST(SetReducer, DirectorySetIndexIsLineModuloSets)
{
    // 1536 sets per core at the 32-core geometry: 49,152 sets.
    TagArray a = TagArray::withSets(49152, 16,
                                    cache::makeReplacementPolicy("lru"));
    sim::Rng rng(7);
    std::vector<sim::Addr> addrs = {0, 63, 64, 49152ull * 64 - 1,
                                    49152ull * 64, ~sim::Addr(0)};
    for (int i = 0; i < 10000; ++i)
        addrs.push_back(rng.next());
    for (const sim::Addr addr : addrs)
        ASSERT_EQ(a.setIndex(addr), mem::lineNumber(addr) % 49152u);
}

} // anonymous namespace
