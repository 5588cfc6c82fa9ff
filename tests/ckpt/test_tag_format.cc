/**
 * @file
 * Checkpoint format lock (format v4) for tag arrays and the MLC
 * directory: after the geometry (u32 sets, u32 ways) come three
 * length-prefixed little-endian u64 vectors, written in bulk: the
 * packed slot words (address | invalid 1 | dirty 2 | io 4 |
 * prefetched 8 | ddioAlloc 16), the directory's sharer masks (empty
 * for a cache) and the LRU age words (one byte per way, eight per
 * word, 0x7f padding). A restore followed by a save reproduces the
 * bytes exactly, and a blob of an older format is refused.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/directory.hh"
#include "cache/tag_array.hh"
#include "ckpt/serializer.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace
{

using Words = std::vector<std::uint64_t>;

/** The expected section, every vector element written one by one. */
std::vector<std::uint8_t>
expectedBlob(const char *section, std::uint32_t sets, std::uint32_t ways,
             const Words &slots, const Words &sharers, const Words &ages)
{
    ckpt::Serializer s;
    s.beginSection(section);
    s.writeU32(sets);
    s.writeU32(ways);
    for (const Words *v : {&slots, &sharers, &ages}) {
        s.writeU64(v->size());
        for (const std::uint64_t w : *v)
            s.writeU64(w);
    }
    s.endSection();
    return s.finish(1, 0);
}

template <typename T>
std::vector<std::uint8_t>
save(const char *section, const T &obj)
{
    ckpt::Serializer s;
    s.beginSection(section);
    obj.serialize(s);
    s.endSection();
    return s.finish(1, 0);
}

template <typename T>
void
restore(const char *section, const std::vector<std::uint8_t> &blob,
        T &obj)
{
    ckpt::Deserializer d(blob);
    d.beginSection(section);
    obj.unserialize(d);
    d.endSection();
}

cache::TagArray
smallArray()
{
    return cache::TagArray::withSets(4, 2,
                                     cache::makeReplacementPolicy("lru"));
}

/** Age word of a 2-way set: way 0's age in byte 0, way 1's in byte 1. */
constexpr std::uint64_t
twoWayAges(std::uint64_t way0, std::uint64_t way1)
{
    return 0x7f7f7f7f7f7f0000ull | way1 << 8 | way0;
}

TEST(CkptTagFormat, TagArrayBytesArePlainDataVectors)
{
    cache::TagArray a = smallArray();
    // Untouched: way 0 is the oldest (age 1), way 1 age 0.
    EXPECT_EQ(save("t", a),
              expectedBlob("t", 4, 2, Words(8, 0x001), {},
                           Words(4, twoWayAges(1, 0))));

    auto s = a.findFillSlot(0x000); // set 0, way 0
    a.fill(s, 0x000, false, false);
    s = a.findFillSlot(0x040); // set 1, way 0
    a.fill(s, 0x040, true, true);
    s = a.findFillSlot(0x080); // set 2, way 0
    a.fill(s, 0x080, false, false);
    s.setPrefetched(true);
    s = a.findFillSlot(0x0c0); // set 3, way 0
    a.fill(s, 0x0c0, true, true);
    s.setDdioAlloc(true);
    s = a.findFillSlot(0x100); // set 0, way 1
    ASSERT_EQ(s.set, 0u);
    ASSERT_EQ(s.way, 1u);
    a.fill(s, 0x100, true, false);
    a.invalidate(a.lookup(0x100)); // stale address stays
    a.touch(a.lookup(0x000));      // way 0 most recent again

    const Words slots = {0x000, 0x101, 0x046, 0x001,
                         0x088, 0x001, 0x0d6, 0x001};
    const auto blob = save("t", a);
    EXPECT_EQ(blob, expectedBlob("t", 4, 2, slots, {},
                                 Words(4, twoWayAges(0, 1))));

    cache::TagArray b = smallArray();
    restore("t", blob, b);
    EXPECT_EQ(save("t", b), blob);
    EXPECT_TRUE(b.lookup(0x0c0).ddioAlloc());
    EXPECT_FALSE(b.contains(0x100));
    // The free-way masks were rebuilt: set 0's way 1 is free again.
    EXPECT_EQ(b.findFillSlot(0x200).way, 1u);
}

TEST(CkptTagFormat, DirectoryBytesCarryItsSharerMasks)
{
    sim::Simulation sim;
    // 6 entries, 2 ways: 3 sets, the non-power-of-two index path.
    cache::MlcDirectory dir(sim, "dir", 6, 2, "lru");
    ASSERT_EQ(dir.tags().numSets(), 3u);

    dir.add(0, 0x000);    // line 0 -> set 0, way 0
    dir.add(3, 0x000);    // hit: sharers 0b1001
    dir.add(1, 0x040);    // line 1 -> set 1, way 0
    dir.add(2, 0x0c0);    // line 3 -> set 0, way 1
    dir.remove(2, 0x0c0); // last sharer gone: stale address stays
    dir.add(5, 0x080);    // line 2 -> set 2, way 0

    const Words slots = {0x000, 0x0c1, 0x040, 0x001, 0x080, 0x001};
    const Words sharers = {0b1001, 0, 0b10, 0, 1u << 5, 0};
    const Words ages = {twoWayAges(1, 0), twoWayAges(0, 1),
                        twoWayAges(0, 1)};
    const auto blob = save("dir", dir);
    EXPECT_EQ(blob, expectedBlob("dir", 3, 2, slots, sharers, ages));

    sim::Simulation sim2;
    cache::MlcDirectory dir2(sim2, "dir", 6, 2, "lru");
    restore("dir", blob, dir2);
    EXPECT_EQ(save("dir", dir2), blob);
    EXPECT_EQ(dir2.sharersOf(0x000), 0b1001u);
    EXPECT_EQ(dir2.sharersOf(0x0c0), 0u);
    EXPECT_EQ(dir2.sharersAt(2, 0), 1u << 5);
}

TEST(CkptTagFormat, RestoreThenSaveIsIdenticalAtTwelveWays)
{
    auto make = [] {
        return cache::TagArray::withSets(
            4, 12, cache::makeReplacementPolicy("lru"));
    };
    cache::TagArray a = make();
    sim::Rng rng(5);
    for (int i = 0; i < 400; ++i) {
        const sim::Addr addr = rng.below(160) << 6;
        const auto [slot, hit] =
            a.lookupOrFillSlot(addr, cache::lowWays(2 + rng.below(11)));
        if (hit)
            a.touch(slot);
        else if (rng.below(5) == 0 && slot.valid())
            a.invalidate(slot);
        else
            a.fill(slot, addr, rng.below(2), rng.below(2));
    }
    const auto blob = save("t", a);
    cache::TagArray b = make();
    restore("t", blob, b);
    EXPECT_EQ(save("t", b), blob);
    // The ages came back too: the same victims under every mask.
    for (std::uint32_t set = 0; set < 4; ++set) {
        for (std::uint32_t n = 1; n <= 12; ++n) {
            const sim::Addr addr = sim::Addr(set) << 6;
            EXPECT_EQ(a.findFillSlot(addr, cache::lowWays(n)).way,
                      b.findFillSlot(addr, cache::lowWays(n)).way);
        }
    }
}

TEST(CkptTagFormatDeath, SharerMaskOnACacheArrayIsFatal)
{
    Words sharers(8, 0);
    sharers[0] = 0b1;
    const auto blob = expectedBlob("t", 4, 2, Words(8, 0x001), sharers,
                                   Words(4, twoWayAges(1, 0)));
    cache::TagArray a = smallArray();
    EXPECT_EXIT(restore("t", blob, a), ::testing::ExitedWithCode(1),
                "sharer masks on a non-directory");
}

TEST(CkptTagFormatDeath, UnalignedSlotAddressIsFatal)
{
    Words slots(8, 0x001);
    slots[2] = 0x060; // bit 5 is no flag: address 0x60
    const auto blob =
        expectedBlob("t", 4, 2, slots, {}, Words(4, twoWayAges(1, 0)));
    cache::TagArray a = smallArray();
    EXPECT_EXIT(restore("t", blob, a), ::testing::ExitedWithCode(1),
                "unaligned address");
}

TEST(CkptTagFormatDeath, LruAgesThatAreNotAPermutationAreFatal)
{
    Words ages(4, twoWayAges(1, 0));
    ages[3] = twoWayAges(1, 1);
    const auto blob = expectedBlob("t", 4, 2, Words(8, 0x001), {}, ages);
    cache::TagArray a = smallArray();
    EXPECT_EXIT(restore("t", blob, a), ::testing::ExitedWithCode(1),
                "LRU ages of set 3 are not a permutation");
}

TEST(CkptTagFormatDeath, Version3BlobIsRefused)
{
    auto blob = save("t", smallArray());
    // The u32 format version follows the 8-byte magic.
    ASSERT_EQ(blob[8], ckpt::formatVersion);
    blob[8] = 3;
    EXPECT_EXIT(ckpt::Deserializer d(blob), ::testing::ExitedWithCode(1),
                "format version mismatch \\(file 3, simulator 4\\)");
}

} // anonymous namespace
