/**
 * @file
 * Checkpoint format lock for tag arrays and the MLC directory: the
 * serialized bytes equal a buffer built field by field (per slot: addr,
 * valid, dirty, io, prefetched, ddioAlloc, sharers; then the LRU clock
 * and stamps), whatever the in-memory slot layout, and a restore
 * followed by a save reproduces them exactly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/directory.hh"
#include "cache/tag_array.hh"
#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace
{

struct Slot
{
    sim::Addr addr = 0;
    bool valid = false;
    bool dirty = false;
    bool io = false;
    bool prefetched = false;
    bool ddioAlloc = false;
    std::uint64_t sharers = 0;
};

/** The expected section, written one field at a time. */
std::vector<std::uint8_t>
expectedBlob(const char *section, std::uint32_t sets, std::uint32_t ways,
             const std::vector<Slot> &slots, std::uint64_t clock,
             const std::vector<std::uint64_t> &stamps)
{
    ckpt::Serializer s;
    s.beginSection(section);
    s.writeU32(sets);
    s.writeU32(ways);
    for (const Slot &l : slots) {
        s.writeU64(l.addr);
        s.writeBool(l.valid);
        s.writeBool(l.dirty);
        s.writeBool(l.io);
        s.writeBool(l.prefetched);
        s.writeBool(l.ddioAlloc);
        s.writeU64(l.sharers);
    }
    s.writeU64(clock);
    s.writePodVec(stamps);
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

TEST(CkptTagFormat, TagArrayBytesAreFieldByField)
{
    cache::TagArray a = smallArray();

    auto s = a.findFillSlot(0x000); // set 0, way 0; stamp 1
    a.fill(s, 0x000, false, false);
    s = a.findFillSlot(0x040); // set 1, way 0; stamp 2
    a.fill(s, 0x040, true, true);
    s = a.findFillSlot(0x080); // set 2, way 0; stamp 3
    a.fill(s, 0x080, false, false);
    s.setPrefetched(true);
    s = a.findFillSlot(0x0c0); // set 3, way 0; stamp 4
    a.fill(s, 0x0c0, true, true);
    s.setDdioAlloc(true);
    s = a.findFillSlot(0x100); // set 0, way 1; stamp 5
    ASSERT_EQ(s.set, 0u);
    ASSERT_EQ(s.way, 1u);
    a.fill(s, 0x100, true, false);
    a.invalidate(a.lookup(0x100)); // stale address stays
    a.touch(a.lookup(0x000));      // stamp 6

    const std::vector<Slot> slots = {
        {0x000, true, false, false, false, false, 0},
        {0x100, false, false, false, false, false, 0},
        {0x040, true, true, true, false, false, 0},
        {},
        {0x080, true, false, false, true, false, 0},
        {},
        {0x0c0, true, true, true, false, true, 0},
        {},
    };
    const auto blob = save("t", a);
    EXPECT_EQ(blob,
              expectedBlob("t", 4, 2, slots, 6, {6, 5, 2, 0, 3, 0, 4, 0}));

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

    dir.add(0, 0x000);    // line 0 -> set 0, way 0; stamp 1
    dir.add(3, 0x000);    // hit: sharers 0b1001; stamp 2
    dir.add(1, 0x040);    // line 1 -> set 1, way 0; stamp 3
    dir.add(2, 0x0c0);    // line 3 -> set 0, way 1; stamp 4
    dir.remove(2, 0x0c0); // last sharer gone: stale address stays
    dir.add(5, 0x080);    // line 2 -> set 2, way 0; stamp 5

    const std::vector<Slot> slots = {
        {0x000, true, false, false, false, false, 0b1001},
        {0x0c0, false, false, false, false, false, 0},
        {0x040, true, false, false, false, false, 0b10},
        {},
        {0x080, true, false, false, false, false, 1u << 5},
        {},
    };
    const auto blob = save("dir", dir);
    EXPECT_EQ(blob,
              expectedBlob("dir", 3, 2, slots, 5, {2, 4, 3, 0, 5, 0}));

    sim::Simulation sim2;
    cache::MlcDirectory dir2(sim2, "dir", 6, 2, "lru");
    restore("dir", blob, dir2);
    EXPECT_EQ(save("dir", dir2), blob);
    EXPECT_EQ(dir2.sharersOf(0x000), 0b1001u);
    EXPECT_EQ(dir2.sharersOf(0x0c0), 0u);
    EXPECT_EQ(dir2.sharersAt(2, 0), 1u << 5);
}

TEST(CkptTagFormatDeath, SharerMaskOnACacheArrayIsFatal)
{
    std::vector<Slot> slots(8);
    slots[0] = {0x000, true, false, false, false, false, 0b1};
    const auto blob =
        expectedBlob("t", 4, 2, slots, 0, std::vector<std::uint64_t>(8));
    cache::TagArray a = smallArray();
    EXPECT_EXIT(restore("t", blob, a), ::testing::ExitedWithCode(1),
                "sharer mask on a non-directory");
}

TEST(CkptTagFormatDeath, UnalignedSlotAddressIsFatal)
{
    std::vector<Slot> slots(8);
    slots[2] = {0x041, true, false, false, false, false, 0};
    const auto blob =
        expectedBlob("t", 4, 2, slots, 0, std::vector<std::uint64_t>(8));
    cache::TagArray a = smallArray();
    EXPECT_EXIT(restore("t", blob, a), ::testing::ExitedWithCode(1),
                "unaligned address");
}

} // anonymous namespace
