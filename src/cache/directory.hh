/**
 * @file
 * Excl-MLC directory (snoop filter).
 *
 * The non-inclusive Skylake LLC keeps a directory of tags for every
 * line that is valid in some MLC ("Excl MLC" in paper Fig. 1). The
 * directory lets inbound PCIe writes find and invalidate MLC copies
 * without broadcasting. Capacity is finite: inserting into a full set
 * evicts an entry, whose MLC copies must be back-invalidated by the
 * hierarchy.
 */

#ifndef IDIO_CACHE_DIRECTORY_HH
#define IDIO_CACHE_DIRECTORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/tag_array.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace cache
{

/** An entry displaced by directory capacity pressure. */
struct DirectoryVictim
{
    bool valid = false;
    sim::Addr addr = 0;
    std::uint64_t sharers = 0;
};

/**
 * Set-associative snoop-filter directory over MLC-resident lines.
 * The tag array holds the entries' addresses and LRU order; the sharer
 * masks live beside it, one per slot, so no cache level carries them.
 */
class MlcDirectory : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /**
     * @param numEntries Total tracked-line capacity.
     * @param assoc Directory associativity.
     */
    MlcDirectory(sim::Simulation &simulation, const std::string &name,
                 std::uint64_t numEntries, std::uint32_t assoc,
                 const std::string &replacement);

    /** Sharer bit-vector for @p addr (0 when untracked). */
    std::uint64_t
    sharersOf(sim::Addr addr) const
    {
        const std::size_t i = array.find(addr);
        return i == TagArray::npos ? 0 : sharers[i];
    }

    /** True when any MLC holds @p addr. */
    bool
    isTracked(sim::Addr addr) const
    {
        return sharersOf(addr) != 0;
    }

    /**
     * Record that @p core 's MLC now holds @p addr.
     *
     * @return a victim entry (valid=true) when an unrelated line had to
     *         be displaced to make room; the caller must back-
     *         invalidate the victim's sharers.
     */
    DirectoryVictim add(sim::CoreId core, sim::Addr addr);

    /**
     * add() for a line the caller has proved untracked (sharersOf()
     * is 0): the same slot, victim and counters without the tag scan.
     */
    DirectoryVictim addUntracked(sim::CoreId core, sim::Addr addr);

    /** Record that @p core 's MLC dropped @p addr. */
    void remove(sim::CoreId core, sim::Addr addr);

    /**
     * Drop the whole entry for @p addr and return its sharers (0 when
     * untracked): sharersOf() and the removal in one lookup.
     */
    std::uint64_t takeSharers(sim::Addr addr);

    /** Number of tracked lines. */
    std::uint64_t trackedLines() const { return array.countValid(); }

    /** Read-only tag-array access (invariant checker, tests). */
    const TagArray &tags() const { return array; }

    /** Sharers of directory slot (set, way); 0 when the slot is free. */
    std::uint64_t
    sharersAt(std::uint32_t set, std::uint32_t way) const
    {
        return sharers[std::size_t(set) * array.assoc() + way];
    }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Counters. */
    stats::Counter lookups;
    stats::Counter insertions;
    stats::Counter capacityEvictions;
    /** @} */

  private:
    std::size_t
    slotIndex(const LineRef &ref) const
    {
        return std::size_t(ref.set) * array.assoc() + ref.way;
    }

    /** Insert @p addr for @p core into the fill slot @p slot. */
    DirectoryVictim insert(sim::CoreId core, sim::Addr addr,
                           const LineRef &slot);

    TagArray array;

    /** Per slot: bit c = core c's MLC holds the line; 0 when free. */
    std::vector<std::uint64_t> sharers;
};

} // namespace cache

#endif // IDIO_CACHE_DIRECTORY_HH
