/**
 * @file
 * MlcDirectory implementation.
 */

#include "directory.hh"

#include "sim/simulation.hh"

namespace cache
{

namespace
{

std::uint32_t
directorySets(std::uint64_t numEntries, std::uint32_t assoc)
{
    TagArray::checkAssoc(assoc);
    std::uint64_t sets = numEntries / assoc;
    if (sets == 0)
        sets = 1;
    return static_cast<std::uint32_t>(sets);
}

} // anonymous namespace

MlcDirectory::MlcDirectory(sim::Simulation &simulation,
                           const std::string &name,
                           std::uint64_t numEntries, std::uint32_t assoc,
                           const std::string &replacement)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      lookups(statGroup, "lookups", "directory lookups"),
      insertions(statGroup, "insertions", "directory insertions"),
      capacityEvictions(statGroup, "capacityEvictions",
                        "entries displaced by capacity pressure"),
      array(TagArray::withSets(directorySets(numEntries, assoc), assoc,
                               makeReplacementPolicy(replacement))),
      sharers(std::size_t(array.numSets()) * array.assoc(), 0)
{
}

DirectoryVictim
MlcDirectory::add(sim::CoreId core, sim::Addr addr)
{
    ++lookups;
    const std::uint64_t bit = std::uint64_t(1) << core;
    const TagArray::Probe p = array.lookupOrFillSlot(addr);
    std::uint64_t &mask = sharers[slotIndex(p.slot)];
    if (p.hit) {
        mask |= bit;
        array.touch(p.slot);
        return {};
    }

    DirectoryVictim victim;
    if (p.slot.valid()) {
        victim.valid = true;
        victim.addr = p.slot.addr();
        victim.sharers = mask;
        ++capacityEvictions;
    }
    array.fill(p.slot, addr, false, false);
    mask = bit;
    ++insertions;
    return victim;
}

void
MlcDirectory::remove(sim::CoreId core, sim::Addr addr)
{
    LineRef ref = array.lookup(addr);
    if (!ref)
        return;
    std::uint64_t &mask = sharers[slotIndex(ref)];
    mask &= ~(std::uint64_t(1) << core);
    if (mask == 0)
        array.invalidate(ref);
}

std::uint64_t
MlcDirectory::takeSharers(sim::Addr addr)
{
    LineRef ref = array.lookup(addr);
    if (!ref)
        return 0;
    std::uint64_t &mask = sharers[slotIndex(ref)];
    const std::uint64_t taken = mask;
    mask = 0;
    array.invalidate(ref);
    return taken;
}

void
MlcDirectory::serialize(ckpt::Serializer &s) const
{
    array.serialize(s, sharers);
}

void
MlcDirectory::unserialize(ckpt::Deserializer &d)
{
    array.unserialize(d, sharers);
}

} // namespace cache
