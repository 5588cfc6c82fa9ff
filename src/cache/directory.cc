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
    const TagArray::Probe p = array.lookupOrFillSlot(addr);
    if (p.hit) {
        sharers[slotIndex(p.slot)] |= std::uint64_t(1) << core;
        array.touch(p.slot);
        return {};
    }
    return insert(core, addr, p.slot);
}

DirectoryVictim
MlcDirectory::addUntracked(sim::CoreId core, sim::Addr addr)
{
    ++lookups;
    return insert(core, addr, array.findFillSlot(addr));
}

DirectoryVictim
MlcDirectory::insert(sim::CoreId core, sim::Addr addr, const LineRef &slot)
{
    std::uint64_t &mask = sharers[slotIndex(slot)];
    DirectoryVictim victim;
    if (slot.valid()) {
        victim.valid = true;
        victim.addr = slot.addr();
        victim.sharers = mask;
        ++capacityEvictions;
    }
    array.fill(slot, addr, false, false);
    mask = std::uint64_t(1) << core;
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
