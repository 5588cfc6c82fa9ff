/**
 * @file
 * FlowDirector implementation.
 */

#include "flow_director.hh"

#include "sim/logging.hh"

namespace nic
{

FlowDirector::FlowDirector(std::uint32_t numCores,
                           std::uint32_t filterTableEntries,
                           std::uint32_t rssTableEntries,
                           std::uint32_t rssQueues)
    : numCores(numCores), tableSize(filterTableEntries),
      filterTable(filterTableEntries, -1)
{
    if (numCores == 0)
        sim::fatal("FlowDirector needs at least one core");
    if (tableSize == 0 || (tableSize & (tableSize - 1)) != 0)
        sim::fatal("filter table size must be a power of two");
    if (rssTableEntries != 0) {
        if ((rssTableEntries & (rssTableEntries - 1)) != 0)
            sim::fatal("RSS table size must be a power of two");
        if (rssQueues == 0)
            rssQueues = numCores;
        // Default fill round-robins queues over the table, the same
        // layout drivers program at device init.
        reta.resize(rssTableEntries);
        for (std::uint32_t i = 0; i < rssTableEntries; ++i)
            reta[i] = i % rssQueues;
    }
}

void
FlowDirector::addRule(const net::FiveTuple &flow, sim::CoreId core)
{
    rules[flow] = core;
}

void
FlowDirector::removeRule(const net::FiveTuple &flow)
{
    rules.erase(flow);
}

void
FlowDirector::learn(const net::FiveTuple &flow, sim::CoreId core)
{
    filterTable[filterIndex(net::toeplitzHash(flow))] =
        static_cast<std::int32_t>(core);
}

sim::CoreId
FlowDirector::lookup(const net::FiveTuple &flow) const
{
    auto it = rules.find(flow);
    if (it != rules.end())
        return it->second;

    // One hash serves both the ATR filter slot and the RSS fallback.
    const std::uint32_t hash = net::toeplitzHash(flow);
    const std::int32_t learned = filterTable[filterIndex(hash)];
    if (learned >= 0)
        return static_cast<sim::CoreId>(learned);

    return queueFor(hash);
}

std::uint32_t
FlowDirector::rssQueue(const net::FiveTuple &flow) const
{
    return queueFor(net::toeplitzHash(flow));
}

void
FlowDirector::setIndirection(const std::vector<std::uint32_t> &table)
{
    if (reta.empty())
        sim::fatal("setIndirection: flow director is in legacy RSS "
                   "mode (no RETA)");
    if (table.size() != reta.size())
        sim::fatal("setIndirection: size mismatch (RETA %zu, new %zu)",
                   reta.size(), table.size());
    reta = table;
}

std::size_t
FlowDirector::learnedCount() const
{
    std::size_t n = 0;
    for (auto e : filterTable)
        n += (e >= 0);
    return n;
}

} // namespace nic
