/**
 * @file
 * ShardedExecutor implementation.
 */

#include "executor.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/shard/link.hh"

namespace sim
{
namespace shard
{

ShardedExecutor::ShardedExecutor(unsigned jobs)
    : nJobs(jobs == 0 ? 1 : jobs)
{
}

ShardedExecutor::~ShardedExecutor()
{
    stopWorkers();
}

void
ShardedExecutor::addExternalDomain(EventQueue &queue)
{
    doms.push_back(&queue);
}

void
ShardedExecutor::registerChannel(LinkChannelBase *ch)
{
    channels.push_back(ch);
    windowTicks = std::min(windowTicks, ch->latency());
}

void
ShardedExecutor::flushChannels()
{
    for (LinkChannelBase *ch : channels)
        nCrossPosts += ch->flush();
}

void
ShardedExecutor::startWorkers(unsigned count)
{
    workers.reserve(count);
    for (unsigned w = 0; w < count; ++w)
        workers.emplace_back([this] { workerLoop(); });
}

void
ShardedExecutor::stopWorkers()
{
    if (workers.empty())
        return;
    poolStop.store(true, std::memory_order_release);
    for (std::thread &t : workers)
        t.join();
    workers.clear();
}

void
ShardedExecutor::claimDomains()
{
    for (;;) {
        const std::size_t d =
            poolNext.fetch_add(1, std::memory_order_relaxed);
        if (d >= doms.size())
            return;
        poolCounts[d] = doms[d]->runUntil(poolWindowEnd);
    }
}

void
ShardedExecutor::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        unsigned spins = 0;
        while (poolGen.load(std::memory_order_acquire) == seen) {
            if (poolStop.load(std::memory_order_acquire))
                return;
            if (++spins > 256) {
                std::this_thread::yield();
                spins = 0;
            }
        }
        seen = poolGen.load(std::memory_order_acquire);
        claimDomains();
        poolDone.fetch_add(1, std::memory_order_release);
    }
}

std::uint64_t
ShardedExecutor::runUntil(Tick limit)
{
    if (doms.empty())
        fatal("ShardedExecutor::runUntil with no domains");

    // Deliver messages staged by setup code before the first window.
    flushChannels();

    std::uint64_t processed = 0;
    // Start from the furthest-advanced member; after a restore the
    // queues carry the checkpointed time base and we must not step
    // backwards.
    Tick base = 0;
    for (const EventQueue *q : doms)
        base = std::max(base, q->now());

    while (base <= limit) {
        // Idle skip: nothing can fire before the earliest pending
        // event anywhere, so jump straight to it.
        Tick minNext = maxTick;
        for (EventQueue *q : doms)
            minNext = std::min(minNext, q->peekNextTick());
        if (minNext > limit)
            break;
        base = std::max(base, minNext);

        const Tick windowEnd =
            (windowTicks >= maxTick - base)
                ? limit
                : std::min(base + windowTicks - 1, limit);

        if (doms.size() > 1 && nJobs > 1) {
            // Hand the window to the persistent pool: each domain is
            // claimed off a shared index, and results land in
            // per-domain slots so the sum (and everything else) is
            // independent of thread scheduling. The main thread
            // claims domains alongside the workers.
            if (workers.empty()) {
                startWorkers(static_cast<unsigned>(std::min<std::size_t>(
                    nJobs - 1, doms.size() - 1)));
            }
            poolWindowEnd = windowEnd;
            poolCounts.assign(doms.size(), 0);
            poolNext.store(0, std::memory_order_relaxed);
            poolDone.store(0, std::memory_order_relaxed);
            poolGen.fetch_add(1, std::memory_order_release);
            claimDomains();
            unsigned spins = 0;
            while (poolDone.load(std::memory_order_acquire) !=
                   workers.size()) {
                if (++spins > 256) {
                    std::this_thread::yield();
                    spins = 0;
                }
            }
            for (std::uint64_t c : poolCounts)
                processed += c;
        } else {
            for (EventQueue *q : doms)
                processed += q->runUntil(windowEnd);
        }

        flushChannels();
        ++nWindows;

        if (windowEnd >= limit)
            break;
        base = windowEnd + 1;
    }

    // Mirror runUntil(limit) semantics on every member: time base ends
    // at the limit even if a domain went idle early.
    if (limit != maxTick) {
        for (EventQueue *q : doms)
            q->runOne(limit);
    }
    return processed;
}

} // namespace shard
} // namespace sim
