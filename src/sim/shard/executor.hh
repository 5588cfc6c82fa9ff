/**
 * @file
 * Conservative-window sharded event-queue executor.
 *
 * The ShardedExecutor advances a set of timing domains — each one an
 * EventQueue — in lockstep windows. Domains never share model state
 * inside a window, so each one may run on its own host thread. All
 * cross-domain traffic travels over registered LinkChannels: a send
 * only appends to the channel's staging deque, and at the window
 * barrier the executor flushes every channel (in registration order,
 * on one thread), scheduling each message into its destination queue
 * at sendTick + linkLatency.
 *
 * The window is the minimum latency over the registered channels, so
 * a delivery always lands in a later window than its send and no
 * domain can have advanced past it. With no channel registered the
 * domains are independent and one window spans the whole run.
 *
 * Determinism: inside a window every domain runs alone on its own
 * queue, so domain execution order is immaterial; the barrier flush is
 * single-threaded in a fixed order and assigns destination-queue
 * sequence numbers in that order. Hence the result is bit-identical
 * for any worker count.
 */

#ifndef IDIO_SIM_SHARD_EXECUTOR_HH
#define IDIO_SIM_SHARD_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace sim
{
namespace shard
{

class LinkChannelBase;

/**
 * Runs per-domain EventQueues under a conservative-window
 * synchronizer; see the file comment.
 */
class ShardedExecutor
{
  public:
    /**
     * @param jobs Host threads available for domain execution; more
     *             than one only helps with more than one domain.
     */
    explicit ShardedExecutor(unsigned jobs = 1);
    ShardedExecutor(const ShardedExecutor &) = delete;
    ShardedExecutor &operator=(const ShardedExecutor &) = delete;
    ~ShardedExecutor();

    /**
     * Add a domain backed by an externally owned queue (e.g.\ the
     * Simulation's queue, so existing SimObjects keep their time
     * base). The queue must outlive the executor.
     */
    void addExternalDomain(EventQueue &queue);

    /**
     * Register a link channel to be flushed at every window barrier
     * (and before the first window of each run). Its latency bounds
     * the conservative window. Registration order is part of the
     * deterministic barrier order; register channels in
     * model-construction order. The channel must outlive the executor.
     */
    void registerChannel(LinkChannelBase *ch);

    /**
     * Conservative window width in ticks: the minimum latency over the
     * registered channels, maxTick with none registered.
     */
    Tick window() const { return windowTicks; }

    /**
     * Advance all domains to @p limit (inclusive, mirroring
     * EventQueue::runUntil). Every member queue's now() equals
     * @p limit on return unless limit == maxTick.
     *
     * @return total events processed across all domains.
     */
    std::uint64_t runUntil(Tick limit);

    /** @{ Execution statistics. */
    std::uint64_t windowsRun() const { return nWindows; }

    /** Link messages scheduled onto destination queues at barriers. */
    std::uint64_t crossPostsDelivered() const { return nCrossPosts; }
    /** @} */

  private:
    /** Barrier step: flush registered channels in registration order. */
    void flushChannels();

    /**
     * @{ Persistent worker pool. Workers park on a generation counter
     * (spin briefly, then yield) between windows; per-window thread
     * spawn would dominate at sub-microsecond windows. The main thread
     * participates as one worker, so the pool holds nJobs - 1 threads,
     * started lazily at the first parallel window.
     */
    void startWorkers(unsigned count);
    void stopWorkers();
    void workerLoop();
    void claimDomains();

    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> poolGen{0};
    std::atomic<bool> poolStop{false};
    Tick poolWindowEnd = 0;
    std::atomic<std::size_t> poolNext{0};
    std::atomic<std::size_t> poolDone{0};
    std::vector<std::uint64_t> poolCounts;
    /** @} */

    unsigned nJobs;
    Tick windowTicks = maxTick;
    std::vector<EventQueue *> doms;
    std::vector<LinkChannelBase *> channels;
    std::uint64_t nWindows = 0;
    std::uint64_t nCrossPosts = 0;
};

} // namespace shard
} // namespace sim

#endif // IDIO_SIM_SHARD_EXECUTOR_HH
