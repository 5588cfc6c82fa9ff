/**
 * @file
 * ShardedExecutor tests.
 *
 * The executor's contract is bit-identical results for any host
 * thread count; these tests pin each piece of it: the window is the
 * minimum registered link latency, a single-domain chunked run matches
 * a plain runUntil, idle domains still reach the limit, and a
 * ping-pong over two LinkChannels logs identical events and link
 * message counts across jobs=1/2/4.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ckpt/serializer.hh"
#include "sim/shard/executor.hh"
#include "sim/shard/link.hh"
#include "sim/simulation.hh"

using sim::Tick;
using sim::shard::ShardedExecutor;

namespace
{

/** Minimal link payload: a hop counter. */
struct Hop
{
    std::uint64_t n = 0;

    static void
    serializeMsg(ckpt::Serializer &s, const Hop &m)
    {
        s.writeU64(m.n);
    }

    static Hop
    unserializeMsg(ckpt::Deserializer &d)
    {
        return Hop{d.readU64()};
    }
};

using HopChannel = sim::shard::LinkChannel<Hop>;

std::unique_ptr<HopChannel>
makeChannel(sim::Simulation &s, const char *name, sim::EventQueue &src,
            sim::EventQueue &dst, Tick latency)
{
    return std::make_unique<HopChannel>(s, name, src, dst, latency);
}

TEST(ShardedExecutor, WindowIsMinChannelLatency)
{
    sim::Simulation s;
    sim::EventQueue &a = s.eventq();
    sim::EventQueue &b = s.addDomainQueue("b");
    ShardedExecutor exec(1);
    exec.addExternalDomain(a);
    exec.addExternalDomain(b);
    // No links: the domains are independent, one window per run.
    EXPECT_EQ(exec.window(), sim::maxTick);

    auto ab = makeChannel(s, "ab", a, b, 500);
    auto ba = makeChannel(s, "ba", b, a, 250);
    auto aa = makeChannel(s, "aa", a, a, 300);
    exec.registerChannel(ab.get());
    EXPECT_EQ(exec.window(), Tick(500));
    exec.registerChannel(ba.get());
    exec.registerChannel(aa.get());
    EXPECT_EQ(exec.window(), Tick(250));
}

TEST(ShardedExecutor, SingleDomainMatchesPlainRunUntil)
{
    // Reference: a plain queue.
    sim::EventQueue ref;
    std::vector<Tick> refLog;
    for (Tick t : {Tick(10), Tick(25), Tick(25), Tick(40), Tick(990)})
        ref.schedule(t, [&refLog, &ref] { refLog.push_back(ref.now()); });
    ref.runUntil(1000);

    // Same schedule through the executor. An idle self-link sets a
    // window much smaller than the span, so chunking is exercised.
    sim::Simulation s;
    sim::EventQueue &q = s.eventq();
    ShardedExecutor exec(1);
    exec.addExternalDomain(q);
    auto self = makeChannel(s, "self", q, q, 7);
    exec.registerChannel(self.get());
    std::vector<Tick> log;
    for (Tick t : {Tick(10), Tick(25), Tick(25), Tick(40), Tick(990)})
        q.schedule(t, [&log, &q] { log.push_back(q.now()); });
    const std::uint64_t n = exec.runUntil(1000);

    EXPECT_EQ(n, 5u);
    EXPECT_EQ(log, refLog);
    EXPECT_EQ(q.now(), ref.now());
    EXPECT_EQ(q.now(), Tick(1000));
    // Chunked, but idle skipping keeps it far below span/window.
    EXPECT_GT(exec.windowsRun(), 1u);
    EXPECT_LT(exec.windowsRun(), 20u);
}

/** Everything observable from one ping-pong run. */
struct PingPongResult
{
    std::vector<Tick> logA;
    std::vector<Tick> logB;
    std::uint64_t windows = 0;
    std::uint64_t linkMsgs = 0;

    bool
    operator==(const PingPongResult &o) const
    {
        return logA == o.logA && logB == o.logB &&
               windows == o.windows && linkMsgs == o.linkMsgs;
    }
};

/**
 * Bounce a message between two domains over a LinkChannel pair until
 * @p hops deliveries have happened.
 */
PingPongResult
runPingPong(unsigned jobs, std::uint64_t hops = 16)
{
    sim::Simulation s;
    sim::EventQueue &a = s.eventq();
    sim::EventQueue &b = s.addDomainQueue("b");
    ShardedExecutor exec(jobs);
    exec.addExternalDomain(a);
    exec.addExternalDomain(b);
    auto ab = makeChannel(s, "ab", a, b, 100);
    auto ba = makeChannel(s, "ba", b, a, 150);
    exec.registerChannel(ab.get());
    exec.registerChannel(ba.get());

    // Per-domain logs: each is only ever touched by the thread
    // running its domain, and the window barrier publishes writes.
    PingPongResult r;
    ab->setHandler([&](const Hop &m) {
        r.logB.push_back(b.now());
        if (m.n < hops)
            ba->send(Hop{m.n + 1});
    });
    ba->setHandler([&](const Hop &m) {
        r.logA.push_back(a.now());
        if (m.n < hops)
            ab->send(Hop{m.n + 1});
    });

    a.schedule(10, [&] { ab->send(Hop{1}); });
    exec.runUntil(5000);
    r.windows = exec.windowsRun();
    r.linkMsgs = exec.crossPostsDelivered();
    return r;
}

TEST(ShardedExecutor, PingPongIsIdenticalAcrossHostThreadCounts)
{
    const auto one = runPingPong(1);
    // Deliveries alternate b, a, b, ... one link latency apart.
    ASSERT_EQ(one.logB.size(), 8u);
    ASSERT_EQ(one.logA.size(), 8u);
    EXPECT_EQ(one.logB.front(), Tick(110));
    EXPECT_EQ(one.logA.front(), Tick(260));
    EXPECT_EQ(one.linkMsgs, 16u);
    EXPECT_EQ(runPingPong(2), one);
    EXPECT_EQ(runPingPong(4), one);
}

TEST(ShardedExecutor, RunUntilAdvancesIdleDomainsToLimit)
{
    sim::Simulation s;
    sim::EventQueue &a = s.eventq();
    sim::EventQueue &b = s.addDomainQueue("b");
    ShardedExecutor exec(1);
    exec.addExternalDomain(a);
    exec.addExternalDomain(b);
    auto ab = makeChannel(s, "ab", a, b, 10);
    exec.registerChannel(ab.get());
    a.schedule(500, [] {});
    exec.runUntil(2000);
    // b never had an event; its time base still reaches the limit,
    // mirroring EventQueue::runUntil semantics.
    EXPECT_EQ(a.now(), Tick(2000));
    EXPECT_EQ(b.now(), Tick(2000));
}

} // anonymous namespace
