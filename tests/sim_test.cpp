/**
 * @file
 * Tests for the dataflow simulator core: flits, two-phase queues,
 * round-robin arbitration, the memory timing model, scratchpads, and the
 * scheduler (including deadlock detection).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "base/logging.h"
#include "modules/filter.h"
#include "modules/spm_updater.h"
#include "sim/arbiter.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim/spm.h"
#include "sim_test_utils.h"

namespace genesis::sim {
namespace {

TEST(Flit, FieldsAndMerge)
{
    Flit a = makeFlit(5, 1, 2);
    Flit b = makeFlit(5, 3);
    a.mergeFields(b);
    EXPECT_EQ(a.numFields, 3);
    EXPECT_EQ(a.fieldAt(2), 3);
}

TEST(Flit, OverflowPanics)
{
    setQuiet(true);
    Flit f;
    for (int i = 0; i < Flit::kMaxFields; ++i)
        f.pushField(i);
    EXPECT_THROW(f.pushField(99), PanicError);
    EXPECT_THROW(f.fieldAt(Flit::kMaxFields), PanicError);
    setQuiet(false);
}

TEST(Flit, BoundaryMarker)
{
    Flit b = makeBoundary();
    EXPECT_TRUE(isBoundary(b));
    EXPECT_FALSE(isBoundary(makeFlit(1, 2)));
}

TEST(Flit, StrRendersSentinels)
{
    Flit f = makeFlit(Flit::kIns, Flit::kDel);
    f.pushField(Flit::kNull);
    std::string s = f.str();
    EXPECT_NE(s.find("Ins"), std::string::npos);
    EXPECT_NE(s.find("Del"), std::string::npos);
    EXPECT_NE(s.find("Null"), std::string::npos);
}

TEST(Queue, PushVisibleOnlyAfterCommit)
{
    HardwareQueue q("q", 4);
    q.push(makeFlit(1));
    EXPECT_FALSE(q.canPop());
    q.commit();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.front().key, 1);
}

TEST(Queue, PopFreesSlotOnlyAfterCommit)
{
    HardwareQueue q("q", 1);
    q.push(makeFlit(1));
    q.commit();
    EXPECT_FALSE(q.canPush()); // full
    q.pop();
    EXPECT_FALSE(q.canPush()); // registered backpressure: still full
    q.commit();
    EXPECT_TRUE(q.canPush());
}

TEST(Queue, OnePushPerCyclePanicsOtherwise)
{
    setQuiet(true);
    HardwareQueue q("q", 4);
    q.push(makeFlit(1));
    EXPECT_THROW(q.push(makeFlit(2)), PanicError);
    setQuiet(false);
}

TEST(Queue, CloseAndDrained)
{
    HardwareQueue q("q", 4);
    q.push(makeFlit(1));
    q.commit();
    q.close();
    EXPECT_FALSE(q.closed()); // staged
    q.commit();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.drained()); // flit still inside
    q.pop();
    q.commit();
    EXPECT_TRUE(q.drained());
}

TEST(Queue, PushAfterClosePanics)
{
    setQuiet(true);
    HardwareQueue q("q", 4);
    q.close();
    q.commit();
    EXPECT_THROW(q.push(makeFlit(1)), PanicError);
    setQuiet(false);
}

TEST(Queue, FifoOrderAndStats)
{
    HardwareQueue q("q", 8);
    for (int i = 0; i < 3; ++i) {
        q.push(makeFlit(i));
        q.commit();
    }
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(q.pop().key, i);
        q.commit();
    }
    EXPECT_EQ(q.totalFlits(), 3u);
    EXPECT_EQ(q.maxOccupancy(), 3u);
}

TEST(QueueRing, WrapAroundKeepsFifoOrderAtEveryCapacity)
{
    for (size_t cap : {1u, 2u, 3u, 8u}) {
        HardwareQueue q("ring", cap);
        const int64_t total = static_cast<int64_t>(3 * cap + 5);
        int64_t pushed = 0, popped = 0;
        bool filling = true;
        // Alternate filling to capacity and draining to half (to empty
        // once the producer is done), overlapping a push and a pop when
        // both are legal, so the ring's head walks all the way round.
        while (popped < total) {
            if (q.size() == cap || pushed == total)
                filling = false;
            else if (q.size() <= cap / 2 && pushed < total)
                filling = true;
            if (pushed < total && q.canPush())
                q.push(makeFlit(pushed++));
            if (!filling && q.canPop()) {
                ASSERT_EQ(q.front().key, popped) << "capacity " << cap;
                EXPECT_EQ(q.pop().key, popped++) << "capacity " << cap;
            }
            q.commit();
            ASSERT_LE(q.size(), cap);
        }
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.totalFlits(), static_cast<uint64_t>(total));
        EXPECT_EQ(q.maxOccupancy(), cap);
    }
}

TEST(QueueRing, PanicsNameTheQueue)
{
    setQuiet(true);
    auto message = [](auto &&op) {
        try {
            op();
        } catch (const PanicError &e) {
            return std::string(e.what());
        }
        return std::string("no panic");
    };
    HardwareQueue empty("idle_q", 2);
    EXPECT_NE(message([&] { empty.pop(); })
                  .find("pop from empty queue 'idle_q'"),
              std::string::npos);
    EXPECT_NE(message([&] { empty.front(); })
                  .find("front of empty queue 'idle_q'"),
              std::string::npos);
    HardwareQueue full("full_q", 1);
    full.push(makeFlit(1));
    full.commit();
    EXPECT_NE(message([&] { full.push(makeFlit(2)); })
                  .find("push to full queue 'full_q'"),
              std::string::npos);
    setQuiet(false);
}

TEST(Arbiter, RoundRobinIsFair)
{
    RoundRobinArbiter arb(3);
    auto all = [](size_t) { return true; };
    EXPECT_EQ(arb.grant(all), 0);
    EXPECT_EQ(arb.grant(all), 1);
    EXPECT_EQ(arb.grant(all), 2);
    EXPECT_EQ(arb.grant(all), 0);
}

TEST(Arbiter, SkipsNonRequesting)
{
    RoundRobinArbiter arb(3);
    auto only2 = [](size_t i) { return i == 2; };
    EXPECT_EQ(arb.grant(only2), 2);
    EXPECT_EQ(arb.grant(only2), 2);
    auto none = [](size_t) { return false; };
    EXPECT_EQ(arb.grant(none), -1);
}

TEST(Memory, ReadCompletesAfterLatency)
{
    MemoryConfig cfg;
    cfg.numChannels = 1;
    cfg.bytesPerCyclePerChannel = 16;
    cfg.latencyCycles = 10;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);
    port->issue(0, 64, false);
    uint64_t total = 0;
    int cycles = 0;
    while (total < 64 && cycles < 100) {
        mem.tick();
        total += port->takeCompletedReadBytes();
        ++cycles;
    }
    EXPECT_EQ(total, 64u);
    // 1 schedule cycle + 10 latency + 4 transfer cycles.
    EXPECT_GE(cycles, 14);
    EXPECT_LE(cycles, 16);
}

TEST(Memory, ChannelBandwidthBoundsThroughput)
{
    MemoryConfig cfg;
    cfg.numChannels = 1;
    cfg.bytesPerCyclePerChannel = 8;
    cfg.latencyCycles = 2;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    uint64_t issued = 0, completed = 0;
    const uint64_t goal = 64 * 20;
    uint64_t cycles = 0;
    while (completed < goal && cycles < 10'000) {
        while (issued < goal && port->canIssue()) {
            port->issue(issued, 64, false);
            issued += 64;
        }
        mem.tick();
        completed += port->takeCompletedReadBytes();
        ++cycles;
    }
    ASSERT_EQ(completed, goal);
    // At 8 B/cycle, 1280 bytes need at least 160 cycles; allow slack
    // for latency and the port-queue refill pattern.
    EXPECT_GE(cycles, goal / 8);
    EXPECT_LE(cycles, goal / 8 + 80);
}

TEST(Memory, MultipleChannelsServeInParallel)
{
    // Two ports hitting different channels should roughly double the
    // throughput of one port on one channel.
    auto run_case = [](int nports) {
        MemoryConfig cfg;
        cfg.numChannels = 4;
        cfg.bytesPerCyclePerChannel = 8;
        cfg.latencyCycles = 2;
        MemorySystem mem(cfg);
        std::vector<MemoryPort *> ports;
        for (int p = 0; p < nports; ++p)
            ports.push_back(mem.makePort(p));
        const uint64_t per_port = 64 * 40;
        std::vector<uint64_t> issued(static_cast<size_t>(nports), 0);
        std::vector<uint64_t> done(static_cast<size_t>(nports), 0);
        uint64_t cycles = 0;
        for (;;) {
            bool all_done = true;
            for (int p = 0; p < nports; ++p) {
                auto pi = static_cast<size_t>(p);
                while (issued[pi] < per_port && ports[pi]->canIssue()) {
                    // Stride across channels.
                    ports[pi]->issue(issued[pi] * 64 + pi * 64, 64,
                                     false);
                    issued[pi] += 64;
                }
                if (done[pi] < per_port)
                    all_done = false;
            }
            if (all_done || cycles > 100'000)
                break;
            mem.tick();
            for (int p = 0; p < nports; ++p) {
                done[static_cast<size_t>(p)] +=
                    ports[static_cast<size_t>(p)]
                        ->takeCompletedReadBytes();
            }
            ++cycles;
        }
        return cycles;
    };
    uint64_t one = run_case(1);
    uint64_t four = run_case(4);
    // 4 ports move 4x the data; with 4 channels it should take well
    // under 4x the time of the single-port case.
    EXPECT_LT(four, one * 3);
}

TEST(Memory, WritesRetire)
{
    MemorySystem mem{MemoryConfig{}};
    MemoryPort *port = mem.makePort(0);
    port->issue(128, 64, true);
    for (int i = 0; i < 100 && !port->idle(); ++i)
        mem.tick();
    EXPECT_TRUE(port->idle());
    EXPECT_EQ(port->retiredWriteBytes(), 64u);
}

TEST(Memory, PortQueueDepthEnforced)
{
    setQuiet(true);
    MemoryConfig cfg;
    cfg.portQueueDepth = 2;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);
    port->issue(0, 64, false);
    port->issue(64, 64, false);
    EXPECT_FALSE(port->canIssue());
    EXPECT_THROW(port->issue(128, 64, false), PanicError);
    setQuiet(false);
}

TEST(Scratchpad, ReadWriteClear)
{
    Scratchpad spm("s", 5'000, 4);
    spm.write(3, 42);
    EXPECT_EQ(spm.read(3), 42);
    EXPECT_EQ(spm.sizeBytes(), 20'000u);
    for (size_t addr = 0; addr < 5'000; addr += 7)
        spm.write(addr, static_cast<int64_t>(addr) + 1);
    spm.clear();
    EXPECT_EQ(spm.backingWords(), 0u);
    for (size_t addr = 0; addr < 5'000; ++addr)
        ASSERT_EQ(spm.read(addr), 0) << "addr " << addr;
    // Writable again after the clear.
    spm.write(4'999, 3);
    EXPECT_EQ(spm.read(4'999), 3);
}

TEST(Scratchpad, ReadsAboveHighestWrittenWordAreZero)
{
    Scratchpad spm("s", 1'000'000);
    EXPECT_EQ(spm.backingWords(), 0u);
    EXPECT_EQ(spm.read(999'999), 0);
    spm.write(10, -7);
    EXPECT_EQ(spm.read(10), -7);
    for (size_t addr : {0u, 9u, 11u, 4'096u, 999'999u})
        EXPECT_EQ(spm.read(addr), 0) << "addr " << addr;
    EXPECT_LT(spm.backingWords(), spm.sizeWords());
    EXPECT_EQ(spm.stats().get("reads"), 7u);
    EXPECT_EQ(spm.stats().get("writes"), 1u);
}

TEST(Scratchpad, ReportsDeclaredCapacity)
{
    Scratchpad spm("ref", 1'048'576, 1);
    EXPECT_EQ(spm.sizeWords(), 1'048'576u);
    EXPECT_EQ(spm.sizeBytes(), 1'048'576u);
    spm.write(5, 1);
    EXPECT_EQ(spm.sizeWords(), 1'048'576u);
    Scratchpad counts("counts", 131'072, 4);
    EXPECT_EQ(counts.sizeBytes(), 131'072u * 4u);
}

TEST(Scratchpad, BackingStoreNeverExceedsDeclaredCapacity)
{
    // Ascending, descending and scattered write orders, at sizes just
    // past a doubling step and not a power of two.
    for (size_t size : {1u, 3u, 513u, 1'025u, 70'001u}) {
        Scratchpad up("up", size);
        for (size_t addr = 0; addr < size; ++addr) {
            up.write(addr, 1);
            ASSERT_LE(up.backingWords(), size) << "size " << size;
        }
        Scratchpad down("down", size);
        down.write(size - 1, 1);
        EXPECT_LE(down.backingWords(), size);
        Scratchpad scattered("scattered", size);
        for (size_t addr = 0; addr < size; addr = addr * 2 + 1) {
            scattered.write(addr, 1);
            ASSERT_LE(scattered.backingWords(), size) << "size " << size;
        }
    }
}

TEST(Scratchpad, OutOfRangePanics)
{
    // The panics name the scratchpad and its declared size, though the
    // backing store is far smaller.
    setQuiet(true);
    Scratchpad spm("ref_window", 1'000);
    spm.write(2, 1);
    auto message = [](auto &&access) {
        try {
            access();
        } catch (const PanicError &e) {
            return std::string(e.what());
        }
        return std::string("no panic");
    };
    EXPECT_NE(message([&] { spm.read(1'000); })
                  .find("scratchpad 'ref_window': read of 1000 beyond "
                        "size 1000"),
              std::string::npos);
    EXPECT_NE(message([&] { spm.write(5'000, 1); })
                  .find("scratchpad 'ref_window': write of 5000 beyond "
                        "size 1000"),
              std::string::npos);
    setQuiet(false);
}

TEST(Simulator, SourceToSinkDelivery)
{
    Simulator sim;
    auto *q = sim.makeQueue("q");
    std::vector<Flit> flits = {makeFlit(1, 10), makeFlit(2, 20),
                               makeBoundary(), makeFlit(3, 30)};
    sim.make<test::VectorSource>("src", q, flits);
    auto *sink = sim.make<test::VectorSink>("sink", q);
    sim.run();
    ASSERT_EQ(sink->collected().size(), 4u);
    EXPECT_EQ(sink->collected()[0].key, 1);
    EXPECT_TRUE(isBoundary(sink->collected()[2]));
    EXPECT_EQ(sink->dataFlits().size(), 3u);
}

TEST(Simulator, BackpressureThroughTinyQueue)
{
    Simulator sim;
    auto *q = sim.makeQueue("q", 1);
    std::vector<Flit> flits;
    for (int i = 0; i < 50; ++i)
        flits.push_back(makeFlit(i));
    sim.make<test::VectorSource>("src", q, flits);
    auto *sink = sim.make<test::VectorSink>("sink", q);
    uint64_t cycles = sim.run();
    EXPECT_EQ(sink->collected().size(), 50u);
    // Capacity-1 registered queue sustains at most one flit per two
    // cycles.
    EXPECT_GE(cycles, 100u);
}

TEST(Simulator, DeadlockDetected)
{
    setQuiet(true);
    // A sink waiting on a queue nobody ever closes is a deadlock.
    Simulator sim;
    auto *q = sim.makeQueue("q");
    sim.make<test::VectorSink>("sink", q);
    EXPECT_THROW(sim.run(), PanicError);
    setQuiet(false);
}

// Pops a flit, round-trips it through a memory read, then forwards it.
// With a long memory latency this leaves the design provably idle for
// most cycles — the idle-cycle fast-forward's target pattern.
class EchoThroughMemory final : public Module
{
  public:
    EchoThroughMemory(std::string name, MemoryPort *port,
                      HardwareQueue *in, HardwareQueue *out)
        : Module(std::move(name)), port_(port), in_(in), out_(out)
    {
    }

    void
    tick() override
    {
        if (closed_)
            return;
        if (waiting_) {
            if (port_->takeCompletedReadBytes() == 0) {
                countStall(stallMemory_);
                return;
            }
            noteProgress();
            waiting_ = false;
        }
        if (held_) {
            if (!out_->canPush()) {
                countStall(stallBackpressure_);
                return;
            }
            out_->push(*held_);
            held_.reset();
            countFlit();
            return;
        }
        if (!in_->canPop()) {
            if (in_->drained()) {
                out_->close();
                closed_ = true;
            }
            return;
        }
        held_ = in_->pop();
        port_->issue(static_cast<uint64_t>(held_->key) * 64, 64, false);
        waiting_ = true;
    }

    bool done() const override { return closed_; }

  private:
    StatHandle stallMemory_ = stallCounter("memory");
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    MemoryPort *port_;
    HardwareQueue *in_;
    HardwareQueue *out_;
    std::optional<Flit> held_;
    bool waiting_ = false;
    bool closed_ = false;
};

TEST(Simulator, WedgedDesignPanicsWithinHorizon)
{
    setQuiet(true);
    // A sink waiting on a queue nobody feeds or closes must hit the
    // deadlock horizon (10'000 + 100 * latency = 14'000 at the default
    // latency of 40), not spin to the runaway max_cycles bound.
    Simulator sim;
    auto *q = sim.makeQueue("q");
    sim.make<test::VectorSink>("sink", q);
    try {
        sim.run();
        FAIL() << "expected a deadlock panic";
    } catch (const PanicError &) {
        EXPECT_GE(sim.cycle(), 14'000u);
        EXPECT_LE(sim.cycle(), 15'000u);
    }
    setQuiet(false);
}

TEST(Simulator, LongQuietButLegalDesignCompletes)
{
    // A memory latency far above the base horizon produces legal quiet
    // spans of ~60k cycles; the latency-scaled horizon (and the
    // fast-forward's progress accounting) must not misfire on them.
    MemoryConfig cfg;
    cfg.latencyCycles = 60'000;
    Simulator sim(cfg);
    auto *a = sim.makeQueue("a");
    auto *b = sim.makeQueue("b");
    auto *port = sim.memory().makePort(0);
    sim.make<test::VectorSource>(
        "src", a, std::vector<Flit>{makeFlit(1), makeFlit(2)});
    sim.make<EchoThroughMemory>("echo", port, a, b);
    auto *sink = sim.make<test::VectorSink>("sink", b);
    uint64_t cycles = sim.run();
    EXPECT_EQ(sink->collected().size(), 2u);
    EXPECT_GT(cycles, 120'000u); // two sequential 60k-cycle reads
}

TEST(Simulator, FastForwardMatchesCycleByCycle)
{
    // Same design, fast-forward on vs off: simulated cycle counts and
    // every aggregated statistic must be bit-identical.
    auto run_once = [] {
        MemoryConfig cfg;
        cfg.latencyCycles = 300;
        // Uniform access latency: the sequential addresses would
        // otherwise mostly hit open rows and halve the quiet spans.
        cfg.rowHitLatencyCycles = 300;
        Simulator sim(cfg);
        auto *a = sim.makeQueue("a", 2);
        auto *b = sim.makeQueue("b", 2);
        auto *port = sim.memory().makePort(0);
        std::vector<Flit> flits;
        for (int i = 0; i < 20; ++i)
            flits.push_back(makeFlit(i));
        sim.make<test::VectorSource>("src", a, flits);
        sim.make<EchoThroughMemory>("echo", port, a, b);
        sim.make<test::VectorSink>("sink", b);
        sim.run();
        return sim.collectStats().counters();
    };
    auto fast = run_once();
    ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
    auto slow = run_once();
    ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
    EXPECT_EQ(fast, slow);
    EXPECT_GT(fast.at("cycles"), 6'000u); // 20 reads x 300+ cycles
}

/** Sets an environment variable for the enclosing scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** An always-pass filter (key == key). */
modules::FilterConfig
passAllFilter()
{
    modules::FilterConfig cfg;
    cfg.lhs = modules::FilterOperand::key();
    cfg.op = modules::CompareOp::Eq;
    cfg.rhs = modules::FilterOperand::key();
    return cfg;
}

TEST(SleepWake, QueueCommitAndCloseWakeSleepers)
{
    // A Filter with an empty input declares itself blocked and leaves
    // the active set; a push commit and a close commit must each wake
    // it. Manual stepping keeps the deadlock detector out of the way.
    Simulator sim;
    auto *in = sim.makeQueue("in");
    auto *out = sim.makeQueue("out");
    auto *filter =
        sim.make<modules::Filter>("filter", in, out, passAllFilter());

    for (int i = 0; i < 3 && !filter->asleep(); ++i)
        sim.step();
    ASSERT_TRUE(filter->asleep());
    uint64_t slept_at = sim.cycle();
    for (int i = 0; i < 5; ++i)
        sim.step(); // nothing happens while it sleeps
    ASSERT_TRUE(filter->asleep());

    in->push(makeFlit(7));
    sim.step(); // the push commit wakes the filter
    EXPECT_FALSE(filter->asleep());
    EXPECT_GT(sim.cycle(), slept_at);
    for (int i = 0; i < 4 && !out->canPop(); ++i)
        sim.step();
    ASSERT_TRUE(out->canPop());
    EXPECT_EQ(out->front().key, 7);

    for (int i = 0; i < 3 && !filter->asleep(); ++i)
        sim.step(); // input empty again: back to sleep
    ASSERT_TRUE(filter->asleep());

    in->close();
    sim.step(); // the close commit wakes the filter
    EXPECT_FALSE(filter->asleep());
    for (int i = 0; i < 4 && !filter->done(); ++i)
        sim.step();
    EXPECT_TRUE(filter->done());
    EXPECT_TRUE(out->closed());
}

// EchoThroughMemory with the sleep/wake contract: every blocked tick
// names the event that can unblock it (memory retirement, queue commit).
class SleepyMemoryEcho final : public Module
{
  public:
    SleepyMemoryEcho(std::string name, MemoryPort *port,
                     HardwareQueue *in, HardwareQueue *out)
        : Module(std::move(name)), port_(port), in_(in), out_(out)
    {
    }

    void
    tick() override
    {
        if (closed_)
            return;
        if (waiting_) {
            if (port_->takeCompletedReadBytes() == 0) {
                countStall(stallMemory_);
                sleepOn(stallMemory_, {&port_->retireWaiters()});
                return;
            }
            noteProgress();
            waiting_ = false;
        }
        if (held_) {
            if (!out_->canPush()) {
                countStall(stallBackpressure_);
                sleepOn(stallBackpressure_, {&out_->waiters()});
                return;
            }
            out_->push(*held_);
            held_.reset();
            countFlit();
            return;
        }
        if (!in_->canPop()) {
            if (in_->drained()) {
                out_->close();
                closed_ = true;
            } else {
                sleepOn(nullptr, {&in_->waiters()});
            }
            return;
        }
        held_ = in_->pop();
        port_->issue(static_cast<uint64_t>(held_->key) * 64, 64, false);
        waiting_ = true;
    }

    bool done() const override { return closed_; }

  private:
    StatHandle stallMemory_ = stallCounter("memory");
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    MemoryPort *port_;
    HardwareQueue *in_;
    HardwareQueue *out_;
    std::optional<Flit> held_;
    bool waiting_ = false;
    bool closed_ = false;
};

TEST(SleepWake, MemoryRetireWakesAndStaysCycleExact)
{
    // A module sleeping on a 300-cycle memory read must be woken by
    // sub-request retirement, and the whole run must stay bit-identical
    // across every scheduling mode: sleep on/off x fast-forward on/off.
    auto run_once = [] {
        MemoryConfig cfg;
        cfg.latencyCycles = 300;
        cfg.rowHitLatencyCycles = 300;
        Simulator sim(cfg);
        auto *a = sim.makeQueue("a", 2);
        auto *b = sim.makeQueue("b", 2);
        auto *port = sim.memory().makePort(0);
        std::vector<Flit> flits;
        for (int i = 0; i < 20; ++i)
            flits.push_back(makeFlit(i));
        sim.make<test::VectorSource>("src", a, flits);
        sim.make<SleepyMemoryEcho>("echo", port, a, b);
        sim.make<test::VectorSink>("sink", b);
        sim.run();
        return sim.collectStats().counters();
    };
    auto base = run_once();
    {
        ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
        EXPECT_EQ(base, run_once());
    }
    {
        ScopedEnv no_ff("GENESIS_SIM_NO_FASTFORWARD", "1");
        EXPECT_EQ(base, run_once());
    }
    {
        ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
        ScopedEnv no_ff("GENESIS_SIM_NO_FASTFORWARD", "1");
        EXPECT_EQ(base, run_once());
    }
    // The slept spans are credited to the stall bucket: ~300 stall
    // cycles per read, exactly as a spinning module would count.
    EXPECT_GE(base.at("echo.stall.memory"), 300u);
    EXPECT_GT(base.at("cycles"), 6'000u);
}

// Sleeps on the SPM hazard scoreboard while a given address is under an
// in-flight read-modify-write. The mid-tick hazardRelease wake lands in
// its already-ticked past when it is added before the updater, and
// resumes it within the same tick phase when added after.
class HazardWaiter final : public Module
{
  public:
    HazardWaiter(std::string name, Scratchpad *spm, size_t addr)
        : Module(std::move(name)), spm_(spm), addr_(addr)
    {
    }

    void
    tick() override
    {
        if (done_)
            return;
        if (spm_->hazardHeld(addr_)) {
            sawHeld_ = true;
            countStall(stallHazard_);
            sleepOn(stallHazard_, {&spm_->hazardWaiters()});
            return;
        }
        if (sawHeld_) {
            done_ = true;
            noteProgress();
        }
    }

    bool done() const override { return done_; }
    bool sawHeld() const { return sawHeld_; }

  private:
    StatHandle stallHazard_ = stallCounter("hazard");
    Scratchpad *spm_;
    size_t addr_;
    bool sawHeld_ = false;
    bool done_ = false;
};

TEST(SleepWake, HazardClearanceWakesAndStaysCycleExact)
{
    auto run_once = [](bool *saw_held) {
        Simulator sim;
        auto *spm = sim.makeScratchpad("spm", 16);
        auto *in = sim.makeQueue("in");
        sim.make<test::VectorSource>(
            "src", in, std::vector<Flit>{makeFlit(5)});
        auto *waiter = sim.make<HazardWaiter>("waiter", spm, 5);
        modules::SpmUpdaterConfig ucfg;
        ucfg.mode = modules::SpmUpdateMode::ReadModifyWrite;
        sim.make<modules::SpmUpdater>("updater", spm, in, ucfg);
        sim.run();
        if (saw_held)
            *saw_held = waiter->sawHeld();
        EXPECT_TRUE(waiter->done());
        EXPECT_EQ(spm->read(5), 1); // the RMW increment landed
        return sim.collectStats().counters();
    };
    bool saw_held = false;
    auto base = run_once(&saw_held);
    EXPECT_TRUE(saw_held); // the hazard window was actually observed
    ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
    EXPECT_EQ(base, run_once(nullptr));
}

// Waits for another module's done(), then closes its output. Blocked
// ticks count a stall and sleep on the target's done waiters, which the
// simulator fires when it latches the target.
class DoneWaiter final : public Module
{
  public:
    DoneWaiter(std::string name, const Module *target, HardwareQueue *out)
        : Module(std::move(name)), target_(target), out_(out)
    {
    }

    void
    tick() override
    {
        if (closed_)
            return;
        if (!target_->done()) {
            countStall(stallWait_);
            sleepOn(stallWait_, {&target_->doneWaiters()});
            return;
        }
        out_->close();
        closed_ = true;
    }

    bool done() const override { return closed_; }

  private:
    StatHandle stallWait_ = stallCounter("wait");
    const Module *target_;
    HardwareQueue *out_;
    bool closed_ = false;
};

TEST(SleepWake, DoneWaitResumesWhenPollingWouldInEitherTickOrder)
{
    // A waiter ticked after its target sees the target's done() flip in
    // the same cycle; one ticked before it sees it a cycle later.
    // Sleeping on doneWaiters() must reproduce both exactly.
    auto run_once = [](bool waiter_first) {
        Simulator sim;
        auto *data = sim.makeQueue("data");
        auto *out = sim.makeQueue("out");
        std::vector<Flit> flits;
        for (int i = 0; i < 20; ++i)
            flits.push_back(makeFlit(i));
        std::unique_ptr<test::VectorSource> src =
            std::make_unique<test::VectorSource>("src", data, flits);
        auto waiter =
            std::make_unique<DoneWaiter>("waiter", src.get(), out);
        if (waiter_first) {
            sim.addModule(std::move(waiter));
            sim.addModule(std::move(src));
        } else {
            sim.addModule(std::move(src));
            sim.addModule(std::move(waiter));
        }
        sim.make<test::VectorSink>("data_sink", data);
        sim.make<test::VectorSink>("out_sink", out);
        sim.run();
        return sim.collectStats().counters();
    };
    for (bool waiter_first : {true, false}) {
        auto slept = run_once(waiter_first);
        ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
        EXPECT_EQ(slept, run_once(waiter_first))
            << "waiter_first " << waiter_first;
    }
    auto before = run_once(true);
    auto after = run_once(false);
    EXPECT_EQ(before.at("waiter.stall.wait"),
              after.at("waiter.stall.wait") + 1);
}

TEST(SleepWake, HazardWaiterAfterUpdaterStaysCycleExact)
{
    // The mirror of HazardClearanceWakesAndStaysCycleExact: the waiter
    // ticks after the updater, so the release wakes it within the same
    // tick phase and it must resume in that very cycle.
    auto run_once = [] {
        Simulator sim;
        auto *spm = sim.makeScratchpad("spm", 16);
        auto *in = sim.makeQueue("in");
        sim.make<test::VectorSource>(
            "src", in, std::vector<Flit>{makeFlit(5)});
        modules::SpmUpdaterConfig ucfg;
        ucfg.mode = modules::SpmUpdateMode::ReadModifyWrite;
        sim.make<modules::SpmUpdater>("updater", spm, in, ucfg);
        auto *waiter = sim.make<HazardWaiter>("waiter", spm, 5);
        sim.run();
        EXPECT_TRUE(waiter->done());
        return sim.collectStats().counters();
    };
    auto base = run_once();
    ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
    EXPECT_EQ(base, run_once());
}

TEST(SleepWake, ProvableDeadlockReportedImmediately)
{
    setQuiet(true);
    // Every module asleep + no pending memory event is a proven
    // deadlock: nothing can ever wake. The scheduler must report it
    // immediately (not after the 14k-cycle horizon) and name the
    // sleepers and the resources they await.
    Simulator sim;
    auto *in = sim.makeQueue("in"); // never fed, never closed
    auto *out = sim.makeQueue("out");
    sim.make<modules::Filter>("filter", in, out, passAllFilter());
    try {
        sim.run();
        FAIL() << "expected a deadlock panic";
    } catch (const PanicError &e) {
        EXPECT_LT(sim.cycle(), 100u);
        std::string msg = e.what();
        EXPECT_NE(msg.find("no module can ever wake"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("ASLEEP"), std::string::npos) << msg;
        EXPECT_NE(msg.find("queue in"), std::string::npos) << msg;
    }
    setQuiet(false);
}

TEST(Simulator, CollectStatsAggregates)
{
    Simulator sim;
    auto *q = sim.makeQueue("q");
    sim.make<test::VectorSource>("src", q,
                                 std::vector<Flit>{makeFlit(1)});
    sim.make<test::VectorSink>("sink", q);
    sim.run();
    StatRegistry stats = sim.collectStats();
    EXPECT_GT(stats.get("cycles"), 0u);
    EXPECT_EQ(stats.get("queue.q.flits"), 1u);
}

} // namespace
} // namespace genesis::sim
