/**
 * @file
 * Unit battery for the rebuilt DRAM timing model: interleave-boundary
 * request splitting, per-channel byte distribution, MSHR-style burst
 * coalescing, bank/open-row timing, retire ordering, the busy/idle stat
 * invariant, and fast-forward parity on unaligned gather-shaped traffic.
 *
 * These tests drive MemorySystem directly (no pipeline modules) so that
 * every timing claim is attributable to the memory model alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "sim_test_utils.h"

namespace genesis::sim {
namespace {

/** Tick until the port drains (or the cycle budget runs out). */
uint64_t
drain(MemorySystem &mem, uint64_t max_cycles = 1'000'000)
{
    uint64_t start = mem.cycle();
    while (!mem.idle() && mem.cycle() - start < max_cycles)
        mem.tick();
    EXPECT_TRUE(mem.idle()) << "memory did not drain";
    return mem.cycle() - start;
}

/** Total completed read bytes across a full drain of one port. */
uint64_t
drainReads(MemorySystem &mem, MemoryPort *port)
{
    uint64_t total = port->takeCompletedReadBytes();
    uint64_t start = mem.cycle();
    while (!mem.idle() && mem.cycle() - start < 1'000'000) {
        mem.tick();
        total += port->takeCompletedReadBytes();
    }
    EXPECT_TRUE(mem.idle()) << "memory did not drain";
    return total;
}

// --- request splitting across channels -------------------------------------

TEST(MemModelSplit, CrossingRequestsDistributeAcrossAllChannels)
{
    // Every request starts on a granule that maps to channel 0 but spans
    // one full interleave period. The old model timed each request on
    // channelOf(start address) alone, provably pinning all traffic to
    // channel 0; splitting must spread the bytes evenly over all four.
    MemoryConfig cfg;
    cfg.numChannels = 4;
    cfg.accessGranularity = 64;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    const int kRequests = 16;
    uint64_t issued = 0;
    int sent = 0;
    while (sent < kRequests) {
        while (sent < kRequests && port->canIssue()) {
            port->issue(static_cast<uint64_t>(sent) * 256, 256, false);
            issued += 256;
            ++sent;
        }
        mem.tick();
    }
    uint64_t completed = port->takeCompletedReadBytes() +
        drainReads(mem, port);

    EXPECT_EQ(completed, issued);
    for (int ch = 0; ch < 4; ++ch) {
        EXPECT_EQ(mem.channelBytes(ch), issued / 4)
            << "channel " << ch << " did not get its interleave share";
    }
    EXPECT_EQ(mem.stats().get("read_bytes"), issued);
}

TEST(MemModelSplit, UnalignedRequestSplitsAtInterleaveBoundary)
{
    MemoryConfig cfg;
    cfg.numChannels = 4;
    cfg.accessGranularity = 64;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    // [32, 96) straddles the granule boundary at 64: 32 bytes belong to
    // channel 0 and 32 bytes to channel 1.
    port->issue(32, 64, false);
    EXPECT_EQ(port->outstanding(), 2u);
    uint64_t completed = drainReads(mem, port);
    EXPECT_EQ(completed, 64u);
    EXPECT_EQ(mem.channelBytes(0), 32u);
    EXPECT_EQ(mem.channelBytes(1), 32u);
    EXPECT_EQ(mem.channelBytes(2), 0u);
    EXPECT_EQ(mem.stats().get("sub_requests"), 2u);
    EXPECT_EQ(mem.stats().get("requests"), 1u);
}

TEST(MemModelSplit, ByteTotalsSurviveSplittingExactly)
{
    // Ragged unaligned request stream: the sum of completed bytes must
    // equal the sum of issued bytes no matter how slices are cut/merged.
    MemoryConfig cfg;
    cfg.numChannels = 3; // non-power-of-two channel count
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    uint64_t issued = 0;
    uint64_t addr = 5;
    for (int i = 0; i < 40; ++i) {
        while (!port->canIssue())
            mem.tick();
        uint32_t bytes = 1 + static_cast<uint32_t>((i * 37) % 150);
        port->issue(addr, bytes, false);
        addr += bytes + (i % 3); // occasional gaps break contiguity
        issued += bytes;
        mem.tick();
    }
    uint64_t completed = port->takeCompletedReadBytes() +
        drainReads(mem, port);
    EXPECT_EQ(completed, issued);
    EXPECT_EQ(mem.stats().get("read_bytes"), issued);
    uint64_t per_channel = 0;
    for (int ch = 0; ch < cfg.numChannels; ++ch)
        per_channel += mem.channelBytes(ch);
    EXPECT_EQ(per_channel, issued);
}

// --- MSHR-style coalescing --------------------------------------------------

TEST(MemModelCoalesce, TailAndHeadSlicesShareOneGranuleAccess)
{
    // An unaligned 64 B stream: request k covers [13+64k, 77+64k), so
    // the tail slice of request k and the head slice of request k+1
    // both live in granule k+1 and must merge into one access instead
    // of paying for the granule twice.
    MemoryConfig cfg;
    cfg.numChannels = 4;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    uint64_t issued = 0;
    for (int i = 0; i < 16; ++i) {
        while (!port->canIssue())
            mem.tick();
        port->issue(13 + static_cast<uint64_t>(i) * 64, 64, false);
        issued += 64;
    }
    uint64_t completed = port->takeCompletedReadBytes() +
        drainReads(mem, port);
    EXPECT_EQ(completed, issued);
    EXPECT_GT(mem.stats().get("coalesced_sub_requests"), 0u);
    // 16 crossing requests naively make 32 slices; merging must claw a
    // slice back for every tail/head pair that met in the queue.
    EXPECT_EQ(mem.stats().get("sub_requests") +
                  mem.stats().get("coalesced_sub_requests"),
              32u);
    EXPECT_LT(mem.stats().get("sub_requests"), 32u);
}

TEST(MemModelCoalesce, ContiguousStreamMergesUpToBurstCap)
{
    // On one channel every consecutive granule is local, so an aligned
    // 64 B stream issued back-to-back coalesces into maxBurstBytes
    // bursts and nothing larger.
    MemoryConfig cfg;
    cfg.numChannels = 1;
    cfg.accessGranularity = 64;
    cfg.maxBurstBytes = 256;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    for (int i = 0; i < 16; ++i)
        port->issue(static_cast<uint64_t>(i) * 64, 64, false);
    EXPECT_EQ(port->outstanding(), 4u); // 16 x 64 B in 4 x 256 B bursts
    uint64_t completed = drainReads(mem, port);
    EXPECT_EQ(completed, 16u * 64u);
    EXPECT_EQ(mem.stats().get("sub_requests"), 4u);
    EXPECT_EQ(mem.stats().get("coalesced_sub_requests"), 12u);
}

// --- banks and open rows ----------------------------------------------------

TEST(MemModelBank, SameBankTrafficSerializesAcrossPorts)
{
    // Two ports streaming row-missing requests: when both map to the
    // same bank the access phases serialize (and bank conflicts are
    // counted); on different banks they overlap.
    auto run_case = [](bool same_bank) {
        MemoryConfig cfg;
        cfg.numChannels = 1;
        cfg.banksPerChannel = 2;
        cfg.rowBytes = 64; // one row per granule: every access misses
        cfg.maxBurstBytes = 64; // no merging: isolate bank timing
        cfg.latencyCycles = 40;
        cfg.rowHitLatencyCycles = 40;
        MemorySystem mem(cfg);
        MemoryPort *a = mem.makePort(0);
        MemoryPort *b = mem.makePort(1);
        // Rows interleave over banks, so even rows are bank 0 and odd
        // rows bank 1. Port a walks even rows; port b walks even rows
        // too (same bank) or odd rows (other bank).
        const int kEach = 8;
        int sent_a = 0, sent_b = 0;
        while (sent_a < kEach || sent_b < kEach || !mem.idle()) {
            if (sent_a < kEach && a->canIssue()) {
                a->issue(static_cast<uint64_t>(sent_a) * 128, 64, false);
                ++sent_a;
            }
            if (sent_b < kEach && b->canIssue()) {
                uint64_t addr = 4096 +
                    static_cast<uint64_t>(sent_b) * 128 +
                    (same_bank ? 0 : 64);
                b->issue(addr, 64, false);
                ++sent_b;
            }
            mem.tick();
            if (mem.cycle() > 100'000)
                break;
        }
        EXPECT_TRUE(mem.idle());
        return std::pair<uint64_t, uint64_t>(
            mem.cycle(), mem.stats().get("bank_conflict_cycles"));
    };
    auto [same_cycles, same_conflicts] = run_case(true);
    auto [diff_cycles, diff_conflicts] = run_case(false);
    EXPECT_GT(same_cycles, diff_cycles);
    EXPECT_GT(same_conflicts, 0u);
    EXPECT_GT(same_conflicts, diff_conflicts);
}

TEST(MemModelBank, OpenRowHitsBeatRowThrashing)
{
    // Same byte volume, same bank: a sequential stream keeps the row
    // open (one miss then hits at the short latency) while a
    // row-granular stride re-opens a row per access.
    auto run_case = [](uint64_t stride) {
        MemoryConfig cfg;
        cfg.numChannels = 1;
        cfg.banksPerChannel = 1;
        cfg.rowBytes = 4096;
        cfg.latencyCycles = 40;  // miss
        cfg.rowHitLatencyCycles = 5;
        cfg.maxBurstBytes = 64; // no merging: isolate row timing
        cfg.bytesPerCyclePerChannel = 64;
        MemorySystem cfg_mem(cfg);
        MemoryPort *port = cfg_mem.makePort(0);
        const int kRequests = 16;
        int sent = 0;
        while (sent < kRequests || !cfg_mem.idle()) {
            if (sent < kRequests && port->canIssue()) {
                port->issue(static_cast<uint64_t>(sent) * stride, 64,
                            false);
                ++sent;
            }
            cfg_mem.tick();
            if (cfg_mem.cycle() > 100'000)
                break;
        }
        EXPECT_TRUE(cfg_mem.idle());
        return std::tuple<uint64_t, uint64_t, uint64_t>(
            cfg_mem.cycle(), cfg_mem.stats().get("row_hits"),
            cfg_mem.stats().get("row_misses"));
    };
    auto [seq_cycles, seq_hits, seq_misses] = run_case(64);
    auto [thrash_cycles, thrash_hits, thrash_misses] = run_case(4096);
    EXPECT_EQ(seq_misses, 1u);   // only the cold first access
    EXPECT_EQ(seq_hits, 15u);
    EXPECT_EQ(thrash_hits, 0u);  // every access opens a new row
    EXPECT_EQ(thrash_misses, 16u);
    EXPECT_LT(seq_cycles, thrash_cycles);
}

// --- retire ordering --------------------------------------------------------

TEST(MemModelRetire, CompletionsRetireInIssueOrderPerPort)
{
    // A long transfer issued before a short one: the short one's bytes
    // must not surface first, even though it targets a free channel.
    MemoryConfig cfg;
    cfg.numChannels = 2;
    cfg.bytesPerCyclePerChannel = 1; // 64 B take 64 transfer cycles
    cfg.latencyCycles = 4;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    port->issue(0, 64, false);  // channel 0, slow
    port->issue(64, 8, false);  // channel 1, fast
    uint64_t first_batch = 0;
    while (first_batch == 0 && mem.cycle() < 10'000) {
        mem.tick();
        first_batch = port->takeCompletedReadBytes();
    }
    // The head request's 64 bytes arrive first (possibly together with
    // the second request's 8, never the 8 alone).
    EXPECT_GE(first_batch, 64u);
    uint64_t rest = drainReads(mem, port);
    EXPECT_EQ(first_batch + rest, 72u);
}

// --- stat invariant ---------------------------------------------------------

TEST(MemModelStats, BusyPlusIdleEqualsChannelsTimesCycles)
{
    MemoryConfig cfg;
    cfg.numChannels = 3;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    uint64_t addr = 7;
    for (int burst = 0; burst < 20; ++burst) {
        if (port->canIssue()) {
            port->issue(addr, 100, burst % 2 == 0);
            addr += 517;
        }
        for (int i = 0; i < 10; ++i) {
            mem.tick();
            ASSERT_EQ(mem.stats().get("channel_busy_cycles") +
                          mem.stats().get("channel_idle_cycles"),
                      3u * mem.cycle());
        }
    }
    drain(mem);
    mem.assertStatInvariant();
}

TEST(MemModelStats, InvariantHoldsThroughFastForwardedRuns)
{
    // A long-latency design that the simulator fast-forwards: the bulk
    // crediting must keep busy+idle == channels x cycles exactly.
    MemoryConfig cfg;
    cfg.latencyCycles = 500;
    cfg.rowHitLatencyCycles = 500; // uniform: keep every wait ~500 cycles
    Simulator sim(cfg);
    auto *q = sim.makeQueue("q", 2);
    auto *out = sim.makeQueue("out", 2);
    auto *port = sim.memory().makePort(0);
    std::vector<Flit> flits;
    for (int i = 0; i < 10; ++i)
        flits.push_back(makeFlit(i));
    sim.make<test::VectorSource>("src", q, flits);

    class Echo final : public Module
    {
      public:
        Echo(std::string name, MemoryPort *port, HardwareQueue *in,
             HardwareQueue *out)
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
                if (!out_->canPush())
                    return;
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
            port_->issue(static_cast<uint64_t>(held_->key) * 4096 + 9,
                        48, false);
            waiting_ = true;
        }
        bool done() const override { return closed_; }

      private:
        StatHandle stallMemory_ = stallCounter("memory");
        MemoryPort *port_;
        HardwareQueue *in_;
        HardwareQueue *out_;
        std::optional<Flit> held_;
        bool waiting_ = false;
        bool closed_ = false;
    };
    sim.make<Echo>("echo", port, q, out);
    sim.make<test::VectorSink>("sink", out);
    uint64_t cycles = sim.run();
    EXPECT_GT(cycles, 10u * 500u); // genuinely fast-forward territory
    sim.memory().assertStatInvariant();
    EXPECT_EQ(sim.memory().stats().get("channel_busy_cycles") +
                  sim.memory().stats().get("channel_idle_cycles"),
              static_cast<uint64_t>(
                  sim.memory().config().numChannels) * cycles);
}

TEST(MemModelStats, DeadlockDumpPassesInvariantCheck)
{
    setQuiet(true);
    // The deadlock dumpState path runs assertStatInvariant; a wedged
    // design must still produce the deadlock panic, not a stat panic.
    Simulator sim;
    auto *q = sim.makeQueue("q");
    sim.make<test::VectorSink>("sink", q);
    try {
        sim.run();
        FAIL() << "expected a deadlock panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("deadlock: no progress"),
                  std::string::npos)
            << "unexpected panic: " << e.what();
    }
    setQuiet(false);
}

// --- gather-shaped traffic and effective bandwidth --------------------------

TEST(MemModelGather, ScatteredSmallReadsTouchEveryChannel)
{
    MemoryConfig cfg;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    // BQSR/markdup-gather-shaped: small unaligned reads at scattered
    // addresses (deterministic LCG walk over a 1 MiB footprint).
    uint64_t state = 12345;
    uint64_t issued = 0;
    for (int i = 0; i < 200; ++i) {
        while (!port->canIssue())
            mem.tick();
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t addr = (state >> 16) % (1u << 20);
        port->issue(addr, 10, false);
        issued += 10;
        mem.tick();
    }
    uint64_t completed = port->takeCompletedReadBytes() +
        drainReads(mem, port);
    EXPECT_EQ(completed, issued);
    for (int ch = 0; ch < cfg.numChannels; ++ch)
        EXPECT_GT(mem.channelBytes(ch), 0u) << "channel " << ch;
    // Scattered rows: misses dominate hits.
    EXPECT_GT(mem.stats().get("row_misses"),
              mem.stats().get("row_hits"));
}

TEST(MemModelBandwidth, StreamingSustainsAtLeastGatherBandwidth)
{
    // Equal byte volumes: sequential streaming (row hits, full-granule
    // bursts) must achieve at least the effective bandwidth of a
    // scattered small-read gather (row misses, partial granules).
    const uint64_t kBytes = 64 * 1024;
    auto cycles_for = [&](bool streaming) {
        MemoryConfig cfg;
        MemorySystem mem(cfg);
        MemoryPort *port = mem.makePort(0);
        uint64_t issued = 0;
        uint64_t state = 99;
        while (issued < kBytes || !mem.idle()) {
            while (issued < kBytes && port->canIssue()) {
                if (streaming) {
                    port->issue(issued, 64, false);
                    issued += 64;
                } else {
                    state = state * 6364136223846793005ull +
                        1442695040888963407ull;
                    uint64_t addr = (state >> 16) % (8u << 20);
                    uint32_t bytes = static_cast<uint32_t>(
                        std::min<uint64_t>(16, kBytes - issued));
                    port->issue(addr, bytes, false);
                    issued += bytes;
                }
            }
            mem.tick();
            port->takeCompletedReadBytes();
            if (mem.cycle() > 10'000'000)
                break;
        }
        EXPECT_TRUE(mem.idle());
        return mem.cycle();
    };
    uint64_t streaming_cycles = cycles_for(true);
    uint64_t gather_cycles = cycles_for(false);
    EXPECT_LE(streaming_cycles, gather_cycles);
}

// --- fast-forward parity on unaligned traffic -------------------------------

TEST(MemModelParity, FastForwardBitIdenticalOnGatherTraffic)
{
    // Unaligned, split-and-coalesce-heavy traffic, fast-forward on vs
    // off: cycle counts and every aggregated statistic must match.
    auto run_once = [] {
        MemoryConfig cfg;
        cfg.latencyCycles = 250;
        Simulator sim(cfg);
        auto *a = sim.makeQueue("a", 2);
        auto *b = sim.makeQueue("b", 2);
        auto *port = sim.memory().makePort(0);
        std::vector<Flit> flits;
        for (int i = 0; i < 15; ++i)
            flits.push_back(makeFlit(i));
        sim.make<test::VectorSource>("src", a, flits);

        class UnalignedEcho final : public Module
        {
          public:
            UnalignedEcho(std::string name, MemoryPort *port,
                          HardwareQueue *in, HardwareQueue *out)
                : Module(std::move(name)), port_(port), in_(in),
                  out_(out)
            {
            }
            void
            tick() override
            {
                if (closed_)
                    return;
                if (expect_ > 0) {
                    got_ += port_->takeCompletedReadBytes();
                    if (got_ < expect_) {
                        countStall(stallMemory_);
                        return;
                    }
                    noteProgress();
                    expect_ = 0;
                    got_ = 0;
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
                uint64_t key = static_cast<uint64_t>(held_->key);
                uint32_t bytes =
                    40 + static_cast<uint32_t>(key % 5) * 31;
                port_->issue(key * 113 + 7, bytes, false);
                expect_ = bytes;
            }
            bool done() const override { return closed_; }

          private:
            StatHandle stallMemory_ = stallCounter("memory");
            StatHandle stallBackpressure_ =
                stallCounter("backpressure");
            MemoryPort *port_;
            HardwareQueue *in_;
            HardwareQueue *out_;
            std::optional<Flit> held_;
            uint64_t expect_ = 0;
            uint64_t got_ = 0;
            bool closed_ = false;
        };
        sim.make<UnalignedEcho>("echo", port, a, b);
        sim.make<test::VectorSink>("sink", b);
        sim.run();
        return sim.collectStats().counters();
    };
    auto fast = run_once();
    ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
    auto slow = run_once();
    ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
    EXPECT_EQ(fast, slow);
}

// --- configuration validation -----------------------------------------------

TEST(MemModelConfig, RejectsInvalidGeometry)
{
    setQuiet(true);
    {
        MemoryConfig cfg;
        cfg.accessGranularity = 0;
        EXPECT_THROW(MemorySystem{cfg}, FatalError);
    }
    {
        MemoryConfig cfg;
        cfg.accessGranularity = 48; // not a power of two
        EXPECT_THROW(MemorySystem{cfg}, FatalError);
    }
    {
        MemoryConfig cfg;
        cfg.banksPerChannel = 0;
        EXPECT_THROW(MemorySystem{cfg}, FatalError);
    }
    {
        MemoryConfig cfg;
        cfg.rowBytes = 96; // not a granularity multiple
        EXPECT_THROW(MemorySystem{cfg}, FatalError);
    }
    {
        MemoryConfig cfg;
        cfg.maxBurstBytes = 32; // below the granularity
        EXPECT_THROW(MemorySystem{cfg}, FatalError);
    }
    setQuiet(false);
}

TEST(MemModelConfig, RowHitLatencyDefaultsToHalfMiss)
{
    MemoryConfig cfg;
    cfg.latencyCycles = 30;
    MemorySystem mem(cfg);
    EXPECT_EQ(mem.config().rowHitLatencyCycles, 15u);

    MemoryConfig explicit_cfg;
    explicit_cfg.latencyCycles = 30;
    explicit_cfg.rowHitLatencyCycles = 7;
    MemorySystem mem2(explicit_cfg);
    EXPECT_EQ(mem2.config().rowHitLatencyCycles, 7u);
}

TEST(MemoryValidate, DefaultConfigIsValid)
{
    EXPECT_TRUE(validate(MemoryConfig()).empty());
}

TEST(MemoryValidate, EveryBadFieldIsNamed)
{
    MemoryConfig cfg;
    cfg.numChannels = 0;
    cfg.banksPerChannel = 0;
    cfg.bytesPerCyclePerChannel = 0;
    cfg.accessGranularity = 48; // not a power of two
    cfg.portQueueDepth = 0;
    std::vector<std::string> errors = validate(cfg);
    auto contains = [&errors](const char *field) {
        for (const auto &e : errors) {
            if (e.rfind(field, 0) == 0)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(contains("numChannels:"));
    EXPECT_TRUE(contains("banksPerChannel:"));
    EXPECT_TRUE(contains("bytesPerCyclePerChannel:"));
    EXPECT_TRUE(contains("accessGranularity:"));
    EXPECT_TRUE(contains("portQueueDepth:"));
}

TEST(MemoryValidate, RowAndBurstCheckedAgainstGranularity)
{
    MemoryConfig cfg;
    cfg.accessGranularity = 64;
    cfg.rowBytes = 96; // not a multiple of 64
    std::vector<std::string> errors = validate(cfg);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].rfind("rowBytes:", 0), 0u) << errors[0];

    cfg.rowBytes = 1024;
    cfg.maxBurstBytes = 32; // below the granularity
    errors = validate(cfg);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].rfind("maxBurstBytes:", 0), 0u) << errors[0];

    // With a broken granularity, the relative checks stay quiet rather
    // than emitting nonsense comparisons against it.
    cfg.accessGranularity = 0;
    errors = validate(cfg);
    for (const auto &e : errors) {
        EXPECT_EQ(e.find("rowBytes"), std::string::npos) << e;
        EXPECT_EQ(e.find("maxBurstBytes"), std::string::npos) << e;
    }
}

TEST(MemoryValidate, ConstructorFatalsWithTheFieldName)
{
    MemoryConfig cfg;
    cfg.numChannels = 0;
    try {
        MemorySystem mem(cfg);
        FAIL() << "constructor accepted zero channels";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("numChannels"),
                  std::string::npos);
    }
}

// --- event horizon and the event-jump driver (DESIGN.md §4d) -----------

/** Everything an event-driven run must reproduce bit-for-bit. */
struct DriveResult {
    uint64_t cycles = 0;
    std::map<std::string, uint64_t> stats;
    std::vector<uint64_t> channelBytes;
};

/**
 * Drive a four-port gather+stream mix to completion. With `event_jump`,
 * skip spans nextEventCycle() proves quiet via tickQuiet() — the
 * bench/sim_membw driver shape.
 */
DriveResult
driveMixed(bool event_jump)
{
    MemoryConfig cfg;
    MemorySystem mem(cfg);
    const int kPorts = 4;
    std::vector<MemoryPort *> ports;
    for (int p = 0; p < kPorts; ++p)
        ports.push_back(mem.makePort(p));

    uint64_t lcg = 12345;
    std::vector<int> remaining(kPorts, 64);
    bool done = false;
    while (!done || !mem.idle()) {
        done = true;
        for (int p = 0; p < kPorts; ++p) {
            while (remaining[static_cast<size_t>(p)] > 0 &&
                   ports[static_cast<size_t>(p)]->canIssue()) {
                lcg = lcg * 6364136223846793005ull +
                    1442695040888963407ull;
                // Ports 0-1 stream rows; ports 2-3 gather scattered
                // granules, so bank conflicts and row misses both occur.
                uint64_t addr = p < 2
                    ? (static_cast<uint64_t>(p) << 24) +
                        static_cast<uint64_t>(
                            64 - remaining[static_cast<size_t>(p)]) * 64
                    : (lcg >> 16) & ((1ull << 22) - 1);
                ports[static_cast<size_t>(p)]->issue(addr, 64, p % 2);
                --remaining[static_cast<size_t>(p)];
            }
            if (remaining[static_cast<size_t>(p)] > 0)
                done = false;
        }
        mem.tick();
        for (auto *port : ports)
            port->takeCompletedReadBytes();
        if (event_jump) {
            uint64_t next = mem.nextEventCycle();
            if (next != MemorySystem::kNoEvent &&
                next > mem.cycle() + 1)
                mem.tickQuiet(next - mem.cycle() - 1);
        }
    }
    mem.assertStatInvariant();
    DriveResult r;
    r.cycles = mem.cycle();
    r.stats = mem.stats().counters();
    for (int ch = 0; ch < cfg.numChannels; ++ch)
        r.channelBytes.push_back(mem.channelBytes(ch));
    return r;
}

TEST(MemModelEvents, EventJumpDriverBitIdenticalToPerCycle)
{
    // tickQuiet over spans nextEventCycle() proved quiet must leave
    // cycles, every stat and the per-channel byte distribution exactly
    // as a tick-by-tick run (the bench/sim_membw driver contract).
    DriveResult per_cycle = driveMixed(false);
    DriveResult jump = driveMixed(true);
    EXPECT_EQ(jump.cycles, per_cycle.cycles);
    EXPECT_EQ(jump.stats, per_cycle.stats);
    EXPECT_EQ(jump.channelBytes, per_cycle.channelBytes);
}


// --- random-traffic fuzz: per-cycle vs event-jump driver -------------------

/** A random MemoryConfig that passes validate(). */
MemoryConfig
randomConfig(Rng &rng)
{
    MemoryConfig cfg;
    cfg.numChannels = static_cast<int>(rng.range(1, 8));
    cfg.bytesPerCyclePerChannel =
        static_cast<uint32_t>(4u << rng.below(4)); // 4..32
    cfg.latencyCycles = static_cast<uint32_t>(rng.range(1, 60));
    cfg.rowHitLatencyCycles = rng.below(3) == 0
        ? 0 : static_cast<uint32_t>(rng.range(1, cfg.latencyCycles));
    cfg.accessGranularity = static_cast<uint32_t>(16u << rng.below(4));
    cfg.banksPerChannel = static_cast<int>(rng.range(1, 8));
    cfg.rowBytes = cfg.accessGranularity *
        static_cast<uint32_t>(rng.range(1, 32));
    cfg.maxBurstBytes = cfg.accessGranularity *
        static_cast<uint32_t>(rng.range(1, 4));
    cfg.portQueueDepth = static_cast<size_t>(rng.range(1, 8));
    return cfg;
}

/** Everything one fuzz drive observes, compared across drivers. */
struct FuzzResult {
    uint64_t cycles = 0;
    std::map<std::string, uint64_t> stats;
    std::vector<uint64_t> channelBytes;
    /** Per port, (cycle, sub-requests retired) for every tick that
     *  retired any, in order. */
    std::vector<std::vector<std::pair<uint64_t, size_t>>> retirements;

    bool operator==(const FuzzResult &) const = default;
};

/**
 * Drive random mixed read/write traffic from 1-16 local-arbiter groups
 * of 1-12 ports through a random configuration. Each port issues from
 * its own request stream whenever it has credit, so issue cycles depend
 * only on retirements (events): the per-cycle and event-jump drivers
 * must therefore issue at identical cycles and agree on everything.
 */
FuzzResult
driveFuzz(uint64_t seed, bool event_jump)
{
    Rng shape(seed);
    MemoryConfig cfg = randomConfig(shape);
    EXPECT_TRUE(validate(cfg).empty()) << "seed " << seed;
    MemorySystem mem(cfg);
    const int groups = static_cast<int>(shape.range(1, 16));
    std::vector<MemoryPort *> ports;
    std::vector<Rng> streams;
    std::vector<int> remaining;
    for (int g = 0; g < groups; ++g) {
        const int per_group = static_cast<int>(shape.range(1, 12));
        for (int i = 0; i < per_group; ++i) {
            ports.push_back(mem.makePort(g));
            streams.emplace_back(shape.next());
            remaining.push_back(static_cast<int>(shape.range(0, 24)));
        }
    }
    const uint64_t gran = cfg.accessGranularity;

    // Issue is event-driven: ports refill right after each tick, before
    // the jump driver asks for the next event, so both drivers issue on
    // the same memory cycles.
    auto fill = [&] {
        bool exhausted = true;
        for (size_t p = 0; p < ports.size(); ++p) {
            Rng &rng = streams[p];
            while (remaining[p] > 0 && ports[p]->canIssue()) {
                // Small footprint per port: row hits, bank conflicts and
                // cross-granule splits (and so coalescing) all occur.
                uint64_t addr = (static_cast<uint64_t>(p) << 20) +
                    rng.below(64 * gran);
                uint32_t bytes =
                    static_cast<uint32_t>(rng.range(1, 3 * gran));
                ports[p]->issue(addr, bytes, rng.below(3) == 0);
                --remaining[p];
            }
            if (remaining[p] > 0)
                exhausted = false;
        }
        return exhausted;
    };

    FuzzResult r;
    r.retirements.resize(ports.size());
    std::vector<size_t> before(ports.size());
    bool exhausted = fill();
    while (!exhausted || !mem.idle()) {
        for (size_t p = 0; p < ports.size(); ++p)
            before[p] = ports[p]->outstanding();
        mem.tick();
        for (size_t p = 0; p < ports.size(); ++p) {
            ports[p]->takeCompletedReadBytes();
            if (ports[p]->outstanding() < before[p]) {
                r.retirements[p].emplace_back(
                    mem.cycle(), before[p] - ports[p]->outstanding());
            }
        }
        exhausted = fill();
        if (event_jump) {
            uint64_t next = mem.nextEventCycle();
            if (next != MemorySystem::kNoEvent && next > mem.cycle() + 1)
                mem.tickQuiet(next - mem.cycle() - 1);
        }
    }
    mem.assertStatInvariant();
    r.cycles = mem.cycle();
    r.stats = mem.stats().counters();
    for (int ch = 0; ch < cfg.numChannels; ++ch)
        r.channelBytes.push_back(mem.channelBytes(ch));
    return r;
}

/** FNV-1a over a fuzz result, for pinning it across model rewrites. */
uint64_t
digest(const FuzzResult &r, uint64_t h)
{
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(r.cycles);
    for (const auto &[name, value] : r.stats) {
        for (char c : name)
            mix(static_cast<unsigned char>(c));
        mix(value);
    }
    for (uint64_t bytes : r.channelBytes)
        mix(bytes);
    for (const auto &port : r.retirements) {
        mix(port.size());
        for (const auto &[cycle, count] : port) {
            mix(cycle);
            mix(count);
        }
    }
    return h;
}

TEST(MemModelFuzz, EventJumpMatchesPerCycleOnRandomTraffic)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        FuzzResult per_cycle = driveFuzz(seed, false);
        FuzzResult jump = driveFuzz(seed, true);
        ASSERT_EQ(jump.cycles, per_cycle.cycles) << "seed " << seed;
        EXPECT_EQ(jump.stats, per_cycle.stats) << "seed " << seed;
        EXPECT_EQ(jump.channelBytes, per_cycle.channelBytes)
            << "seed " << seed;
        EXPECT_TRUE(jump.retirements == per_cycle.retirements)
            << "seed " << seed;
        h = digest(per_cycle, h);
    }
    // Recorded with the port-scanning memory model that preceded the
    // per-channel head lists and the retirement heap: cycles, stats,
    // channel bytes and every port's retirement cycles are unchanged.
    EXPECT_EQ(h, 0x4cd32c58ea3c2014ull);
}

} // namespace
} // namespace genesis::sim
