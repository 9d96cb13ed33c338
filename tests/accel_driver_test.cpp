/**
 * @file
 * Refactor oracle for the accelerator stage driver: one fixed small
 * multi-batch run per stage must reproduce, exactly, the simulated
 * cycles, batch count, merged statistics and per-session charge record
 * (credited cycles and every DMA transfer's byte count, in charge
 * order) that the hand-written per-stage batch loops produced before
 * the stages were moved onto core/stage_driver.
 *
 * The expected values were recorded from that code (the commit before
 * the driver existed) on this exact workload and configuration. They
 * are simulator output, not tolerances: changing one is a change to the
 * simulated hardware or to its upload/flush order, and must be argued
 * as such.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/bqsr_accel.h"
#include "core/example_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "sim_test_utils.h"

namespace genesis::core {
namespace {

/** What the oracle fixes about one stage run. */
struct StageRecord {
    uint64_t totalCycles;
    uint64_t batches;
    size_t numCounters;
    /** FNV-1a 64 over "name=value\n" of every counter in name order. */
    uint64_t countersDigest;
    std::vector<runtime::SessionCharges> charges;
};

uint64_t
countersDigest(const StatRegistry &stats)
{
    uint64_t h = 1469598103934665603ull;
    for (const auto &[name, value] : stats.counters()) {
        std::string line = name + "=" + std::to_string(value) + "\n";
        for (unsigned char c : line) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }
    return h;
}

void
expectRecord(const AccelRunInfo &info, const StageRecord &want)
{
    EXPECT_EQ(info.totalCycles, want.totalCycles);
    EXPECT_EQ(info.batches, want.batches);
    EXPECT_EQ(info.stats.counters().size(), want.numCounters);
    EXPECT_EQ(countersDigest(info.stats), want.countersDigest);
    ASSERT_EQ(info.timing.charges.size(), want.charges.size());
    for (size_t s = 0; s < want.charges.size(); ++s) {
        EXPECT_EQ(info.timing.charges[s].cycles, want.charges[s].cycles)
            << "session " << s;
        EXPECT_EQ(info.timing.charges[s].transferBytes,
                  want.charges[s].transferBytes)
            << "session " << s;
    }
}

class AccelDriver : public ::testing::Test
{
  protected:
    test::SmallWorkload w_ = test::makeSmallWorkload(21, 60, 16'000, 1);
};

TEST_F(AccelDriver, CyclesStatsAndChargesMatchParent)
{
    {
        auto reads = w_.reads.reads;
        MarkDupAccelConfig cfg;
        cfg.numPipelines = 3;
        SCOPED_TRACE("markdup");
        expectRecord(MarkDupAccelerator(cfg).run(reads).info,
                     {6936u, 1u, 37u, 0x9f37bd25a1644987ull, {
                         {6936u, {6795, 6795, 6644, 180, 180, 176}},
                     }});
    }
    {
        auto reads = w_.reads.reads;
        MetadataAccelConfig cfg;
        cfg.numPipelines = 2;
        cfg.psize = 4'096;
        SCOPED_TRACE("metadata");
        expectRecord(
            MetadataAccelerator(cfg).run(reads, w_.genome).info,
            {20477u, 2u, 180u, 0x37d43b73ccfbe869ull, {
                {12175u, {132, 132, 124, 4983, 4983, 4247, 196, 196, 174,
                          7399, 7399, 4247, 132, 132, 220, 196, 196, 239}},
                {8302u, {96, 96, 88, 3624, 3624, 4247, 112, 112, 88, 4228,
                         4228, 3712, 96, 96, 135, 112, 112, 183}},
            }});
    }
    {
        BqsrAccelConfig cfg;
        cfg.numPipelines = 2;
        cfg.psize = 4'096;
        SCOPED_TRACE("bqsr");
        // Per pipeline: POS ENDPOS CIGAR SEQ QUAL FLAGS REFS.SEQ
        // REFS.IS_SNP up; TOT1 TOT2 ERR1 ERR2 down after both uploads.
        const std::vector<uint64_t> flushes = {
            50736, 2688, 50736, 2688, 50736, 2688, 50736, 2688};
        auto with_flushes = [&](std::vector<uint64_t> uploads) {
            uploads.insert(uploads.end(), flushes.begin(), flushes.end());
            return uploads;
        };
        expectRecord(
            BqsrAccelerator(cfg).run(w_.reads.reads, w_.genome).info,
            {333231u, 8u, 281u, 0x2eccf69e30f59362ull, {
                {40915u, with_flushes({16, 16, 14, 604, 604, 8, 4247, 4247,
                                       20, 20, 22, 755, 755, 10, 4247,
                                       4247})},
                {43348u, with_flushes({84, 84, 82, 3171, 3171, 42, 4247,
                                       4247, 12, 12, 6, 453, 453, 6, 4247,
                                       4247})},
                {41644u, with_flushes({40, 40, 32, 1510, 1510, 20, 4247,
                                       4247, 36, 36, 38, 1359, 1359, 18,
                                       4247, 4247})},
                {43345u, with_flushes({84, 84, 70, 3171, 3171, 42, 4247,
                                       4247, 36, 36, 34, 1359, 1359, 18,
                                       4247, 4247})},
                {41331u, with_flushes({32, 32, 34, 1208, 1208, 16, 4247,
                                       4247, 24, 24, 18, 906, 906, 12,
                                       4247, 4247})},
                {41026u, with_flushes({24, 24, 24, 906, 906, 12, 4247, 4247,
                                       16, 16, 12, 604, 604, 8, 4247,
                                       4247})},
                {40192u, with_flushes({16, 16, 12, 604, 604, 8, 3712, 3712,
                                       8, 8, 14, 302, 302, 4, 3712,
                                       3712})},
                {41430u, with_flushes({40, 40, 24, 1510, 1510, 20, 3712,
                                       3712, 48, 48, 38, 1812, 1812, 24,
                                       3712, 3712})},
            }});
    }
    {
        ExampleAccelConfig cfg;
        cfg.numPipelines = 2;
        cfg.psize = 4'096;
        SCOPED_TRACE("example");
        expectRecord(
            ExampleAccelerator(cfg).run(w_.reads.reads, w_.genome).info,
            {20099u, 2u, 126u, 0x9f6177aee4845593ull, {
                {11948u, {132, 132, 124, 4983, 4247, 196, 196, 174, 7399,
                          4247, 132, 196}},
                {8151u, {96, 96, 88, 3624, 4247, 112, 112, 88, 4228, 3712,
                         96, 112}},
            }});
    }
}


TEST_F(AccelDriver, RepricedChargesEqualASimulatedPcie4Run)
{
    // fig13b's PCIe 4.0 projection reprices each stage's PCIe 3 charge
    // record; it must equal the modeled seconds of the stage actually
    // simulated at PCIe 4, for every stage.
    runtime::RuntimeConfig pcie3;
    runtime::RuntimeConfig pcie4;
    pcie4.dma = runtime::DmaConfig::pcie4();
    auto expect_repriced = [&](const runtime::TimingBreakdown &t3,
                               const runtime::TimingBreakdown &t4) {
        runtime::TimingBreakdown repriced =
            t3.repriced(pcie3.clockHz, pcie4.dma);
        EXPECT_EQ(repriced.accelSeconds, t4.accelSeconds);
        EXPECT_EQ(repriced.dmaSeconds, t4.dmaSeconds);
        EXPECT_EQ(repriced.hostSeconds, t3.hostSeconds);
        EXPECT_LT(repriced.dmaSeconds, t3.dmaSeconds);
    };
    {
        SCOPED_TRACE("markdup");
        auto timing = [&](const runtime::RuntimeConfig &rt) {
            auto reads = w_.reads.reads;
            MarkDupAccelConfig cfg;
            cfg.numPipelines = 3;
            cfg.runtime = rt;
            return MarkDupAccelerator(cfg).run(reads).info.timing;
        };
        expect_repriced(timing(pcie3), timing(pcie4));
    }
    {
        SCOPED_TRACE("metadata");
        auto timing = [&](const runtime::RuntimeConfig &rt) {
            auto reads = w_.reads.reads;
            MetadataAccelConfig cfg;
            cfg.numPipelines = 2;
            cfg.psize = 4'096;
            cfg.runtime = rt;
            return MetadataAccelerator(cfg).run(reads, w_.genome)
                .info.timing;
        };
        expect_repriced(timing(pcie3), timing(pcie4));
    }
    {
        SCOPED_TRACE("bqsr");
        auto timing = [&](const runtime::RuntimeConfig &rt) {
            BqsrAccelConfig cfg;
            cfg.numPipelines = 2;
            cfg.psize = 4'096;
            cfg.runtime = rt;
            return BqsrAccelerator(cfg).run(w_.reads.reads, w_.genome)
                .info.timing;
        };
        expect_repriced(timing(pcie3), timing(pcie4));
    }
}

} // namespace
} // namespace genesis::core
