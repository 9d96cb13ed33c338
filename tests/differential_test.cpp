/**
 * @file
 * Differential golden-model battery: every accelerator pipeline must
 * agree exactly with its software (src/gatk) implementation on seeded
 * read_simulator inputs across several workload sizes and seeds, with
 * the pipeline/batch geometry varied by size. This widens the seed
 * coverage of accel_test.cpp into a size x seed grid, so partition
 * boundaries, batch counts and SPM window positions all shift between
 * cases while the outputs must stay bit-identical.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "core/bqsr_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "gatk/bqsr.h"
#include "gatk/markdup.h"
#include "gatk/metadata.h"
#include "sim_test_utils.h"

namespace genesis::core {
namespace {

/** (read pairs, seed) — the grid axes. */
using DiffParam = std::tuple<int64_t, uint64_t>;

class DifferentialGoldenModel
    : public ::testing::TestWithParam<DiffParam>
{
  protected:
    void
    SetUp() override
    {
        pairs_ = std::get<0>(GetParam());
        seed_ = std::get<1>(GetParam());
        // Chromosome length scales with the workload so coverage stays
        // comparable; two chromosomes exercise reference partitioning.
        workload_ = test::makeSmallWorkload(seed_, pairs_,
                                            40'000 + 80 * pairs_, 2);
    }

    /** Vary the hardware geometry with the workload so batch splits
     *  differ between grid points. */
    int
    pipelinesForSize() const
    {
        return pairs_ < 200 ? 1 : pairs_ < 500 ? 3 : 5;
    }

    int64_t pairs_ = 0;
    uint64_t seed_ = 0;
    test::SmallWorkload workload_;
};

TEST_P(DifferentialGoldenModel, MarkDupMatchesSoftwareExactly)
{
    auto hw_reads = workload_.reads.reads;
    auto sw_reads = workload_.reads.reads;

    MarkDupAccelConfig cfg;
    cfg.numPipelines = pipelinesForSize();
    auto hw = MarkDupAccelerator(cfg).run(hw_reads);

    auto sw_sums = gatk::computeQualSums(sw_reads);
    auto sw_stats = gatk::markDuplicatesWithQualSums(sw_reads, sw_sums);

    EXPECT_EQ(hw.qualSums, sw_sums);
    EXPECT_EQ(hw.stats.duplicatesMarked, sw_stats.duplicatesMarked);
    EXPECT_EQ(hw.stats.duplicateSets, sw_stats.duplicateSets);
    ASSERT_EQ(hw_reads.size(), sw_reads.size());
    for (size_t i = 0; i < hw_reads.size(); ++i) {
        ASSERT_EQ(hw_reads[i].isDuplicate(), sw_reads[i].isDuplicate())
            << "duplicate flag of read " << i << " ("
            << hw_reads[i].name << "), pairs=" << pairs_
            << " seed=" << seed_;
    }
}

TEST_P(DifferentialGoldenModel, MetadataTagsMatchSoftwareExactly)
{
    auto hw_reads = workload_.reads.reads;
    auto sw_reads = workload_.reads.reads;

    MetadataAccelConfig cfg;
    cfg.numPipelines = pipelinesForSize();
    cfg.psize = 8'192;
    auto result = MetadataAccelerator(cfg).run(hw_reads,
                                               workload_.genome);
    EXPECT_EQ(result.readsTagged, static_cast<int64_t>(hw_reads.size()));

    gatk::setNmMdUqTags(sw_reads, workload_.genome);
    ASSERT_EQ(hw_reads.size(), sw_reads.size());
    for (size_t i = 0; i < hw_reads.size(); ++i) {
        ASSERT_EQ(hw_reads[i].nmTag, sw_reads[i].nmTag)
            << "NM of read " << i << ", pairs=" << pairs_
            << " seed=" << seed_;
        ASSERT_EQ(hw_reads[i].mdTag, sw_reads[i].mdTag)
            << "MD of read " << i;
        ASSERT_EQ(hw_reads[i].uqTag, sw_reads[i].uqTag)
            << "UQ of read " << i;
    }
}

TEST_P(DifferentialGoldenModel, BqsrTableMatchesSoftwareExactly)
{
    BqsrAccelConfig cfg;
    cfg.numPipelines = pipelinesForSize();
    cfg.psize = 8'192;
    auto hw = BqsrAccelerator(cfg).run(workload_.reads.reads,
                                       workload_.genome);

    auto sw = gatk::buildCovariateTable(workload_.reads.reads,
                                        workload_.genome, cfg.bqsr);
    EXPECT_EQ(hw.table.totalObservations(), sw.totalObservations());
    EXPECT_EQ(hw.table.totalErrors(), sw.totalErrors());
    EXPECT_TRUE(hw.table == sw)
        << "covariate tables differ, pairs=" << pairs_
        << " seed=" << seed_;
}

TEST_P(DifferentialGoldenModel, SleepSchedulingIsCycleExact)
{
    // The active-set (sleep/wake) scheduler is a pure host-side
    // optimisation: simulated cycle counts and every merged simulator
    // statistic must be bit-identical with it disabled
    // (GENESIS_SIM_NO_SLEEP=1), with the idle-cycle fast-forward
    // disabled alone (GENESIS_SIM_NO_FASTFORWARD=1), and with both
    // disabled, across the whole size x seed grid.
    auto run_once = [&] {
        auto reads = workload_.reads.reads;
        MarkDupAccelConfig cfg;
        cfg.numPipelines = pipelinesForSize();
        auto r = MarkDupAccelerator(cfg).run(reads);
        return std::make_pair(r.info.totalCycles,
                              r.info.stats.counters());
    };
    auto base = run_once();
    EXPECT_GT(base.first, 0u);
    {
        ::setenv("GENESIS_SIM_NO_SLEEP", "1", 1);
        auto no_sleep = run_once();
        ::unsetenv("GENESIS_SIM_NO_SLEEP");
        EXPECT_EQ(base.first, no_sleep.first)
            << "cycle drift with sleep disabled, pairs=" << pairs_
            << " seed=" << seed_;
        EXPECT_EQ(base.second, no_sleep.second);
    }
    {
        ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
        auto no_ff = run_once();
        ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
        EXPECT_EQ(base.first, no_ff.first)
            << "cycle drift with fast-forward disabled, pairs=" << pairs_
            << " seed=" << seed_;
        EXPECT_EQ(base.second, no_ff.second);
    }
    {
        ::setenv("GENESIS_SIM_NO_SLEEP", "1", 1);
        ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
        auto plain = run_once();
        ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
        ::unsetenv("GENESIS_SIM_NO_SLEEP");
        EXPECT_EQ(base.first, plain.first)
            << "cycle drift vs tick-everything, pairs=" << pairs_
            << " seed=" << seed_;
        EXPECT_EQ(base.second, plain.second);
    }
}

TEST(MetadataPaperPsize, SchedulerHatchesAreCycleExact)
{
    // Metadata Update at the paper's partition size (PSIZE = 1 Mbp, the
    // default): the reference scratchpad is declared far larger than the
    // window this workload writes, so reads above the written words and
    // the idle-cycle fast-forward over long SPM init/drain phases must
    // still agree exactly with sleep and/or fast-forward disabled, and
    // the tags with the software golden model.
    auto workload = test::makeSmallWorkload(17, 300, 40'000 + 80 * 300, 2);
    auto run_once = [&] {
        auto reads = workload.reads.reads;
        MetadataAccelConfig cfg;
        cfg.numPipelines = 3;
        EXPECT_EQ(cfg.psize, 1'000'000);
        auto r = MetadataAccelerator(cfg).run(reads, workload.genome);
        return std::make_tuple(r.info.totalCycles, r.info.stats.counters(),
                               reads);
    };
    auto base = run_once();
    EXPECT_GT(std::get<0>(base), 0u);
    auto sw_reads = workload.reads.reads;
    gatk::setNmMdUqTags(sw_reads, workload.genome);
    const auto &hw_reads = std::get<2>(base);
    ASSERT_EQ(hw_reads.size(), sw_reads.size());
    for (size_t i = 0; i < hw_reads.size(); ++i) {
        ASSERT_EQ(hw_reads[i].nmTag, sw_reads[i].nmTag) << "read " << i;
        ASSERT_EQ(hw_reads[i].mdTag, sw_reads[i].mdTag) << "read " << i;
        ASSERT_EQ(hw_reads[i].uqTag, sw_reads[i].uqTag) << "read " << i;
    }
    auto expect_same = [&](const char *what) {
        auto other = run_once();
        EXPECT_EQ(std::get<0>(base), std::get<0>(other))
            << "cycle drift " << what;
        EXPECT_EQ(std::get<1>(base), std::get<1>(other))
            << "stats drift " << what;
    };
    ::setenv("GENESIS_SIM_NO_SLEEP", "1", 1);
    expect_same("with sleep disabled");
    ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
    expect_same("vs tick-everything");
    ::unsetenv("GENESIS_SIM_NO_SLEEP");
    expect_same("with fast-forward disabled");
    ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
}

INSTANTIATE_TEST_SUITE_P(
    SizeSeedGrid, DifferentialGoldenModel,
    ::testing::Combine(::testing::Values<int64_t>(60, 300, 700),
                       ::testing::Values<uint64_t>(5u, 17u)),
    [](const ::testing::TestParamInfo<DiffParam> &info) {
        return "pairs" + std::to_string(std::get<0>(info.param)) +
            "_seed" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace genesis::core
