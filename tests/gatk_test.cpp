/**
 * @file
 * Tests for the GATK4-like software baselines: Mark Duplicates, Metadata
 * Update (NM/MD/UQ), BQSR covariate construction and quality update, and
 * the seed-and-vote aligner.
 */

#include <gtest/gtest.h>

#include <map>

#include "base/logging.h"
#include "gatk/aligner.h"
#include "gatk/bqsr.h"
#include "gatk/markdup.h"
#include "gatk/metadata.h"
#include "gatk/preprocess.h"
#include "sim_test_utils.h"

namespace genesis::gatk {
namespace {

using genome::AlignedRead;
using genome::Cigar;
using genome::stringToSequence;

// --- Mark Duplicates -------------------------------------------------------

TEST(MarkDuplicates, KeepsHighestQualityFragment)
{
    // Two fragments at the same position; the second has higher quality.
    std::vector<AlignedRead> reads(4);
    for (int i = 0; i < 4; ++i) {
        reads[static_cast<size_t>(i)].chr = 1;
        reads[static_cast<size_t>(i)].cigar = Cigar::parse("4M");
        reads[static_cast<size_t>(i)].seq = stringToSequence("ACGT");
        reads[static_cast<size_t>(i)].flags = genome::kFlagPaired;
    }
    reads[0].name = reads[1].name = "fragA";
    reads[2].name = reads[3].name = "fragB";
    reads[0].pos = reads[2].pos = 100;
    reads[1].pos = reads[3].pos = 300;
    reads[1].flags |= genome::kFlagReverse;
    reads[3].flags |= genome::kFlagReverse;
    reads[0].qual = reads[1].qual = {20, 20, 20, 20};
    reads[2].qual = reads[3].qual = {30, 30, 30, 30};

    auto stats = markDuplicates(reads);
    EXPECT_EQ(stats.duplicateSets, 1);
    EXPECT_EQ(stats.duplicatesMarked, 2);
    for (const auto &read : reads) {
        if (read.name == "fragA")
            EXPECT_TRUE(read.isDuplicate());
        else
            EXPECT_FALSE(read.isDuplicate());
    }
}

TEST(MarkDuplicates, UnclippedKeyTreatsClippingAsEqual)
{
    // Same fragment aligned once with and once without a leading clip:
    // the unclipped 5' key must coincide, so they form a duplicate set.
    std::vector<AlignedRead> reads(2);
    reads[0].name = "orig";
    reads[0].chr = 1;
    reads[0].pos = 100;
    reads[0].cigar = Cigar::parse("8M");
    reads[0].seq = stringToSequence("ACGTACGT");
    reads[0].qual = {30, 30, 30, 30, 30, 30, 30, 30};
    reads[1] = reads[0];
    reads[1].name = "clipped";
    reads[1].pos = 103;
    reads[1].cigar = Cigar::parse("3S5M");
    reads[1].qual = {10, 10, 10, 10, 10, 10, 10, 10};

    auto stats = markDuplicates(reads);
    EXPECT_EQ(stats.duplicateSets, 1);
    EXPECT_EQ(stats.duplicatesMarked, 1);
}

TEST(MarkDuplicates, DifferentPositionsNotDuplicates)
{
    std::vector<AlignedRead> reads(2);
    for (auto &r : reads) {
        r.chr = 1;
        r.cigar = Cigar::parse("4M");
        r.seq = stringToSequence("ACGT");
        r.qual = {30, 30, 30, 30};
    }
    reads[0].name = "a";
    reads[0].pos = 100;
    reads[1].name = "b";
    reads[1].pos = 104;
    auto stats = markDuplicates(reads);
    EXPECT_EQ(stats.duplicatesMarked, 0);
}

TEST(MarkDuplicates, SortsOutput)
{
    auto w = test::makeSmallWorkload(31, 150);
    // Shuffle by reversing.
    std::reverse(w.reads.reads.begin(), w.reads.reads.end());
    markDuplicates(w.reads.reads);
    for (size_t i = 1; i < w.reads.reads.size(); ++i) {
        bool ordered = w.reads.reads[i - 1].chr < w.reads.reads[i].chr ||
            (w.reads.reads[i - 1].chr == w.reads.reads[i].chr &&
             w.reads.reads[i - 1].pos <= w.reads.reads[i].pos);
        EXPECT_TRUE(ordered);
    }
}

TEST(MarkDuplicates, FindsMostTrueDuplicates)
{
    auto w = test::makeSmallWorkload(37, 800, 60'000, 1);
    auto stats = markDuplicates(w.reads.reads);
    // Every true duplicate pair contributes 2 marked reads; collisions
    // between unrelated fragments can add a few more.
    EXPECT_GE(stats.duplicatesMarked, w.reads.trueDuplicatePairs * 2);
    EXPECT_LE(stats.duplicatesMarked,
              w.reads.trueDuplicatePairs * 2 +
                  static_cast<int64_t>(w.reads.reads.size()) / 20);
}

TEST(MarkDuplicates, QualSumsMismatchFatal)
{
    setQuiet(true);
    std::vector<AlignedRead> reads(1);
    std::vector<int64_t> sums;
    EXPECT_THROW(markDuplicatesWithQualSums(reads, sums), PanicError);
    setQuiet(false);
}

// --- Metadata Update ---------------------------------------------------------

class MetadataFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        genome::Chromosome chrom;
        chrom.id = 1;
        chrom.name = "chr1";
        //                 0123456789012
        chrom.seq = stringToSequence("ACGTAACCAGTAC");
        chrom.isSnp.assign(chrom.seq.size(), false);
        genome_.addChromosome(std::move(chrom));
    }

    genome::ReferenceGenome genome_;
};

TEST_F(MetadataFixture, PerfectMatch)
{
    AlignedRead read;
    read.chr = 1;
    read.pos = 2;
    read.cigar = Cigar::parse("5M");
    read.seq = stringToSequence("GTAAC");
    read.qual = {30, 30, 30, 30, 30};
    auto meta = computeMetadata(read, genome_);
    EXPECT_EQ(meta.nm, 0);
    EXPECT_EQ(meta.md, "5");
    EXPECT_EQ(meta.uq, 0);
}

TEST_F(MetadataFixture, MismatchesCountAndSumQuality)
{
    AlignedRead read;
    read.chr = 1;
    read.pos = 0;
    read.cigar = Cigar::parse("4M");
    read.seq = stringToSequence("AGCT"); // mismatches at 1, 2
    read.qual = {10, 11, 12, 13};
    auto meta = computeMetadata(read, genome_);
    EXPECT_EQ(meta.nm, 2);
    EXPECT_EQ(meta.md, "1C0G1"); // adjacent mismatches: 0 between
    EXPECT_EQ(meta.uq, 11 + 12);
}

TEST_F(MetadataFixture, InsertionCountsForNmNotMd)
{
    AlignedRead read;
    read.chr = 1;
    read.pos = 0;
    read.cigar = Cigar::parse("2M2I2M");
    read.seq = stringToSequence("ACTTGT");
    read.qual = {30, 30, 5, 5, 30, 30};
    auto meta = computeMetadata(read, genome_);
    EXPECT_EQ(meta.nm, 2);    // the two inserted bases
    EXPECT_EQ(meta.md, "4");  // MD silent about insertions
    EXPECT_EQ(meta.uq, 0);    // insertions do not contribute to UQ
}

TEST_F(MetadataFixture, DeletionCountsAndMdCaret)
{
    AlignedRead read;
    read.chr = 1;
    read.pos = 0;
    read.cigar = Cigar::parse("2M2D3M");
    read.seq = stringToSequence("ACAAC");
    read.qual = {30, 30, 30, 30, 30};
    auto meta = computeMetadata(read, genome_);
    EXPECT_EQ(meta.nm, 2);
    EXPECT_EQ(meta.md, "2^GT3");
    EXPECT_EQ(meta.uq, 0);
}

TEST_F(MetadataFixture, SoftClipsIgnored)
{
    AlignedRead read;
    read.chr = 1;
    read.pos = 2;
    read.cigar = Cigar::parse("2S3M1S");
    read.seq = stringToSequence("TTGTAC");
    read.qual = {40, 40, 30, 30, 30, 40};
    auto meta = computeMetadata(read, genome_);
    EXPECT_EQ(meta.nm, 0);
    EXPECT_EQ(meta.md, "3");
}

TEST_F(MetadataFixture, SetTagsOnAllReads)
{
    std::vector<AlignedRead> reads(1);
    reads[0].chr = 1;
    reads[0].pos = 0;
    reads[0].cigar = Cigar::parse("3M");
    reads[0].seq = stringToSequence("ACG");
    reads[0].qual = {30, 30, 30};
    setNmMdUqTags(reads, genome_);
    EXPECT_EQ(reads[0].nmTag, 0);
    EXPECT_EQ(reads[0].mdTag, "3");
    EXPECT_EQ(reads[0].uqTag, 0);
}

// --- BQSR --------------------------------------------------------------------

TEST(Bqsr, CountsTotalsAndErrorsByBin)
{
    genome::Chromosome chrom;
    chrom.id = 1;
    chrom.name = "chr1";
    chrom.seq = stringToSequence("AAAAAAAAAA");
    chrom.isSnp.assign(10, false);
    chrom.isSnp[4] = true; // known site
    genome::ReferenceGenome genome;
    genome.addChromosome(std::move(chrom));

    AlignedRead read;
    read.chr = 1;
    read.pos = 0;
    read.readGroup = 0;
    read.cigar = Cigar::parse("6M");
    read.seq = stringToSequence("ACAAGA");
    // errors at offsets 1 (C) and 4 (G); offset 4 is a SNP site.
    read.qual = {30, 30, 30, 30, 30, 30};

    BqsrConfig cfg;
    cfg.numReadGroups = 1;
    auto table = buildCovariateTable({read}, genome, cfg);

    // 5 bases counted (SNP site excluded); 1 error.
    EXPECT_EQ(table.totalObservations(), 5);
    EXPECT_EQ(table.totalErrors(), 1);

    // Error base: q=30, cycle 1 -> bin 30*302+1.
    EXPECT_EQ(table.cycleErrors[0][30 * 302 + 1], 1);
    EXPECT_EQ(table.cycleTotals[0][30 * 302 + 1], 1);
    // Context covariate: first base has none -> only 4 context totals.
    int64_t ctx_total = 0;
    for (int64_t v : table.contextTotals[0])
        ctx_total += v;
    EXPECT_EQ(ctx_total, 4);
}

TEST(Bqsr, ReverseReadsUseSecondCycleBank)
{
    genome::Chromosome chrom;
    chrom.id = 1;
    chrom.name = "chr1";
    chrom.seq = stringToSequence("AAAA");
    chrom.isSnp.assign(4, false);
    genome::ReferenceGenome genome;
    genome.addChromosome(std::move(chrom));

    AlignedRead read;
    read.chr = 1;
    read.pos = 0;
    read.readGroup = 0;
    read.flags = genome::kFlagReverse;
    read.cigar = Cigar::parse("2M");
    read.seq = stringToSequence("AA");
    read.qual = {25, 25};

    BqsrConfig cfg;
    cfg.numReadGroups = 1;
    auto table = buildCovariateTable({read}, genome, cfg);
    EXPECT_EQ(table.cycleTotals[0][25 * 302 + 151 + 0], 1);
    EXPECT_EQ(table.cycleTotals[0][25 * 302 + 151 + 1], 1);
}

TEST(Bqsr, MergeAddsTables)
{
    BqsrConfig cfg;
    cfg.numReadGroups = 1;
    CovariateTable a(cfg), b(cfg);
    a.cycleTotals[0][5] = 2;
    b.cycleTotals[0][5] = 3;
    b.contextErrors[0][1] = 7;
    a.merge(b);
    EXPECT_EQ(a.cycleTotals[0][5], 5);
    EXPECT_EQ(a.contextErrors[0][1], 7);
}

TEST(Bqsr, EmpiricalQualitySmoothing)
{
    // 0 errors in 0 observations -> p = 1/2 -> ~3.
    EXPECT_NEAR(empiricalQuality(0, 0), 3.01, 0.01);
    // 1 error in 999998 -> about Q57.
    EXPECT_GT(empiricalQuality(1, 999'998), 50.0);
    // Errors everywhere -> near 0.
    EXPECT_LT(empiricalQuality(99, 100), 0.1);
}

TEST(Bqsr, QualityUpdateMovesTowardEmpiricalRates)
{
    // A workload with strong read-group bias: after recalibration, the
    // mean quality of the noisiest read group must drop below the mean
    // of the cleanest one.
    auto w = test::makeSmallWorkload(41, 1500, 60'000, 1);
    auto table = buildCovariateTable(w.reads.reads, w.genome);
    int64_t changed = applyQualityUpdate(w.reads.reads, table);
    EXPECT_GT(changed, 0);

    double sum[4] = {0, 0, 0, 0};
    double n[4] = {0, 0, 0, 0};
    for (const auto &read : w.reads.reads) {
        for (uint8_t q : read.qual) {
            sum[read.readGroup] += q;
            n[read.readGroup] += 1;
        }
    }
    EXPECT_LT(sum[3] / n[3], sum[0] / n[0]);
}

TEST(Bqsr, ReadGroupOutOfRangeFatal)
{
    auto w = test::makeSmallWorkload(43, 5);
    BqsrConfig cfg;
    cfg.numReadGroups = 1; // workload uses 4
    EXPECT_THROW(buildCovariateTable(w.reads.reads, w.genome, cfg),
                 FatalError);
}

// --- Aligner ------------------------------------------------------------------

TEST(Aligner, RecoversSimulatedPositions)
{
    auto w = test::makeSmallWorkload(51, 150, 40'000, 1);
    ReadAligner aligner(w.genome);
    int64_t correct = 0, mapped = 0, total = 0;
    for (const auto &read : w.reads.reads) {
        ++total;
        auto result = aligner.align(read.seq);
        if (!result.mapped)
            continue;
        ++mapped;
        // The aligner maps the raw sequence; with soft clips the
        // reported position may differ by the clip length.
        int64_t expected = read.unclippedFivePrime();
        if (read.isReverse())
            expected = read.pos - read.cigar.leadingSoftClip();
        if (result.chr == read.chr &&
            std::llabs(result.pos - expected) <= 16) {
            ++correct;
        }
    }
    // The stand-in aligner verifies ungapped, so reads containing
    // indels (a deliberate ~10-15% of the workload) may stay unmapped.
    EXPECT_GT(mapped * 100, total * 85);   // > 85% mapped
    EXPECT_GT(correct * 100, mapped * 90); // > 90% correctly placed
}

TEST(Aligner, RejectsGarbage)
{
    auto w = test::makeSmallWorkload(53, 5, 30'000, 1);
    ReadAligner aligner(w.genome);
    Rng rng(99);
    genome::Sequence junk;
    for (int i = 0; i < 151; ++i)
        junk.push_back(static_cast<uint8_t>(rng.below(4)));
    // A random 151-mer should either not map or map with many
    // mismatches; exact placement would be suspicious.
    auto result = aligner.align(junk);
    if (result.mapped) {
        EXPECT_GT(result.mismatches, 0);
    }
}

TEST(Aligner, BadSeedLengthFatal)
{
    auto w = test::makeSmallWorkload(55, 1);
    AlignerConfig cfg;
    cfg.seedLength = 40;
    EXPECT_THROW(ReadAligner(w.genome, cfg), FatalError);
}

// --- Preprocess driver ----------------------------------------------------------

TEST(Preprocess, RunsAllStagesAndReportsTimes)
{
    auto w = test::makeSmallWorkload(61, 400, 50'000, 1);
    PreprocessOptions options;
    options.runAligner = true;
    auto result = runPreprocess(w.reads.reads, w.genome, options);
    EXPECT_GT(result.times.alignment, 0.0);
    EXPECT_GT(result.times.duplicateMarking, 0.0);
    EXPECT_GT(result.times.metadataUpdate, 0.0);
    EXPECT_GT(result.times.bqsrTableConstruction, 0.0);
    EXPECT_GT(result.mappedFraction, 0.85);
    EXPECT_GT(result.covariates.totalObservations(), 0);
    // Tags attached to every read.
    for (const auto &read : w.reads.reads)
        EXPECT_GE(read.nmTag, 0);
}

TEST(Preprocess, AcceleratedAlignmentShrinksItsShare)
{
    auto w = test::makeSmallWorkload(63, 200, 40'000, 1);
    auto reads_copy = w.reads.reads;

    PreprocessOptions sw;
    sw.runAligner = true;
    auto sw_result = runPreprocess(w.reads.reads, w.genome, sw);

    PreprocessOptions hw;
    hw.alignmentAcceleratorReadsPerSec = 4.058e6; // GenAx throughput
    auto hw_result = runPreprocess(reads_copy, w.genome, hw);

    double sw_share = sw_result.times.alignment /
        sw_result.times.total();
    double hw_share = hw_result.times.alignment /
        hw_result.times.total();
    EXPECT_LT(hw_share, sw_share);
    EXPECT_LT(hw_share, 0.05);
}

} // namespace
} // namespace genesis::gatk
