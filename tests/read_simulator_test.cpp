/**
 * @file
 * Property tests for the synthetic read simulator: structural invariants
 * every generated workload must satisfy, across seeds.
 */

#include <gtest/gtest.h>

#include <map>

#include "base/logging.h"
#include "genome/read_simulator.h"
#include "sim_test_utils.h"

namespace genesis::genome {
namespace {

class ReadSimulatorProperty : public ::testing::TestWithParam<uint64_t>
{
  protected:
    void
    SetUp() override
    {
        workload_ = test::makeSmallWorkload(GetParam(), 300, 50'000, 2);
    }

    test::SmallWorkload workload_;
};

TEST_P(ReadSimulatorProperty, SeqLengthMatchesCigar)
{
    for (const auto &read : workload_.reads.reads) {
        EXPECT_EQ(read.seq.size(), read.cigar.readLength());
        EXPECT_EQ(read.qual.size(), read.seq.size());
    }
}

TEST_P(ReadSimulatorProperty, CoordinateSorted)
{
    const auto &reads = workload_.reads.reads;
    for (size_t i = 1; i < reads.size(); ++i) {
        bool ordered = reads[i - 1].chr < reads[i].chr ||
            (reads[i - 1].chr == reads[i].chr &&
             reads[i - 1].pos <= reads[i].pos);
        EXPECT_TRUE(ordered) << "reads " << i - 1 << " and " << i;
    }
}

TEST_P(ReadSimulatorProperty, AlignmentsStayInsideChromosome)
{
    for (const auto &read : workload_.reads.reads) {
        const auto &chrom = workload_.genome.chromosome(read.chr);
        EXPECT_GE(read.pos, 0);
        EXPECT_LE(read.endPos(), chrom.length());
    }
}

TEST_P(ReadSimulatorProperty, DuplicatesShareUnclippedFivePrime)
{
    // Every generated duplicate ("<name>_dupN") must share its source
    // fragment's unclipped 5' key — the invariant Mark Duplicates uses.
    std::map<std::string, uint64_t> originals;
    for (const auto &read : workload_.reads.reads) {
        if (read.name.find("_dup") == std::string::npos) {
            originals[read.name +
                      (read.isFirstOfPair() ? "/1" : "/2")] =
                read.duplicateKey();
        }
    }
    int checked = 0;
    for (const auto &read : workload_.reads.reads) {
        auto dup_at = read.name.find("_dup");
        if (dup_at == std::string::npos)
            continue;
        std::string base = read.name.substr(0, dup_at) +
            (read.isFirstOfPair() ? "/1" : "/2");
        auto it = originals.find(base);
        ASSERT_NE(it, originals.end());
        EXPECT_EQ(read.duplicateKey(), it->second);
        ++checked;
    }
    if (workload_.reads.trueDuplicatePairs > 0) {
        EXPECT_GT(checked, 0);
    }
}

TEST_P(ReadSimulatorProperty, PairsShareNameAndChromosome)
{
    std::map<std::string, std::vector<const AlignedRead *>> by_name;
    for (const auto &read : workload_.reads.reads)
        by_name[read.name].push_back(&read);
    for (const auto &[name, group] : by_name) {
        ASSERT_EQ(group.size(), 2u) << name;
        EXPECT_EQ(group[0]->chr, group[1]->chr);
        EXPECT_NE(group[0]->isFirstOfPair(), group[1]->isFirstOfPair());
    }
}

TEST_P(ReadSimulatorProperty, VariantsAreConsistentAcrossReads)
{
    // Sample variants come from one per-sample map, so two overlapping
    // reads must agree at variant loci where neither had an error.
    // Statistically verify: positions where >= 3 reads agree on a
    // non-reference base should be genuine variants.
    ReadSimulatorConfig cfg;
    cfg.numPairs = 300;
    cfg.seed = GetParam() * 31 + 1;
    ReadSimulator sim(workload_.genome, cfg);

    const auto &reads = workload_.reads.reads;
    std::map<std::pair<uint8_t, int64_t>, std::map<int, int>> pileup;
    for (const auto &read : reads) {
        for (const auto &b :
             explodeRead(read.pos, read.cigar, read.seq, read.qual)) {
            if (b.isInsertion() || b.isDeletion())
                continue;
            uint8_t ref = workload_.genome.baseAt(read.chr, b.refPos);
            if (b.readBase != ref)
                pileup[{read.chr, b.refPos}][b.readBase] += 1;
        }
    }
    int strong_sites = 0, variant_sites = 0;
    for (const auto &[locus, alts] : pileup) {
        for (const auto &[alt, count] : alts) {
            if (count >= 3) {
                ++strong_sites;
                if (sim.variantAt(locus.first, locus.second) == alt)
                    ++variant_sites;
            }
        }
    }
    if (strong_sites > 5) {
        // Sequencing errors rarely recur 3x at one locus.
        EXPECT_GT(variant_sites * 10, strong_sites * 8);
    }
}

TEST_P(ReadSimulatorProperty, Deterministic)
{
    auto again = test::makeSmallWorkload(GetParam(), 300, 50'000, 2);
    ASSERT_EQ(again.reads.reads.size(), workload_.reads.reads.size());
    for (size_t i = 0; i < again.reads.reads.size(); ++i) {
        EXPECT_EQ(again.reads.reads[i].name,
                  workload_.reads.reads[i].name);
        EXPECT_EQ(again.reads.reads[i].seq,
                  workload_.reads.reads[i].seq);
        EXPECT_EQ(again.reads.reads[i].qual,
                  workload_.reads.reads[i].qual);
    }
}

TEST_P(ReadSimulatorProperty, ReadGroupsInRange)
{
    for (const auto &read : workload_.reads.reads)
        EXPECT_LT(read.readGroup, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadSimulatorProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u));

TEST(ReadSimulator, RejectsBadConfig)
{
    test::SmallWorkload w = test::makeSmallWorkload(1, 1);
    ReadSimulatorConfig cfg;
    cfg.readLength = 4;
    EXPECT_THROW(ReadSimulator(w.genome, cfg), FatalError);
    cfg = ReadSimulatorConfig{};
    cfg.meanFragmentLength = 100;
    EXPECT_THROW(ReadSimulator(w.genome, cfg), FatalError);
}

TEST(ReadSimulator, ErrorsAndVariantsInjected)
{
    auto w = test::makeSmallWorkload(5, 500, 50'000, 1);
    EXPECT_GT(w.reads.injectedErrors, 0);
    EXPECT_GT(w.reads.variantBases, 0);
}

TEST(ReadSimulator, ReadGroupBiasIncreasesErrors)
{
    // Read group 3 has a 1 + 3*0.5 = 2.5x error multiplier over group 0;
    // measured mismatch rates must reflect that ordering.
    auto w = test::makeSmallWorkload(11, 2000, 80'000, 1);
    double mismatches[4] = {0, 0, 0, 0};
    double bases[4] = {0, 0, 0, 0};
    for (const auto &read : w.reads.reads) {
        for (const auto &b :
             explodeRead(read.pos, read.cigar, read.seq, read.qual)) {
            if (b.isInsertion() || b.isDeletion())
                continue;
            bases[read.readGroup] += 1;
            if (b.readBase != w.genome.baseAt(read.chr, b.refPos))
                mismatches[read.readGroup] += 1;
        }
    }
    double rate0 = mismatches[0] / bases[0];
    double rate3 = mismatches[3] / bases[3];
    EXPECT_GT(rate3, rate0);
}

} // namespace
} // namespace genesis::genome
