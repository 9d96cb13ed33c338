/**
 * @file
 * Tests for the automated logical-plan -> hardware-pipeline mapper: the
 * Figure-4 script fuses into one plan, lowers onto hardware modules, and
 * the resulting simulated pipeline reproduces the SQL engine's answer.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "core/stage_driver.h"
#include "core/example_accel.h"
#include "pipeline/mapper.h"
#include "sim_test_utils.h"
#include "sql/parser.h"
#include "table/partition.h"

namespace genesis::pipeline {
namespace {

TEST(Fusion, Figure4ScriptFusesToSinglePlan)
{
    sql::Script script = sql::parseScript(core::matchCountQueryText());
    sql::PlanPtr plan = fuseScriptToPlan(script);
    std::string text = plan->str();
    // The fused tree: Aggregate over Project over Join of ReadExplode
    // with the LIMIT-windowed reference.
    EXPECT_NE(text.find("Aggregate"), std::string::npos);
    EXPECT_NE(text.find("ReadExplode"), std::string::npos);
    EXPECT_NE(text.find("InnerJoin"), std::string::npos);
    EXPECT_NE(text.find("Scan(RelevantReference"), std::string::npos);
    // Temp-table scans were inlined away.
    EXPECT_EQ(text.find("Scan(AlignedRead"), std::string::npos);
    EXPECT_EQ(text.find("Scan(ReadAndRef"), std::string::npos);
}

TEST(Fusion, ScriptWithoutLoopFatal)
{
    EXPECT_THROW(fuseScriptToPlan(sql::parseScript("SELECT a FROM t")),
                 FatalError);
}

TEST(Fusion, LoopWithoutInsertFatal)
{
    EXPECT_THROW(
        fuseScriptToPlan(sql::parseScript(
            "FOR r IN t: SET @x = 1; END LOOP")),
        FatalError);
}

class MappedPipeline : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MappedPipeline, ReproducesSqlEngineAnswer)
{
    auto w = test::makeSmallWorkload(GetParam(), 120, 20'000, 1);
    constexpr int64_t kPsize = 20'000;
    table::Partitioner partitioner(kPsize);
    auto partitions = partitioner.partitionReads(w.reads.reads);
    ASSERT_EQ(partitions.size(), 1u);
    const auto &part = partitions[0];

    // Software answer via the SQL engine.
    auto expected = core::matchCountsSqlEngine(
        w.reads.reads, part, w.genome, kPsize, 512);

    // Hardware answer via the automatically mapped pipeline.
    sql::Script script = sql::parseScript(core::matchCountQueryText());
    sql::PlanPtr plan = fuseScriptToPlan(script);

    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    PipelineBuilder builder(session.sim(), 0);

    int64_t overlap = 512;
    core::StageInputs in = core::uploadColumns(
        session, "", core::kReadsPos | core::kReadsEndPos |
            core::kReadsCigar | core::kReadsSeq | core::kRefsSeq,
        core::ReadColumns::fromReads(w.reads.reads, part.readIndices),
        core::RefColumns::fromGenome(w.genome, part.chr, part.windowStart,
                                     part.windowEnd, overlap));

    QueryBinding binding;
    binding.pos = in.pos;
    binding.endpos = in.endpos;
    binding.cigar = in.cigar;
    binding.seq = in.seq;
    binding.refSeq = in.refSeq;
    binding.windowStart = in.windowStart;
    binding.spmWords = static_cast<size_t>(kPsize + overlap);

    MappedQuery mapped =
        mapPlanToPipeline(builder, session, *plan, binding);
    EXPECT_NE(mapped.trace.find("ReadToBases"), std::string::npos);
    EXPECT_NE(mapped.trace.find("Joiner"), std::string::npos);
    EXPECT_NE(mapped.trace.find("Reducer"), std::string::npos);

    session.start();
    session.wait();
    const auto *out = session.flush(mapped.output->name);
    ASSERT_EQ(out->elements.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(out->elements[i], expected[i]) << "read " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappedPipeline,
                         ::testing::Values(2u, 13u));

TEST(Mapper, RejectsUnsupportedShapes)
{
    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    PipelineBuilder builder(session.sim(), 0);
    QueryBinding binding;

    // A bare scan has no streaming lowering.
    sql::Script scan_script =
        sql::parseScript("FOR r IN t: INSERT INTO o SELECT COUNT(*) "
                         "FROM plain; END LOOP");
    auto plan = fuseScriptToPlan(scan_script);
    EXPECT_THROW(mapPlanToPipeline(builder, session, *plan, binding),
                 FatalError);
}

} // namespace
} // namespace genesis::pipeline
