#include "core/markdup_accel.h"

#include <algorithm>
#include <numeric>

#include "base/logging.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/reducer.h"

namespace genesis::core {

using modules::ColumnBuffer;
using pipeline::PipelineBuilder;

namespace {

/** Wire one Figure-10 pipeline; returns the output (sums) buffer. */
std::vector<ColumnBuffer *>
buildPipeline(PipelineBuilder &builder, runtime::AcceleratorSession &s,
              const StageInputs &in)
{
    auto *qual_q = builder.queue("qual");
    auto *sum_q = builder.queue("sum");
    ColumnBuffer *out = s.configureOutput(
        builder.scopedName("QSUM"), 4);

    modules::MemoryReaderConfig reader_cfg;
    reader_cfg.emitBoundaries = true;
    builder.add<modules::MemoryReader>(
        "MemoryReader", "rd_qual", in.qual, builder.port(), qual_q,
        reader_cfg);

    modules::ReducerConfig red_cfg;
    red_cfg.op = modules::ReduceOp::Sum;
    red_cfg.granularity = modules::ReduceGranularity::PerItem;
    red_cfg.valueField = 0;
    builder.add<modules::Reducer>("ReducerWide", "sum", qual_q, sum_q,
                                  red_cfg);

    modules::MemoryWriterConfig writer_cfg;
    writer_cfg.fieldIndex = 0;
    writer_cfg.elemSizeBytes = 4;
    builder.add<modules::MemoryWriter>("MemoryWriter", "wr_sum", out,
                                       builder.port(), sum_q, writer_cfg);
    return {out};
}

} // namespace

MarkDupAccelerator::MarkDupAccelerator(const MarkDupAccelConfig &config)
    : config_(config)
{
    if (config_.numPipelines < 1)
        fatal("need at least one pipeline");
}

pipeline::HardwareCensus
MarkDupAccelerator::census(int num_pipelines)
{
    return stageCensus(buildPipeline, num_pipelines);
}

MarkDupAccelResult
MarkDupAccelerator::run(std::vector<genome::AlignedRead> &reads)
{
    MarkDupAccelResult result;

    // Host: split the read set into one contiguous chunk per pipeline.
    size_t n = reads.size();
    size_t per = (n + static_cast<size_t>(config_.numPipelines) - 1) /
        static_cast<size_t>(config_.numPipelines);
    std::vector<table::ReadPartition> chunks;
    {
        PrepTimer timer(result.info.prepSeconds);
        for (size_t first = 0; first < n; first += per) {
            table::ReadPartition &chunk = chunks.emplace_back();
            chunk.readIndices.resize(std::min(n, first + per) - first);
            std::iota(chunk.readIndices.begin(), chunk.readIndices.end(),
                      first);
        }
    }

    // Hardware quality sums, DMAed back into one pre-sort-order vector.
    result.qualSums.assign(n, 0);
    auto decode = [&](const table::ReadPartition &chunk,
                      const auto &outputs) {
        const std::vector<int64_t> &sums = outputs[0]->elements;
        std::copy(sums.begin(), sums.end(),
                  result.qualSums.begin() +
                      static_cast<std::ptrdiff_t>(chunk.readIndices[0]));
    };
    runStage({kReadsQual, config_.numPipelines, config_.runtime, 0, 0,
              buildPipeline, decode},
             reads, nullptr, chunks, result.info);

    // Host: duplicate resolution + coordinate sort with hardware sums.
    {
        PrepTimer timer(result.info.timing.hostSeconds);
        result.stats =
            gatk::markDuplicatesWithQualSums(reads, result.qualSums);
    }
    return result;
}

} // namespace genesis::core
