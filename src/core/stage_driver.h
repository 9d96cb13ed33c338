/**
 * @file
 * The one host driver behind every Genesis accelerator stage.
 *
 * Each stage runs the same way (paper Sections III-B and III-E, Figure
 * 8): split the reads (and, for reference-joining stages, the
 * reference) into units, upload each unit's columns with configure_mem,
 * run one batch of numPipelines replicated pipelines behind the shared
 * memory arbiters, then flush and decode. A stage describes itself with
 * a StageSpec (the columns it reads, how to wire one pipeline, how to
 * decode one unit's outputs) and runStage() does the rest. See
 * DESIGN.md §4e. Also here: the column images configure_mem
 * uploads (ReadColumns, RefColumns) and the accounting every stage
 * result carries (AccelRunInfo).
 */

#ifndef GENESIS_CORE_STAGE_DRIVER_H
#define GENESIS_CORE_STAGE_DRIVER_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "genome/read.h"
#include "genome/reference.h"
#include "pipeline/builder.h"
#include "runtime/api.h"
#include "table/partition.h"

namespace genesis::core {

/** Column-decomposed image of a set of reads (Table I layout). */
struct ReadColumns {
    size_t numReads = 0;
    std::vector<int64_t> pos;
    std::vector<int64_t> endpos;
    std::vector<int64_t> flags;
    std::vector<int64_t> cigar;
    std::vector<uint32_t> cigarLens;
    std::vector<int64_t> seq;
    std::vector<uint32_t> seqLens;
    std::vector<int64_t> qual;
    std::vector<uint32_t> qualLens;

    /** Build columns for the reads selected by `indices`. */
    static ReadColumns
    fromReads(const std::vector<genome::AlignedRead> &reads,
              const std::vector<size_t> &indices);

    /** Build columns for a contiguous index range [first, last). */
    static ReadColumns
    fromRange(const std::vector<genome::AlignedRead> &reads, size_t first,
              size_t last);

    /** @return row lengths of 1 for a scalar column of n rows. */
    static std::vector<uint32_t> scalarLens(size_t n);
};

/** Reference slice for one partition window. */
struct RefColumns {
    std::vector<int64_t> seq;
    std::vector<int64_t> isSnp;
    int64_t windowStart = 0;

    /** Extract [window_start, window_end + overlap) from a chromosome. */
    static RefColumns fromGenome(const genome::ReferenceGenome &genome,
                                 uint8_t chr, int64_t window_start,
                                 int64_t window_end, int64_t overlap);
};

/** Aggregate accounting shared by all accelerator results. */
struct AccelRunInfo {
    /**
     * Host / communication / accelerator split of the stage runtime
     * (paper Figure 13(b)). "Host" covers the algorithmic software
     * portions of the stage (duplicate resolution, tag attachment,
     * table merging), not data-layout preparation.
     */
    runtime::TimingBreakdown timing;
    /**
     * Row-to-column conversion and partitioning time. The paper performs
     * this pre-partitioning in software ahead of the accelerated stage
     * (Section III-B), outside the reported stage runtime; it is kept
     * separately here for transparency.
     */
    double prepSeconds = 0.0;
    pipeline::HardwareCensus census;
    uint64_t totalCycles = 0; ///< summed across sequential batches
    uint64_t batches = 0;
    StatRegistry stats; ///< merged simulator statistics
};

/** Stopwatch accumulating into a plain double (prep accounting). */
class PrepTimer
{
  public:
    explicit PrepTimer(double &sink)
        : sink_(sink), start_(std::chrono::steady_clock::now())
    {
    }

    ~PrepTimer()
    {
        sink_ += std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_).count();
    }

    PrepTimer(const PrepTimer &) = delete;
    PrepTimer &operator=(const PrepTimer &) = delete;

  private:
    double &sink_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * The input columns a pipeline can read (Table I), one bit each.
 * uploadColumns() uploads them in this declaration order.
 */
enum InputColumn : unsigned {
    kReadsPos = 1u << 0,
    kReadsEndPos = 1u << 1,
    kReadsCigar = 1u << 2,
    kReadsSeq = 1u << 3,
    kReadsQual = 1u << 4,
    kReadsFlags = 1u << 5,
    kRefsSeq = 1u << 6,
    kRefsIsSnp = 1u << 7,
};

/** One pipeline's input buffers (null where not uploaded). */
struct StageInputs {
    const modules::ColumnBuffer *pos = nullptr;
    const modules::ColumnBuffer *endpos = nullptr;
    const modules::ColumnBuffer *cigar = nullptr;
    const modules::ColumnBuffer *seq = nullptr;
    const modules::ColumnBuffer *qual = nullptr;
    const modules::ColumnBuffer *flags = nullptr;
    const modules::ColumnBuffer *refSeq = nullptr;
    const modules::ColumnBuffer *refSnp = nullptr;
    /** First reference position of the unit's window. */
    int64_t windowStart = 0;
    /** Reference SPM size: psize plus the unit's widened overlap. */
    size_t spmWords = 1;
};

/**
 * configure_mem the `columns` of `reads` and `ref` as "<prefix>READS.POS"
 * ... "<prefix>REFS.IS_SNP", in InputColumn order, with element sizes
 * POS 4, ENDPOS 4, CIGAR 2, SEQ 1, QUAL 1, FLAGS 2, REFS.SEQ 1,
 * REFS.IS_SNP 1. The order is the DMA charge order. windowStart is
 * taken from `ref`.
 */
StageInputs uploadColumns(runtime::AcceleratorSession &session,
                          const std::string &prefix, unsigned columns,
                          ReadColumns reads, RefColumns ref = {});

/** What a stage tells the driver about itself. */
struct StageSpec {
    /**
     * Wire one pipeline over `in`. @return its output buffers in flush
     * order. The module order is the tick order, so it is part of the
     * simulated hardware.
     */
    using Build = std::function<std::vector<modules::ColumnBuffer *>(
        pipeline::PipelineBuilder &b, runtime::AcceleratorSession &s,
        const StageInputs &in)>;
    /** Host decode of one unit's flushed outputs (flush order). */
    using Decode = std::function<void(
        const table::ReadPartition &unit,
        const std::vector<const modules::ColumnBuffer *> &outputs)>;

    /** InputColumn bits the pipeline reads. */
    unsigned columns = 0;
    int numPipelines = 1;
    runtime::RuntimeConfig runtime;
    /** Reference window size and nominal overlap past its end. */
    int64_t psize = 0;
    int64_t overlap = 0;
    Build build;
    Decode decode;
};

/**
 * Run `units` through the stage, numPipelines units per batch and one
 * AcceleratorSession per batch. A unit reads the reads at its
 * readIndices and, when the spec reads a REFS column, the window
 * [windowStart, windowEnd + overlap) of its chromosome, with the overlap
 * widened to cover the unit's longest read. Column building and upload
 * accrue to info.prepSeconds, decode to the host bucket; cycles,
 * batches, statistics and timing accumulate into `info`, and the census
 * is that of the first batch.
 */
void runStage(const StageSpec &spec,
              const std::vector<genome::AlignedRead> &reads,
              const genome::ReferenceGenome *genome,
              const std::vector<table::ReadPartition> &units,
              AccelRunInfo &info);

/**
 * @return the census of `num_pipelines` pipelines wired by `build` with
 * `spm_words`-word reference SPMs, without running.
 */
pipeline::HardwareCensus stageCensus(const StageSpec::Build &build,
                                     int num_pipelines,
                                     int64_t spm_words = 1);

} // namespace genesis::core

#endif // GENESIS_CORE_STAGE_DRIVER_H
