#include "core/stage_driver.h"

#include <algorithm>
#include <numeric>

#include "base/logging.h"

namespace genesis::core {

using modules::ColumnBuffer;
using pipeline::PipelineBuilder;

std::vector<uint32_t>
ReadColumns::scalarLens(size_t n)
{
    return std::vector<uint32_t>(n, 1);
}

ReadColumns
ReadColumns::fromReads(const std::vector<genome::AlignedRead> &reads,
                       const std::vector<size_t> &indices)
{
    ReadColumns cols;
    cols.numReads = indices.size();
    cols.pos.reserve(indices.size());
    cols.endpos.reserve(indices.size());
    cols.flags.reserve(indices.size());
    for (size_t idx : indices) {
        GENESIS_ASSERT(idx < reads.size(), "read index %zu out of range",
                       idx);
        const auto &read = reads[idx];
        cols.pos.push_back(read.pos);
        cols.endpos.push_back(read.endPos());
        cols.flags.push_back(read.flags);
        auto packed = read.cigar.packAll();
        for (uint16_t raw : packed)
            cols.cigar.push_back(raw);
        cols.cigarLens.push_back(static_cast<uint32_t>(packed.size()));
        for (uint8_t b : read.seq)
            cols.seq.push_back(b);
        cols.seqLens.push_back(static_cast<uint32_t>(read.seq.size()));
        for (uint8_t q : read.qual)
            cols.qual.push_back(q);
        cols.qualLens.push_back(static_cast<uint32_t>(read.qual.size()));
    }
    return cols;
}

ReadColumns
ReadColumns::fromRange(const std::vector<genome::AlignedRead> &reads,
                       size_t first, size_t last)
{
    GENESIS_ASSERT(first <= last && last <= reads.size(),
                   "bad read range [%zu, %zu)", first, last);
    std::vector<size_t> indices(last - first);
    std::iota(indices.begin(), indices.end(), first);
    return fromReads(reads, indices);
}

RefColumns
RefColumns::fromGenome(const genome::ReferenceGenome &genome, uint8_t chr,
                       int64_t window_start, int64_t window_end,
                       int64_t overlap)
{
    const genome::Chromosome &chrom = genome.chromosome(chr);
    RefColumns cols;
    cols.windowStart = window_start;
    int64_t end = std::min<int64_t>(window_end + overlap, chrom.length());
    cols.seq.reserve(static_cast<size_t>(end - window_start));
    cols.isSnp.reserve(static_cast<size_t>(end - window_start));
    for (int64_t p = window_start; p < end; ++p) {
        cols.seq.push_back(chrom.seq[static_cast<size_t>(p)]);
        cols.isSnp.push_back(chrom.isSnp[static_cast<size_t>(p)] ? 1 : 0);
    }
    return cols;
}

StageInputs
uploadColumns(runtime::AcceleratorSession &session,
              const std::string &prefix, unsigned columns,
              ReadColumns reads, RefColumns ref)
{
    // Null row lengths mean a scalar column (one element per row).
    auto upload = [&](unsigned column, const char *name,
                      std::vector<int64_t> &elements,
                      std::vector<uint32_t> *row_lengths,
                      uint32_t elem_size) -> const ColumnBuffer * {
        if (!(columns & column))
            return nullptr;
        std::vector<uint32_t> lens = row_lengths
            ? std::move(*row_lengths)
            : ReadColumns::scalarLens(elements.size());
        return session.configureMem(prefix + name, std::move(elements),
                                    std::move(lens), elem_size);
    };
    StageInputs in;
    in.pos = upload(kReadsPos, "READS.POS", reads.pos, nullptr, 4);
    in.endpos =
        upload(kReadsEndPos, "READS.ENDPOS", reads.endpos, nullptr, 4);
    in.cigar = upload(kReadsCigar, "READS.CIGAR", reads.cigar,
                      &reads.cigarLens, 2);
    in.seq = upload(kReadsSeq, "READS.SEQ", reads.seq, &reads.seqLens, 1);
    in.qual =
        upload(kReadsQual, "READS.QUAL", reads.qual, &reads.qualLens, 1);
    in.flags = upload(kReadsFlags, "READS.FLAGS", reads.flags, nullptr, 2);
    in.refSeq = upload(kRefsSeq, "REFS.SEQ", ref.seq, nullptr, 1);
    in.refSnp = upload(kRefsIsSnp, "REFS.IS_SNP", ref.isSnp, nullptr, 1);
    in.windowStart = ref.windowStart;
    return in;
}

void
runStage(const StageSpec &spec,
         const std::vector<genome::AlignedRead> &reads,
         const genome::ReferenceGenome *genome,
         const std::vector<table::ReadPartition> &units, AccelRunInfo &info)
{
    if (spec.numPipelines < 1)
        fatal("need at least one pipeline");
    const bool reads_ref = spec.columns & (kRefsSeq | kRefsIsSnp);
    GENESIS_ASSERT(genome || !reads_ref,
                   "a stage reading REFS columns needs a genome");
    const size_t per_batch = static_cast<size_t>(spec.numPipelines);
    for (size_t base = 0; base < units.size(); base += per_batch) {
        runtime::AcceleratorSession session(spec.runtime);
        const size_t batch = std::min(per_batch, units.size() - base);
        std::vector<std::vector<ColumnBuffer *>> outputs(batch);
        {
            PrepTimer timer(info.prepSeconds);
            for (size_t p = 0; p < batch; ++p) {
                const table::ReadPartition &unit = units[base + p];
                ReadColumns cols =
                    ReadColumns::fromReads(reads, unit.readIndices);
                RefColumns ref;
                int64_t overlap = spec.overlap;
                if (reads_ref) {
                    // Deletions can stretch a read's reference span past
                    // the nominal overlap; size the window to cover the
                    // longest read in this unit.
                    for (size_t idx : unit.readIndices) {
                        overlap = std::max(
                            overlap, reads[idx].endPos() - unit.windowEnd);
                    }
                    ref = RefColumns::fromGenome(*genome, unit.chr,
                                                 unit.windowStart,
                                                 unit.windowEnd, overlap);
                }
                PipelineBuilder builder(session.sim(), static_cast<int>(p));
                StageInputs in =
                    uploadColumns(session, builder.scopedName(""),
                                  spec.columns, std::move(cols),
                                  std::move(ref));
                in.spmWords = static_cast<size_t>(spec.psize + overlap);
                outputs[p] = spec.build(builder, session, in);
                if (info.batches == 0)
                    info.census.merge(builder.census());
            }
        }

        session.start();
        session.wait();
        info.totalCycles += session.sim().cycle();
        ++info.batches;
        info.stats.merge(session.sim().collectStats());

        for (size_t p = 0; p < batch; ++p) {
            std::vector<const ColumnBuffer *> flushed;
            for (const ColumnBuffer *out : outputs[p])
                flushed.push_back(session.flush(out->name));
            runtime::HostTimer timer(session);
            spec.decode(units[base + p], flushed);
        }
        info.timing += session.timing();
    }
}

pipeline::HardwareCensus
stageCensus(const StageSpec::Build &build, int num_pipelines,
            int64_t spm_words)
{
    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    ColumnBuffer dummy;
    StageInputs in;
    in.pos = in.endpos = in.cigar = in.seq = in.qual = in.flags = &dummy;
    in.refSeq = in.refSnp = &dummy;
    in.spmWords = static_cast<size_t>(spm_words);
    pipeline::HardwareCensus census;
    for (int p = 0; p < num_pipelines; ++p) {
        PipelineBuilder builder(session.sim(), p);
        build(builder, session, in);
        census.merge(builder.census());
    }
    return census;
}

} // namespace genesis::core
