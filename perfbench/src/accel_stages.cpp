/**
 * @file
 * accel_stages: the paper's path from reads to flushed results, one
 * caller in a closed loop. Each op is one sample: fresh reads over a
 * shared reference go through the Mark Duplicates, Metadata Update and
 * BQSR accelerators at their default configurations, then the Figure-4
 * match-count query runs from SQL text through the mapper onto a
 * simulated pipeline. Stage outputs are checked against the GATK-style
 * software goldens, the query's output against matchCountsSoftware.
 */

#include "core/bqsr_accel.h"
#include "core/example_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "gatk/bqsr.h"
#include "gatk/markdup.h"
#include "gatk/metadata.h"
#include "genome/read_simulator.h"
#include "harness.h"
#include "pipeline/mapper.h"
#include "sql/parser.h"
#include "table/partition.h"

using namespace genesis;

namespace perfbench {

namespace {

/** Read pairs per sample. */
constexpr int64_t kPairs = 24;
/** Reference window of the match-count query (one SPM partition). */
constexpr int64_t kQueryPsize = 32'768;
constexpr int64_t kQueryOverlap = 512;
/** Read-simulator seed of the warm-up sample, whatever the run's seed. */
constexpr uint64_t kWarmUpSeed = 1;

struct Sample {
    std::vector<genome::AlignedRead> reads;
    int64_t bases = 0;
};

struct StageOutput {
    std::vector<genome::AlignedRead> reads;
    gatk::MarkDuplicatesStats dupStats;
    gatk::CovariateTable table;
    std::vector<size_t> queryIndices;
    std::vector<int64_t> queryCounts;
};

class AccelStages
{
  public:
    AccelStages(uint64_t seed, Report &report) : seed_(seed)
    {
        const auto synth_start = Clock::now();
        genome::SyntheticGenomeConfig gcfg;
        gcfg.numChromosomes = 2;
        gcfg.firstChromosomeLength = 24'000;
        gcfg.lengthDecay = 0.6;
        gcfg.minChromosomeLength = 16'000;
        gcfg.seed = deriveSeed(seed, 1, 0);
        genome_ = genome::ReferenceGenome::synthesize(gcfg);
        // The warm-up sample keeps a fixed read-simulator seed: a
        // sample's cost varies by 10-20% with its seed, and set-up time
        // should vary only with the code.
        Sample warm = makeSample(kWarmUpSeed);
        report.setupValues["genome.synth_s"].push_back(
            secondsSince(synth_start));

        Tracer off;
        OpRecord ignored;
        StageOutput out = run(warm, off, ignored);
        std::string why;
        const auto golden_start = Clock::now();
        const bool ok = check(warm, out, why);
        report.setupValues["gatk.golden_s"].push_back(
            secondsSince(golden_start));
        if (!ok)
            throw std::runtime_error("warm-up op failed: " + why);
        report.unit = "read_bases";
    }

    Sample
    prepare(uint64_t op) const
    {
        return makeSample(deriveSeed(seed_, 3, op));
    }

    StageOutput
    run(Sample &sample, Tracer &tracer, OpRecord &rec)
    {
        StageOutput out;
        out.reads = sample.reads;
        uint64_t cycles = 0;
        double model = 0.0, prep = 0.0, host = 0.0, batches = 0.0;
        auto account = [&](const core::AccelRunInfo &info) {
            cycles += info.totalCycles;
            model += info.timing.accelSeconds + info.timing.dmaSeconds;
            prep += info.prepSeconds;
            host += info.timing.hostSeconds;
            batches += static_cast<double>(info.batches);
        };

        auto md = tracer.span("core.markdup.run", [&] {
            return core::MarkDupAccelerator().run(out.reads);
        });
        account(md.info);
        out.dupStats = md.stats;
        auto mu = tracer.span("core.metadata.run", [&] {
            return core::MetadataAccelerator().run(out.reads, genome_);
        });
        account(mu.info);
        auto bq = tracer.span("core.bqsr.run", [&] {
            return core::BqsrAccelerator().run(out.reads, genome_);
        });
        account(bq.info);
        out.table = std::move(bq.table);
        rec.set("core.prep_ms", prep * 1e3);
        rec.set("core.host_ms", host * 1e3);
        rec.set("core.batches", batches);

        const QueryRun query = runQuery(out, tracer);
        rec.set("runtime.dma_model_s", query.timing.dmaSeconds);
        rec.set("runtime.accel_model_s", query.timing.accelSeconds);
        rec.set("runtime.sim_cycles", static_cast<double>(query.cycles));
        cycles += query.cycles;
        model += query.timing.accelSeconds + query.timing.dmaSeconds;
        rec.set("sim.cycles", static_cast<double>(cycles));
        rec.set("model_s", model);
        rec.units = static_cast<double>(sample.bases);
        return out;
    }

    bool
    check(const Sample &sample, const StageOutput &out, std::string &why)
    {
        std::vector<genome::AlignedRead> golden = sample.reads;
        const auto dup = gatk::markDuplicates(golden);
        gatk::setNmMdUqTags(golden, genome_);
        const gatk::CovariateTable table =
            gatk::buildCovariateTable(golden, genome_);

        if (out.reads.size() != golden.size()) {
            why = "read count changed";
            return false;
        }
        for (size_t i = 0; i < golden.size(); ++i) {
            const auto &a = out.reads[i];
            const auto &b = golden[i];
            if (a.name != b.name || a.isDuplicate() != b.isDuplicate() ||
                a.nmTag != b.nmTag || a.mdTag != b.mdTag ||
                a.uqTag != b.uqTag) {
                why = "read " + b.name + " differs from the GATK golden";
                return false;
            }
        }
        if (out.dupStats.duplicatesMarked != dup.duplicatesMarked) {
            why = "duplicate count differs from the GATK golden";
            return false;
        }
        if (!(out.table == table)) {
            why = "covariate table differs from the GATK golden";
            return false;
        }
        if (out.queryCounts !=
            core::matchCountsSoftware(out.reads, out.queryIndices,
                                      genome_)) {
            why = "match counts differ from matchCountsSoftware";
            return false;
        }
        if (out.queryIndices.empty()) {
            why = "match-count partition is empty";
            return false;
        }
        return true;
    }

  private:
    Sample
    makeSample(uint64_t seed) const
    {
        genome::ReadSimulatorConfig rcfg;
        rcfg.numPairs = kPairs;
        rcfg.seed = seed;
        Sample sample;
        sample.reads =
            genome::ReadSimulator(genome_, rcfg).simulate().reads;
        for (const auto &read : sample.reads)
            sample.bases += static_cast<int64_t>(read.seq.size());
        return sample;
    }

    struct QueryRun {
        runtime::TimingBreakdown timing;
        uint64_t cycles = 0;
    };

    /** The Figure-4 query from SQL text on the first read partition. */
    QueryRun
    runQuery(StageOutput &out, Tracer &tracer)
    {
        const auto &reads = out.reads;
        table::Partitioner partitioner(kQueryPsize);
        const auto partitions = partitioner.partitionReads(reads);
        const table::ReadPartition &part = partitions.front();
        out.queryIndices = part.readIndices;

        sql::Script script = tracer.span("sql.parse", [&] {
            return sql::parseScript(core::matchCountQueryText());
        });
        sql::PlanPtr fused = tracer.span("pipeline.map", [&] {
            return pipeline::fuseScriptToPlan(script);
        });

        runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
        pipeline::QueryBinding binding;
        tracer.span("runtime.configure_mem", [&] {
            core::ReadColumns cols =
                core::ReadColumns::fromReads(reads, part.readIndices);
            core::RefColumns ref = core::RefColumns::fromGenome(
                genome_, part.chr, part.windowStart, part.windowEnd,
                kQueryOverlap);
            const auto scalar = core::ReadColumns::scalarLens(cols.numReads);
            binding.pos = session.configureMem(
                "READS.POS", std::move(cols.pos), scalar, 4);
            binding.endpos = session.configureMem(
                "READS.ENDPOS", std::move(cols.endpos), scalar, 4);
            binding.cigar = session.configureMem(
                "READS.CIGAR", std::move(cols.cigar),
                std::move(cols.cigarLens), 2);
            binding.seq = session.configureMem(
                "READS.SEQ", std::move(cols.seq), std::move(cols.seqLens),
                1);
            const size_t ref_len = ref.seq.size();
            binding.refSeq = session.configureMem(
                "REFS.SEQ", std::move(ref.seq),
                core::ReadColumns::scalarLens(ref_len), 1);
        });
        binding.windowStart = part.windowStart;
        binding.spmWords = static_cast<size_t>(kQueryPsize + kQueryOverlap);

        pipeline::PipelineBuilder builder(session.sim(), 0);
        auto mapped = tracer.span("pipeline.map", [&] {
            return pipeline::mapPlanToPipeline(builder, session, *fused,
                                               binding);
        });
        tracer.span("runtime.sim", [&] {
            session.start();
            session.wait();
        });
        const auto *result = tracer.span("runtime.flush", [&] {
            return session.flush(mapped.output->name);
        });
        out.queryCounts = result->elements;

        return {session.timing(), session.sim().cycle()};
    }

    uint64_t seed_;
    genome::ReferenceGenome genome_;
};

} // namespace

void
runAccelStages(const Options &options, Report &report, Tracer &tracer)
{
    runClosedLoop<AccelStages>(options, report, tracer);
}

} // namespace perfbench
