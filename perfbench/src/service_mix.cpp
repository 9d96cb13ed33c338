/**
 * @file
 * service_mix: an open loop of Poisson arrivals at one fixed offered
 * rate against the multi-tenant AcceleratorService. Four weighted
 * tenants submit small per-read quality-sum jobs (the Mark Duplicates
 * hardware portion) over pre-split chunks of a read set. Chunk
 * popularity is Zipf-skewed and the chunks' total footprint exceeds the
 * board's column-cache capacity, so the LRU both hits and evicts.
 *
 * The fleet is one board with three slots: three busy simulation
 * threads plus this generator stay within four cores. Each job's
 * latency runs from when it was due, so a stalled generator or a
 * backlog shows in it; loadgen.late_ms records how late the generator
 * submitted. Every output is checked against gatk::computeQualSums.
 */

#include <cmath>
#include <future>
#include <thread>

#include "base/rng.h"
#include "gatk/markdup.h"
#include "genome/read_simulator.h"
#include "harness.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/reducer.h"
#include "service/service.h"

using namespace genesis;

namespace perfbench {

namespace {

/**
 * Offered load in jobs per second: a constant, about 40% of the ~600
 * jobs/s this fleet completes when saturated on a 4-vCPU host. It is
 * never calibrated per run, so two commits see the same load. Lower
 * rates let vCPUs idle between jobs and made wake-up latency, and
 * higher ones made backlogs, dominate the tail.
 */
constexpr double kOfferedJobsPerSecond = 250.0;
constexpr int kChunks = 128;
constexpr int kReadsPerChunk = 256;
constexpr double kZipfExponent = 1.0;
/** Cache capacity as a share of the chunks' total footprint. */
constexpr double kCacheShare = 0.4;

const char *const kTenants[] = {"tenantA", "tenantB", "tenantC",
                                "tenantD"};
const double kWeights[] = {1.0, 1.0, 2.0, 4.0};

struct Chunk {
    std::string key;
    std::vector<int64_t> qual;
    std::vector<uint32_t> qualLens;
    std::vector<int64_t> golden;
};

service::JobBuild
qualSumJob(const Chunk &chunk)
{
    return [&chunk](service::JobContext &ctx) {
        auto *in = ctx.input(chunk.key, chunk.qual, chunk.qualLens, 1);
        auto *out = ctx.output("QSUM", 4);
        auto &sim = ctx.sim();
        auto *qual_q = sim.makeQueue("qual");
        auto *sum_q = sim.makeQueue("sum");
        modules::MemoryReaderConfig reader_cfg;
        reader_cfg.emitBoundaries = true;
        sim.make<modules::MemoryReader>("rd", in, sim.memory().makePort(0),
                                        qual_q, reader_cfg);
        modules::ReducerConfig red_cfg;
        red_cfg.op = modules::ReduceOp::Sum;
        red_cfg.granularity = modules::ReduceGranularity::PerItem;
        red_cfg.valueField = 0;
        sim.make<modules::Reducer>("sum", qual_q, sum_q, red_cfg);
        modules::MemoryWriterConfig writer_cfg;
        writer_cfg.fieldIndex = 0;
        writer_cfg.elemSizeBytes = 4;
        sim.make<modules::MemoryWriter>("wr", out, sim.memory().makePort(0),
                                        sum_q, writer_cfg);
    };
}

/** Read set, chunk goldens, popularity and the running service. */
class ServiceMix
{
  public:
    ServiceMix(uint64_t seed, Report &report) : seed_(seed)
    {
        const auto synth_start = Clock::now();
        genome::SyntheticGenomeConfig gcfg;
        gcfg.numChromosomes = 1;
        gcfg.firstChromosomeLength = 60'000;
        gcfg.seed = deriveSeed(seed, 1, 0);
        auto genome = genome::ReferenceGenome::synthesize(gcfg);
        genome::ReadSimulatorConfig rcfg;
        rcfg.numPairs = kChunks * kReadsPerChunk / 2;
        rcfg.seed = deriveSeed(seed, 2, 0);
        auto reads = genome::ReadSimulator(genome, rcfg).simulate().reads;
        report.setupValues["genome.synth_s"].push_back(
            secondsSince(synth_start));

        const auto golden_start = Clock::now();
        uint64_t footprint = 0;
        chunks_.resize(kChunks);
        for (int c = 0; c < kChunks; ++c) {
            Chunk &chunk = chunks_[static_cast<size_t>(c)];
            chunk.key = "reads.QUAL.chunk" + std::to_string(c);
            const auto first = reads.begin() + c * kReadsPerChunk;
            std::vector<genome::AlignedRead> part(first,
                                                  first + kReadsPerChunk);
            for (const auto &read : part) {
                chunk.qual.insert(chunk.qual.end(), read.qual.begin(),
                                  read.qual.end());
                chunk.qualLens.push_back(
                    static_cast<uint32_t>(read.qual.size()));
            }
            chunk.golden = gatk::computeQualSums(part);
            footprint += chunk.qual.size();
        }
        report.setupValues["gatk.golden_s"].push_back(
            secondsSince(golden_start));

        // Zipf popularity over a seeded ranking of the chunks.
        Rng rng(deriveSeed(seed, 3, 0));
        std::vector<size_t> rank(chunks_.size());
        for (size_t i = 0; i < rank.size(); ++i)
            rank[i] = i;
        for (size_t i = rank.size(); i > 1; --i)
            std::swap(rank[i - 1], rank[rng.below(i)]);
        double total = 0.0;
        cdf_.resize(chunks_.size());
        for (size_t r = 0; r < rank.size(); ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1),
                                    kZipfExponent);
            cdf_[r] = total;
        }
        for (double &p : cdf_)
            p /= total;
        rank_ = std::move(rank);

        service::ServiceConfig cfg;
        cfg.numBoards = 1;
        cfg.slotsPerBoard = 3;
        cfg.cacheCapacityBytes =
            static_cast<uint64_t>(kCacheShare * static_cast<double>(footprint));
        config_ = cfg;
        service_ = std::make_unique<service::AcceleratorService>(cfg);
        for (size_t t = 0; t < std::size(kTenants); ++t)
            service_->setTenantWeight(kTenants[t], kWeights[t]);

        // Warm-up: every chunk once, least popular first, so the cache
        // starts in the state a long-running service would have, with
        // the popular chunks resident.
        constexpr size_t kWave = 32; // well under the queue capacity
        for (size_t r = rank_.size(); r > 0;) {
            std::vector<std::pair<size_t, service::Admission>> wave;
            for (; r > 0 && wave.size() < kWave; --r) {
                const size_t c = rank_[r - 1];
                service::JobRequest req;
                req.build = qualSumJob(chunks_[c]);
                wave.emplace_back(c, service_->submit(std::move(req)));
            }
            for (const auto &[c, admission] : wave) {
                if (!admission.accepted ||
                    !matches(admission.result.get(), chunks_[c]))
                    throw std::runtime_error("warm-up job failed on " +
                                             chunks_[c].key);
            }
        }
        report.unit = "jobs";
        report.openLoop = true;
    }

    /** The open loop; fills report.ops with one record per job. */
    void
    run(const Options &options, Report &report, Tracer &tracer)
    {
        struct Sent {
            size_t chunk = 0;
            Clock::time_point due, submitted, admitted;
            service::Admission admission;
        };
        std::vector<Sent> sent;
        Rng rng(deriveSeed(seed_, 4, 0));

        const auto start = Clock::now();
        const double cpu_start = processCpuSeconds();
        double due = 0.0;
        for (;;) {
            due += -std::log(1.0 - rng.uniform()) / kOfferedJobsPerSecond;
            if (due >= options.seconds && sent.size() >= minOps(options))
                break;
            Sent job;
            job.chunk = pickChunk(rng);
            const char *tenant = kTenants[rng.below(std::size(kTenants))];
            job.due = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(due));
            std::this_thread::sleep_until(job.due);
            service::JobRequest req;
            req.tenant = tenant;
            req.costHint = static_cast<double>(chunks_[job.chunk].qual.size());
            req.build = qualSumJob(chunks_[job.chunk]);
            job.submitted = Clock::now();
            job.admission = service_->submit(std::move(req));
            job.admitted = Clock::now();
            sent.push_back(std::move(job));
        }
        service_->drain();
        report.windowSeconds = secondsSince(start);
        report.windowCpuSeconds = processCpuSeconds() - cpu_start;

        for (size_t j = 0; j < sent.size(); ++j) {
            const Sent &job = sent[j];
            OpRecord rec;
            rec.op = j;
            rec.traced = options.trace && j % 2 == 0;
            rec.set("service.submit_us",
                    secondsBetween(job.submitted, job.admitted) * 1e6);
            rec.set("loadgen.late_ms",
                    secondsBetween(job.due, job.submitted) * 1e3);
            if (!job.admission.accepted) {
                rec.set("service.rejected", 1.0);
                report.noteFailure("job " + std::to_string(j) +
                                   " rejected: " + job.admission.reason);
                report.ops.push_back(std::move(rec));
                continue;
            }
            const service::JobResult result = job.admission.result.get();
            const auto queued = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(result.queueSeconds));
            const auto served = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(result.serviceSeconds));
            const auto done = job.admitted + queued + served;
            rec.latency = secondsBetween(job.due, done);
            rec.set("service.queue_ms", result.queueSeconds * 1e3);
            rec.set("service.run_ms", result.serviceSeconds * 1e3);
            rec.set("runtime.cache_hits",
                    static_cast<double>(result.cacheHits));
            rec.set("runtime.cache_misses",
                    static_cast<double>(result.cacheMisses));
            rec.ok = matches(result, chunks_[job.chunk]);
            if (rec.ok) {
                rec.units = 1.0;
            } else {
                rec.set("service.failed", 1.0);
                report.noteFailure("job " + std::to_string(j) + ": " +
                                   (result.ok ? "output differs from "
                                                "computeQualSums"
                                              : result.error));
            }
            // Spans of the job's path, from the generator's clock and
            // the queue/service times the service returned.
            tracer.beginOp(j, rec.traced);
            const int root = tracer.add("bench.op", job.due, done, -1);
            tracer.add("loadgen.late", job.due, job.submitted, root);
            tracer.add("service.submit", job.submitted, job.admitted, root);
            tracer.add("service.queue", job.admitted, job.admitted + queued,
                       root);
            tracer.add("service.run", job.admitted + queued, done, root);
            tracer.endOp();
            report.ops.push_back(std::move(rec));
        }

        report.runValues["runtime.cache_evictions"] =
            static_cast<double>(service_->cacheStats().evictions);

        std::vector<size_t> first;
        for (size_t j = 0; j < kDeterministicOps; ++j)
            first.push_back(sent[j].chunk);
        probe(first, report);
    }

  private:
    /**
     * Determinism probe, after the measured window: the first chunks
     * the open loop drew, run one job at a time on a fresh one-slot
     * service. A job's cycle count depends on where its column lands in
     * device memory, and the shared service places columns in whatever
     * order its slots happen to run. Run serially from an empty board,
     * placement and cache hits, and so cycles and modeled accelerator
     * and DMA seconds, depend only on the seed.
     */
    void
    probe(const std::vector<size_t> &chunks, Report &report) const
    {
        service::ServiceConfig cfg = config_;
        cfg.slotsPerBoard = 1;
        service::AcceleratorService fresh(cfg);
        double cycles = 0.0, accel = 0.0, dma = 0.0;
        for (size_t c : chunks) {
            service::JobRequest req;
            req.build = qualSumJob(chunks_[c]);
            service::Admission admission = fresh.submit(std::move(req));
            if (!admission.accepted ||
                !matches(admission.result.get(), chunks_[c]))
                throw std::runtime_error("probe job failed on " +
                                         chunks_[c].key);
            const service::JobResult &result = admission.result.get();
            cycles += static_cast<double>(result.cycles);
            accel += result.timing.accelSeconds;
            dma += result.timing.dmaSeconds;
        }
        const double n = static_cast<double>(chunks.size());
        report.runValues["sim.cycles"] = cycles / n;
        report.runValues["runtime.accel_model_s"] = accel / n;
        report.runValues["runtime.dma_model_s"] = dma / n;
        report.runValues["model_s"] = (accel + dma) / n;
    }

    size_t
    pickChunk(Rng &rng) const
    {
        const double u = rng.uniform();
        size_t r = 0;
        while (r + 1 < cdf_.size() && cdf_[r] < u)
            ++r;
        return rank_[r];
    }

    static bool
    matches(const service::JobResult &result, const Chunk &chunk)
    {
        return result.ok && result.outputs.size() == 1 &&
            result.outputs[0].elements == chunk.golden;
    }

    uint64_t seed_;
    std::vector<Chunk> chunks_;
    std::vector<size_t> rank_;
    std::vector<double> cdf_;
    service::ServiceConfig config_;
    std::unique_ptr<service::AcceleratorService> service_;
};

} // namespace

void
runServiceMix(const Options &options, Report &report, Tracer &tracer)
{
    setUp<ServiceMix>(options, report)->run(options, report, tracer);
}

} // namespace perfbench
