/**
 * @file
 * Sweep execution: one sequential simulation per distinct configuration
 * that reaches the simulator, simulations farmed across host cores by a
 * one-shot pool of worker threads, and each simulation's points priced
 * from its charge record at their own clock and PCIe generation and
 * joined with the cost and resource models. See dse.h for the
 * determinism contract.
 */

#include "dse/dse.h"

#include <algorithm>
#include <atomic>
#include <compare>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "base/env.h"
#include "base/logging.h"
#include "core/bqsr_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "cost/cost.h"
#include "genome/read_simulator.h"
#include "pipeline/resource_model.h"

namespace genesis::dse {

namespace {

/** The genome size $/genome is scaled to (700 M x 151 bp reads). */
constexpr double kGenomeBases = 700e6 * 151.0;

/** Deterministic synthetic workload shared by (or per) sweep points. */
struct Workload {
    genome::ReferenceGenome genome;
    std::vector<genome::AlignedRead> reads;
    int64_t totalBases = 0;
};

Workload
makeWorkload(uint64_t seed, int64_t num_pairs)
{
    Workload w;
    genome::SyntheticGenomeConfig gcfg;
    gcfg.numChromosomes = 2;
    gcfg.firstChromosomeLength = 200'000;
    gcfg.lengthDecay = 0.6;
    gcfg.minChromosomeLength = 80'000;
    gcfg.seed = seed;
    w.genome = genome::ReferenceGenome::synthesize(gcfg);

    genome::ReadSimulatorConfig rcfg;
    rcfg.numPairs = num_pairs;
    rcfg.seed = seed * 17 + 3;
    w.reads = genome::ReadSimulator(w.genome, rcfg).simulate().reads;
    for (const auto &read : w.reads)
        w.totalBases += static_cast<int64_t>(read.seq.size());
    return w;
}

/** Resolve a preset name: custom presets shadow the built-ins. */
const MemPreset *
findPreset(const SweepSpec &spec, const std::string &name)
{
    for (const auto &preset : spec.customPresets) {
        if (preset.name == name)
            return &preset;
    }
    for (const auto &preset : builtinMemPresets()) {
        if (preset.name == name)
            return &preset;
    }
    return nullptr;
}

std::string
joinErrors(const std::vector<std::string> &errors)
{
    std::string joined;
    for (const auto &e : errors)
        joined += (joined.empty() ? "" : "; ") + e;
    return joined;
}

/** What reaches the simulator: points with equal keys share one run.
 *  Clock and PCIe generation are absent because they only price the
 *  run's charge record. */
struct SimKey {
    Accel accel = Accel::MarkDup;
    int numPipelines = 0;
    /** 0 for markdup, whose SPM-less pipeline ignores psize. */
    int64_t psize = 0;
    std::string memPreset;
    /** 0 unless perPointWorkloads. */
    uint64_t seed = 0;

    auto operator<=>(const SimKey &) const = default;
};

/** A valid point waiting for its key's simulation. */
struct PendingPoint {
    PointResult *result = nullptr;
    const MemPreset *preset = nullptr;
    runtime::RuntimeConfig runtime;
};

/** One distinct simulation and every point that shares it (in index
 *  order; the first point's config is the one simulated, and only its
 *  memory reaches the simulator). */
struct Simulation {
    SimKey key;
    std::vector<PendingPoint> points;
};

/** Run `body`, turning a model rejection or failure into `error`.
 *  @return true when `body` completed. */
template <typename Body>
bool
captureError(std::string &error, Body &&body)
{
    try {
        body();
        return true;
    } catch (const FatalError &e) {
        error = e.what();
    } catch (const PanicError &e) {
        error = std::string("internal: ") + e.what();
    }
    return false;
}

/** Validate one point and resolve its runtime configuration. Never
 *  throws: a rejection is recorded as `r.error`.
 *  @return the point's preset, or null when the point is invalid. */
const MemPreset *
configurePoint(PointResult &r, const SweepSpec &spec,
               runtime::RuntimeConfig &rt)
{
    const SweepPoint &pt = r.point;
    const MemPreset *preset = findPreset(spec, pt.memPreset);
    if (!preset) {
        r.error = strfmt("memPreset: unknown preset '%s'",
                         pt.memPreset.c_str());
        return nullptr;
    }
    bool valid = captureError(r.error, [&] {
        rt.clockHz = pt.clockMHz * 1e6;
        rt.dma = runtime::DmaConfig::fromName(pt.dmaPreset);
        rt.memory = preset->memory;

        std::vector<std::string> errors = runtime::validate(rt);
        if (pt.numPipelines < 1) {
            errors.push_back(strfmt("numPipelines: must be >= 1 "
                                    "(got %d)", pt.numPipelines));
        }
        if (pt.psize < 1) {
            errors.push_back(strfmt("psize: must be >= 1 (got %lld)",
                                    static_cast<long long>(pt.psize)));
        }
        r.error = joinErrors(errors);
    });
    return valid && r.error.empty() ? preset : nullptr;
}

/** Price one valid point from its key's simulation. */
void
derivePoint(PointResult &r, const MemPreset &preset,
            const runtime::RuntimeConfig &rt,
            const core::AccelRunInfo &info,
            const pipeline::ResourceUsage &usage)
{
    // Modeled hardware time only: simulated accelerator seconds plus
    // the DMA transfer model, scaled by the preset's resident fraction.
    // Host wall-clock buckets are excluded so the frontier is
    // deterministic.
    runtime::ModeledSeconds modeled = runtime::modeledSeconds(
        info.timing.charges, rt.clockHz, rt.dma);
    r.cycles = info.totalCycles;
    r.accelSeconds = modeled.accelSeconds;
    r.dmaSeconds = modeled.dmaSeconds * preset.dmaTrafficFraction;
    double hw_seconds = r.accelSeconds + r.dmaSeconds;
    if (!(hw_seconds > 0)) {
        r.error = "model: zero modeled hardware time";
        return;
    }
    r.basesPerSecond = static_cast<double>(r.totalBases) / hw_seconds;

    r.dollarsPerHour = cost::boardDollarsPerHour(
        preset.memory.numChannels, rt.dma.name == "pcie4",
        preset.nearBank);
    double genome_seconds =
        hw_seconds * kGenomeBases / static_cast<double>(r.totalBases);
    r.dollarsPerGenome = genome_seconds / 3600.0 * r.dollarsPerHour;

    r.luts = usage.luts;
    r.registers = usage.registers;
    r.bramMiB = usage.bramMiB;
    r.lutPct = usage.lutUtilization();
    r.regPct = usage.registerUtilization();
    r.bramPct = usage.bramUtilization();
    r.maxUtilPct = std::max({r.lutPct, r.regPct, r.bramPct});
    r.fits = r.maxUtilPct <= 100.0;
    r.ok = true;
}

/**
 * Run one distinct simulation, then price each of its points at the
 * point's own clock and DmaConfig. A model rejection or failure of the
 * run becomes every point's error; nothing of the run outlives this
 * call, so the worker's heap is released before it claims the next.
 */
void
simulate(Simulation &s, const SweepSpec &spec, const Workload *shared)
{
    const runtime::RuntimeConfig &rt = s.points.front().runtime;
    int64_t total_bases = 0;
    core::AccelRunInfo info;
    pipeline::ResourceUsage usage;
    std::string error;
    bool ok = captureError(error, [&] {
        Workload local;
        if (!shared)
            local = makeWorkload(s.key.seed, spec.numPairs);
        const Workload &w = shared ? *shared : local;
        total_bases = w.totalBases;

        switch (s.key.accel) {
          case Accel::MarkDup: {
            auto reads = w.reads;
            core::MarkDupAccelConfig cfg;
            cfg.numPipelines = s.key.numPipelines;
            cfg.runtime = rt;
            info = std::move(
                core::MarkDupAccelerator(cfg).run(reads).info);
            break;
          }
          case Accel::Metadata: {
            auto reads = w.reads;
            core::MetadataAccelConfig cfg;
            cfg.numPipelines = s.key.numPipelines;
            cfg.runtime = rt;
            cfg.psize = s.key.psize;
            info = std::move(
                core::MetadataAccelerator(cfg).run(reads, w.genome)
                    .info);
            break;
          }
          case Accel::Bqsr: {
            core::BqsrAccelConfig cfg;
            cfg.numPipelines = s.key.numPipelines;
            cfg.runtime = rt;
            cfg.psize = s.key.psize;
            info = std::move(
                core::BqsrAccelerator(cfg).run(w.reads, w.genome).info);
            break;
          }
        }
        usage = pipeline::estimateResources(info.census);
    });

    for (PendingPoint &p : s.points) {
        PointResult &r = *p.result;
        r.totalBases = total_bases;
        if (ok)
            derivePoint(r, *p.preset, p.runtime, info, usage);
        else
            r.error = error;
    }

    // The first point's config is the one simulated, so its price must
    // be the run's own ledger; every other point differs from it only in
    // the (clockHz, DmaConfig) handed to the same pricing code.
    const PendingPoint &first = s.points.front();
    GENESIS_ASSERT(!first.result->ok ||
                       (first.result->accelSeconds ==
                            info.timing.accelSeconds &&
                        first.result->dmaSeconds ==
                            info.timing.dmaSeconds *
                                first.preset->dmaTrafficFraction),
                   "repricing does not reproduce the run's modeled "
                   "seconds");
}

} // namespace

SweepResult
runSweep(const SweepSpec &spec, const HarnessOptions &options)
{
    std::vector<std::string> spec_errors = spec.validate();
    if (!spec_errors.empty())
        fatal("invalid SweepSpec: %s", joinErrors(spec_errors).c_str());

    SweepResult result;
    result.spec = spec;
    std::vector<SweepPoint> points = enumeratePoints(spec);
    result.points.resize(points.size());

    // Validate every point and group the valid ones by key, in index
    // order, so a key's simulation runs its first point's config.
    std::vector<Simulation> sims;
    std::map<SimKey, size_t> sim_of_key;
    for (size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &pt = points[i];
        PointResult &r = result.points[i];
        r.point = pt;
        runtime::RuntimeConfig rt;
        const MemPreset *preset = configurePoint(r, spec, rt);
        if (!preset)
            continue;
        SimKey key{pt.accel, pt.numPipelines,
                   pt.accel == Accel::MarkDup ? 0 : pt.psize,
                   pt.memPreset, spec.perPointWorkloads ? pt.seed : 0};
        auto [it, inserted] = sim_of_key.try_emplace(key, sims.size());
        if (inserted)
            sims.push_back(Simulation{key, {}});
        sims[it->second].points.push_back(
            PendingPoint{&r, preset, std::move(rt)});
    }
    result.simulations = sims.size();

    Workload shared;
    if (!spec.perPointWorkloads)
        shared = makeWorkload(spec.seed, spec.numPairs);
    const Workload *shared_ptr =
        spec.perPointWorkloads ? nullptr : &shared;

    int workers = static_cast<int>(envInt64(
        "GENESIS_DSE_WORKERS", options.workers, 0, 1024));
    if (workers <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        workers = static_cast<int>(hw ? hw : 1);
    }
    workers = std::max(1, std::min(workers, static_cast<int>(sims.size())));

    // Farm the simulations: each worker, the caller included, claims
    // the next index until none are left and prices that simulation's
    // points. Results land at their point's index, so farming order
    // never shows in the output. A throwing simulation does not stop
    // the others; the first exception is rethrown once every worker has
    // joined.
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto work = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= sims.size())
                return;
            try {
                simulate(sims[i], spec, shared_ptr);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    {
        // jthread joins on destruction, so the helpers are joined on
        // every path out of this scope.
        std::vector<std::jthread> helpers;
        for (int w = 1; w < workers; ++w)
            helpers.emplace_back(work);
        work();
    }
    if (first_error)
        std::rethrow_exception(first_error);

    // Per-accelerator Pareto frontiers over the feasible points.
    for (Accel accel : spec.accels) {
        std::string name = accelName(accel);
        if (result.frontiers.count(name))
            continue; // duplicate axis entry
        std::vector<size_t> eligible;
        for (size_t i = 0; i < result.points.size(); ++i) {
            const PointResult &p = result.points[i];
            if (p.point.accel == accel && p.ok && p.fits)
                eligible.push_back(i);
        }
        result.frontiers[name] =
            paretoFrontier(result.points, eligible);
    }
    return result;
}

} // namespace genesis::dse
