/**
 * @file
 * dse_sweep: dse::runSweep over a grid reduced from the default one,
 * one caller in a closed loop. The grid keeps the clock and PCIe axes,
 * which are post-simulation arithmetic, so several points share one
 * distinct simulation. Each op is one sweep with its own seed, so no
 * cache across sweeps can serve a repeat. Every point must be ok and
 * checkFrontier must report nothing.
 */

#include <set>
#include <tuple>

#include "dse/dse.h"
#include "harness.h"

using namespace genesis;

namespace perfbench {

namespace {

class DseSweep
{
  public:
    DseSweep(uint64_t seed, Report &report) : seed_(seed)
    {
        report.unit = "design_points";
        spec_.accels = {dse::Accel::MarkDup, dse::Accel::Metadata};
        spec_.pipelines = {16};
        spec_.psizes = {32'768};
        spec_.memPresets = {"f1-ddr4", "hbm"};
        spec_.dmaPresets = {"pcie3", "pcie4"};
        spec_.clocksMHz = {250.0, 400.0};
        spec_.numPairs = 16;

        // The warm-up sweep keeps the spec's fixed seed: sweep cost
        // varies with the workload seed by about a third, and set-up
        // time should not.
        Tracer off;
        OpRecord ignored;
        dse::SweepSpec warm = spec_;
        auto out = run(warm, off, ignored);
        std::string why;
        if (!check(warm, out, why))
            throw std::runtime_error("warm-up sweep failed: " + why);
    }

    dse::SweepSpec
    prepare(uint64_t op) const
    {
        dse::SweepSpec spec = spec_;
        spec.seed = deriveSeed(seed_, 1, op);
        return spec;
    }

    struct Output {
        dse::SweepResult result;
        std::string json;
        std::vector<std::string> problems;
    };

    Output
    run(dse::SweepSpec &spec, Tracer &tracer, OpRecord &rec)
    {
        Output out;
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        out.result = tracer.span("dse.sweep",
                                 [&] { return dse::runSweep(spec); });
        rec.set("dse.sweep_s", secondsSince(t0));
        rec.set("dse.cpu_s", processCpuSeconds() - cpu0);
        out.json = tracer.span(
            "dse.tojson", [&] { return dse::toJson(out.result); });
        out.problems = tracer.span(
            "dse.check", [&] { return dse::checkFrontier(out.result); });

        uint64_t cycles = 0;
        double model = 0.0;
        std::set<std::tuple<int, int, int64_t, std::string>> distinct;
        for (const auto &p : out.result.points) {
            cycles += p.cycles;
            model += p.accelSeconds + p.dmaSeconds;
            distinct.emplace(static_cast<int>(p.point.accel),
                             p.point.numPipelines, p.point.psize,
                             p.point.memPreset);
        }
        size_t frontier = 0;
        for (const auto &[name, indices] : out.result.frontiers)
            frontier += indices.size();
        rec.set("dse.points", static_cast<double>(out.result.points.size()));
        rec.set("dse.distinct_sims", static_cast<double>(distinct.size()));
        rec.set("dse.sim_cycles", static_cast<double>(cycles));
        rec.set("dse.frontier_points", static_cast<double>(frontier));
        rec.set("model_s", model);
        rec.units = static_cast<double>(out.result.points.size());
        return out;
    }

    bool
    check(const dse::SweepSpec &spec, const Output &out,
          std::string &why) const
    {
        if (out.result.points.size() != spec.numPoints()) {
            why = "sweep returned the wrong number of points";
            return false;
        }
        for (const auto &p : out.result.points) {
            if (!p.ok) {
                why = "point " + std::to_string(p.point.index) +
                    " failed: " + p.error;
                return false;
            }
        }
        if (out.json.empty()) {
            why = "toJson returned nothing";
            return false;
        }
        if (!out.problems.empty()) {
            why = "checkFrontier: " + out.problems.front();
            return false;
        }
        return true;
    }

  private:
    uint64_t seed_;
    dse::SweepSpec spec_;
};

} // namespace

void
runDseSweep(const Options &options, Report &report, Tracer &tracer)
{
    runClosedLoop<DseSweep>(options, report, tracer);
}

} // namespace perfbench
