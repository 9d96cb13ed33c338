/**
 * @file
 * Tests for the design-space exploration harness (src/dse): grid
 * enumeration, worker-count determinism, shared simulations that match
 * per-point runs exactly, Pareto dominance, per-point error capture,
 * and the frontier sanity gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/logging.h"
#include "dse/dse.h"

namespace genesis::dse {
namespace {

/** A cheap markdup-only grid for the end-to-end tests. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.accels = {Accel::MarkDup};
    spec.pipelines = {4};
    spec.psizes = {32'768};
    spec.memPresets = {"f1-ddr4", "pim"};
    spec.dmaPresets = {"pcie3"};
    spec.clocksMHz = {250.0};
    spec.numPairs = 60;
    return spec;
}

TEST(DseSpec, DefaultGridCoversTheIssueFloor)
{
    SweepSpec spec = SweepSpec::defaultGrid();
    // >= 40 points across >= 4 swept knob axes (ISSUE acceptance).
    EXPECT_GE(spec.numPoints(), 40u);
    int swept_axes = 0;
    swept_axes += spec.pipelines.size() > 1;
    swept_axes += spec.psizes.size() > 1;
    swept_axes += spec.memPresets.size() > 1;
    swept_axes += spec.dmaPresets.size() > 1;
    swept_axes += spec.clocksMHz.size() > 1;
    EXPECT_GE(swept_axes, 4);
    // The grid includes a near-bank/PIM-style memory configuration.
    EXPECT_NE(std::find(spec.memPresets.begin(), spec.memPresets.end(),
                        "pim"),
              spec.memPresets.end());
    EXPECT_TRUE(spec.validate().empty());
}

TEST(DseSpec, PimPresetIsNearBank)
{
    const MemPreset *pim = nullptr;
    for (const auto &preset : builtinMemPresets()) {
        if (preset.name == "pim")
            pim = &preset;
    }
    ASSERT_NE(pim, nullptr);
    EXPECT_TRUE(pim->nearBank);
    EXPECT_LT(pim->dmaTrafficFraction, 1.0);
    EXPECT_GT(pim->memory.numChannels, 4);
    // The built-in presets must all be simulatable.
    for (const auto &preset : builtinMemPresets())
        EXPECT_TRUE(sim::validate(preset.memory).empty())
            << preset.name;
}

TEST(DseSpec, ValidateNamesTheEmptyAxis)
{
    SweepSpec spec;
    spec.accels.clear();
    spec.clocksMHz = {0.0};
    spec.pipelines = {0};
    std::vector<std::string> errors = spec.validate();
    auto contains = [&errors](const char *needle) {
        for (const auto &e : errors) {
            if (e.find(needle) != std::string::npos)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(contains("accels"));
    EXPECT_TRUE(contains("clocksMHz[0]"));
    EXPECT_TRUE(contains("pipelines[0]"));
    EXPECT_THROW(runSweep(spec), FatalError);
}

TEST(DseSpec, EnumerationIsDeterministicWithDistinctSeeds)
{
    SweepSpec spec = SweepSpec::defaultGrid();
    std::vector<SweepPoint> a = enumeratePoints(spec);
    std::vector<SweepPoint> b = enumeratePoints(spec);
    ASSERT_EQ(a.size(), spec.numPoints());
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, i);
        EXPECT_EQ(a[i].seed, b[i].seed);
        seeds.push_back(a[i].seed);
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

TEST(DseSweep, FrontierJsonIsByteIdenticalAtAnyWorkerCount)
{
    SweepSpec spec = smallSpec();
    HarnessOptions serial;
    serial.workers = 1;
    HarnessOptions wide;
    wide.workers = 4;
    SweepResult a = runSweep(spec, serial);
    SweepResult b = runSweep(spec, wide);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_TRUE(checkFrontier(a).empty());
}

TEST(DseSweep, SlowClockPointIsDominatedAndExcluded)
{
    // Same architecture at 125 vs 250 MHz: identical price and
    // resources, strictly lower throughput — provably dominated, so it
    // must not appear on the frontier.
    SweepSpec spec = smallSpec();
    spec.memPresets = {"f1-ddr4"};
    spec.clocksMHz = {125.0, 250.0};
    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 2u);
    const PointResult &slow = result.points[0];
    const PointResult &fast = result.points[1];
    ASSERT_TRUE(slow.ok);
    ASSERT_TRUE(fast.ok);
    EXPECT_LT(slow.basesPerSecond, fast.basesPerSecond);
    EXPECT_DOUBLE_EQ(slow.dollarsPerHour, fast.dollarsPerHour);
    EXPECT_DOUBLE_EQ(slow.maxUtilPct, fast.maxUtilPct);
    EXPECT_TRUE(dominates(fast, slow));
    EXPECT_FALSE(dominates(slow, fast));
    ASSERT_EQ(result.frontiers.count("markdup"), 1u);
    EXPECT_EQ(result.frontiers.at("markdup"),
              (std::vector<size_t>{1}));
    EXPECT_TRUE(checkFrontier(result).empty());
}

TEST(DseSweep, InvalidPresetIsACleanPerPointError)
{
    setQuiet(true);
    SweepSpec spec = smallSpec();
    MemPreset broken;
    broken.name = "broken";
    broken.memory.numChannels = 0;
    spec.customPresets = {broken};
    spec.memPresets = {"broken", "f1-ddr4"};
    SweepResult result = runSweep(spec);
    setQuiet(false);
    ASSERT_EQ(result.points.size(), 2u);
    const PointResult &bad = result.points[0];
    const PointResult &good = result.points[1];
    EXPECT_FALSE(bad.ok);
    // The error names the offending field, prefixed by the model.
    EXPECT_NE(bad.error.find("memory.numChannels"), std::string::npos)
        << bad.error;
    EXPECT_TRUE(good.ok) << good.error;
    // The broken point never reaches the frontier; the sweep survives.
    for (size_t i : result.frontiers.at("markdup"))
        EXPECT_NE(i, bad.point.index);
    EXPECT_TRUE(checkFrontier(result).empty());
}

TEST(DseSweep, UnknownPresetNameIsAPerPointError)
{
    SweepSpec spec = smallSpec();
    spec.memPresets = {"no-such-preset"};
    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 1u);
    EXPECT_FALSE(result.points[0].ok);
    EXPECT_NE(result.points[0].error.find("memPreset"),
              std::string::npos);
    // All points failed: the gate reports the starved frontier.
    EXPECT_FALSE(checkFrontier(result).empty());
}

TEST(DseSweep, CheckFrontierCatchesACorruptedFrontier)
{
    SweepSpec spec = smallSpec();
    spec.memPresets = {"f1-ddr4"};
    spec.clocksMHz = {125.0, 250.0};
    SweepResult result = runSweep(spec);
    ASSERT_TRUE(checkFrontier(result).empty());
    // Put the dominated point on the frontier instead.
    result.frontiers["markdup"] = {0};
    std::vector<std::string> problems = checkFrontier(result);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("dominated"), std::string::npos);
    // An empty frontier despite feasible points is also a failure.
    result.frontiers["markdup"] = {};
    EXPECT_FALSE(checkFrontier(result).empty());
}

/** Both clocks, both PCIe generations, two psizes and two presets for
 *  markdup (which ignores psize) and metadata: 32 points, 6
 *  simulations. */
SweepSpec
sharingSpec()
{
    SweepSpec spec;
    spec.accels = {Accel::MarkDup, Accel::Metadata};
    spec.pipelines = {4};
    spec.psizes = {32'768, 131'072};
    spec.memPresets = {"f1-ddr4", "pim"};
    spec.dmaPresets = {"pcie3", "pcie4"};
    spec.clocksMHz = {250.0, 400.0};
    spec.numPairs = 24;
    return spec;
}

/** The one-value-per-axis sweep of `pt`, whose only point is `pt`. */
SweepSpec
soloSpec(const SweepSpec &grid, const SweepPoint &pt)
{
    SweepSpec solo = grid;
    solo.accels = {pt.accel};
    solo.pipelines = {pt.numPipelines};
    solo.psizes = {pt.psize};
    solo.memPresets = {pt.memPreset};
    solo.dmaPresets = {pt.dmaPreset};
    solo.clocksMHz = {pt.clockMHz};
    // Point 0's seed is seed ^ 0x9E3779B97F4A7C15 (enumeratePoints);
    // invert that so a per-point workload is the same one.
    if (grid.perPointWorkloads)
        solo.seed = pt.seed ^ 0x9E3779B97F4A7C15ull;
    return solo;
}

/** Every field equal: doubles with ==, strings exactly. The grid
 *  index (and, with a shared workload, the unused per-point seed) is
 *  the only part of a point that depends on its grid. */
void
expectSamePoint(const PointResult &a, const PointResult &b,
                bool compare_seed)
{
    SCOPED_TRACE("point " + std::to_string(a.point.index));
    EXPECT_EQ(a.point.accel, b.point.accel);
    EXPECT_EQ(a.point.numPipelines, b.point.numPipelines);
    EXPECT_EQ(a.point.psize, b.point.psize);
    EXPECT_EQ(a.point.memPreset, b.point.memPreset);
    EXPECT_EQ(a.point.dmaPreset, b.point.dmaPreset);
    EXPECT_EQ(a.point.clockMHz, b.point.clockMHz);
    if (compare_seed) {
        EXPECT_EQ(a.point.seed, b.point.seed);
    }
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.totalBases, b.totalBases);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accelSeconds, b.accelSeconds);
    EXPECT_EQ(a.dmaSeconds, b.dmaSeconds);
    EXPECT_EQ(a.basesPerSecond, b.basesPerSecond);
    EXPECT_EQ(a.dollarsPerHour, b.dollarsPerHour);
    EXPECT_EQ(a.dollarsPerGenome, b.dollarsPerGenome);
    EXPECT_EQ(a.luts, b.luts);
    EXPECT_EQ(a.registers, b.registers);
    EXPECT_EQ(a.bramMiB, b.bramMiB);
    EXPECT_EQ(a.lutPct, b.lutPct);
    EXPECT_EQ(a.regPct, b.regPct);
    EXPECT_EQ(a.bramPct, b.bramPct);
    EXPECT_EQ(a.maxUtilPct, b.maxUtilPct);
    EXPECT_EQ(a.fits, b.fits);
}

/** Each point of `grid`, the sweep of `spec`, equals the point swept
 *  alone. */
void
expectEveryPointMatchesItsSoloSweep(const SweepSpec &spec,
                                    const SweepResult &grid)
{
    ASSERT_EQ(grid.points.size(), spec.numPoints());
    for (const PointResult &p : grid.points) {
        SweepResult solo = runSweep(soloSpec(spec, p.point));
        ASSERT_EQ(solo.points.size(), 1u);
        EXPECT_EQ(solo.simulations, p.error.empty() ? 1u : 0u);
        expectSamePoint(p, solo.points[0], spec.perPointWorkloads);
    }
}

TEST(DseSweep, EveryPointMatchesItsSoloSweep)
{
    SweepSpec spec = sharingSpec();
    SweepResult result = runSweep(spec);
    // Clock and PCIe never reach the simulator, and markdup ignores
    // psize: 2 presets x (1 markdup + 2 metadata psizes).
    EXPECT_EQ(result.simulations, 6u);
    for (const PointResult &p : result.points)
        EXPECT_TRUE(p.ok) << p.error;
    expectEveryPointMatchesItsSoloSweep(spec, result);
}

TEST(DseSweep, PerPointWorkloadsMatchTheirSoloSweeps)
{
    SweepSpec spec = sharingSpec();
    spec.psizes = {32'768};
    spec.memPresets = {"pim"};
    spec.perPointWorkloads = true;
    SweepResult result = runSweep(spec);
    // Every point has its own seed, so nothing is shared.
    EXPECT_EQ(result.simulations, spec.numPoints());
    expectEveryPointMatchesItsSoloSweep(spec, result);
}

TEST(DseSweep, BrokenPresetErrorIsOnEachOfItsPoints)
{
    setQuiet(true);
    SweepSpec spec = sharingSpec();
    spec.accels = {Accel::Metadata};
    MemPreset broken;
    broken.name = "broken";
    broken.memory.numChannels = 0;
    spec.customPresets = {broken};
    spec.memPresets = {"broken", "f1-ddr4"};
    SweepResult result = runSweep(spec);
    EXPECT_EQ(result.simulations, 2u);
    size_t broken_points = 0;
    for (const PointResult &p : result.points) {
        if (p.point.memPreset != "broken") {
            EXPECT_TRUE(p.ok) << p.error;
            continue;
        }
        ++broken_points;
        EXPECT_FALSE(p.ok);
        EXPECT_NE(p.error.find("memory.numChannels"), std::string::npos)
            << p.error;
    }
    EXPECT_EQ(broken_points, 8u);
    expectEveryPointMatchesItsSoloSweep(spec, result);
    setQuiet(false);
}

TEST(DseSweep, DefaultGridRunsTwentySimulations)
{
    // 3 accels x 2 pipelines x 2 presets, times 2 psizes for metadata
    // and BQSR only: 4 + 8 + 8 simulations behind 96 points.
    SweepSpec spec = SweepSpec::defaultGrid();
    spec.numPairs = 8;
    SweepResult result = runSweep(spec);
    EXPECT_EQ(result.points.size(), 96u);
    EXPECT_EQ(result.simulations, 20u);
    EXPECT_TRUE(checkFrontier(result).empty());
}

TEST(DseDominance, StrictImprovementRequired)
{
    PointResult a, b;
    a.basesPerSecond = b.basesPerSecond = 100.0;
    a.dollarsPerGenome = b.dollarsPerGenome = 2.0;
    a.maxUtilPct = b.maxUtilPct = 50.0;
    // Identical points tie: neither dominates.
    EXPECT_FALSE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
    a.dollarsPerGenome = 1.5;
    EXPECT_TRUE(dominates(a, b));
    // A trade-off (faster but more expensive) is not dominance.
    b.basesPerSecond = 150.0;
    EXPECT_FALSE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
}

TEST(DseDominance, FrontierKeepsOnlyNonDominated)
{
    std::vector<PointResult> pts(3);
    pts[0].basesPerSecond = 100;
    pts[0].dollarsPerGenome = 1.0;
    pts[0].maxUtilPct = 10;
    pts[1].basesPerSecond = 200;
    pts[1].dollarsPerGenome = 2.0;
    pts[1].maxUtilPct = 20;
    pts[2].basesPerSecond = 90; // dominated by pts[0]
    pts[2].dollarsPerGenome = 1.5;
    pts[2].maxUtilPct = 15;
    std::vector<size_t> frontier = paretoFrontier(pts, {0, 1, 2});
    EXPECT_EQ(frontier, (std::vector<size_t>{0, 1}));
}

} // namespace
} // namespace genesis::dse
