/**
 * @file
 * Design-space exploration sweep over the Genesis hardware models
 * (ROADMAP item 5, DESIGN.md §10).
 *
 * Sweeps the default grid — 3 accelerators x pipeline replication x SPM
 * partition size x memory preset (DDR4 / near-bank PIM) x PCIe
 * generation x clock — one full simulation per distinct configuration
 * that reaches the simulator (20 behind the 96 points), simulations
 * farmed across host cores, and prints the Pareto frontiers of
 * simulated throughput vs $/genome vs VU9P utilization. The frontier
 * JSON is byte-identical at any worker count (see src/dse/dse.h).
 *
 * Flags:
 *   --out FILE    write the sweep JSON to FILE (default: stdout)
 *   --workers N   concurrent simulations, 0 = auto (default: auto;
 *                 GENESIS_DSE_WORKERS overrides)
 *   --pairs N     synthetic read pairs, >= 1 (default: 400; also
 *                 GENESIS_DSE_PAIRS)
 *   --check       run the frontier sanity gate; exit 1 on any problem
 *                 (non-empty, monotone front; used by CI)
 *
 * A malformed --pairs or --workers value ("4x", "abc") is fatal and
 * names the flag; exit status 2.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "base/env.h"
#include "base/logging.h"
#include "dse/dse.h"

using namespace genesis;

namespace {

const char *
argValue(int argc, char **argv, const char *flag)
{
    const size_t flag_len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], flag, flag_len) == 0 &&
            argv[i][flag_len] == '=')
            return argv[i] + flag_len + 1;
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
            return argv[i + 1];
    }
    return nullptr;
}

/** @return integer flag `flag` in [min_value, max_value], or
 *  `fallback` when absent; fatal on a malformed or out-of-range value. */
long long
intFlag(int argc, char **argv, const char *flag, long long fallback,
        long long min_value, long long max_value)
{
    const char *text = argValue(argc, argv, flag);
    if (!text)
        return fallback;
    std::optional<long long> value = parseInt64(text);
    if (!value || *value < min_value || *value > max_value) {
        fatal("%s: expected an integer in [%lld, %lld], got '%s'", flag,
              min_value, max_value, text);
    }
    return *value;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

int
run(int argc, char **argv)
{
    dse::SweepSpec spec = dse::SweepSpec::defaultGrid();
    spec.numPairs = intFlag(
        argc, argv, "--pairs",
        envInt64("GENESIS_DSE_PAIRS", spec.numPairs, 1), 1,
        std::numeric_limits<int64_t>::max());

    dse::HarnessOptions options;
    options.workers = static_cast<int>(
        intFlag(argc, argv, "--workers", options.workers, 0, 1024));

    std::fprintf(stderr, "sim_dse: sweeping %zu points (%lld pairs)\n",
                 spec.numPoints(),
                 static_cast<long long>(spec.numPairs));
    dse::SweepResult result = dse::runSweep(spec, options);
    std::fprintf(stderr, "sim_dse: %zu distinct simulations\n",
                 result.simulations);

    const std::string json = dse::toJson(result);
    const char *out = argValue(argc, argv, "--out");
    if (out) {
        FILE *f = std::fopen(out, "w");
        if (!f) {
            std::fprintf(stderr, "sim_dse: cannot open %s\n", out);
            return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "sim_dse: wrote %s\n", out);
    } else {
        std::fwrite(json.data(), 1, json.size(), stdout);
    }
    std::fputs(dse::summary(result).c_str(), stderr);

    if (hasFlag(argc, argv, "--check")) {
        std::vector<std::string> problems = dse::checkFrontier(result);
        for (const auto &p : problems)
            std::fprintf(stderr, "FAIL: %s\n", p.c_str());
        if (!problems.empty())
            return 1;
        std::fprintf(stderr, "frontier sanity: OK (%zu frontiers)\n",
                     result.frontiers.size());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "sim_dse: %s\n", e.what());
        return 2;
    }
}
