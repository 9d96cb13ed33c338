/**
 * @file
 * Benchmark workload runner. Runs one workload for a time budget and
 * writes its raw measurements (per-op latencies, CPU, returned counters
 * and, in a traced run, spans) as JSON to --out. perfbench/run.py turns
 * them into the reported metrics; run that script, not this binary.
 *
 *   genesis_perfbench --workload accel_stages --seed 1 --seconds 10
 *                     --trace 0 --out raw.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "base/logging.h"
#include "harness.h"

using namespace perfbench;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload accel_stages|sql_queries|"
                 "service_mix|dse_sweep --seed N --seconds S "
                 "--trace 0|1 --out FILE\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string out_path;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (std::strcmp(flag, "--workload") == 0) {
            options.workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            options.seed = std::strtoull(value, &end, 10);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            options.seconds = std::strtod(value, &end);
        } else if (std::strcmp(flag, "--trace") == 0) {
            options.trace = std::strcmp(value, "1") == 0;
        } else if (std::strcmp(flag, "--out") == 0) {
            out_path = value;
        } else {
            return usage(argv[0]);
        }
        if (end && *end != '\0')
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || out_path.empty() || options.seconds <= 0)
        return usage(argv[0]);

    genesis::setQuiet(true);
    Report report;
    report.workload = options.workload;
    Tracer tracer;
    try {
        if (options.workload == "accel_stages")
            runAccelStages(options, report, tracer);
        else if (options.workload == "sql_queries")
            runSqlQueries(options, report, tracer);
        else if (options.workload == "service_mix")
            runServiceMix(options, report, tracer);
        else if (options.workload == "dse_sweep")
            runDseSweep(options, report, tracer);
        else
            return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                     e.what());
        return 1;
    }

    std::ofstream out(out_path);
    report.writeJson(out, tracer);
    out.close();
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    return 0;
}
