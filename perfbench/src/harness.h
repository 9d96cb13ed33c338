/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: clocks,
 * process CPU and memory probes, seed derivation, the in-memory span
 * recorder used by traced runs, and the raw report perfbench/run.py
 * turns into metrics.
 *
 * The benchmark times each layer from outside: a span wraps one call
 * into a layer's public function, so nothing inside the library is
 * instrumented. Spans are kept in memory and written out with the
 * report when the run ends.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);
double secondsSince(Clock::time_point start);

/** User + system CPU seconds of the whole process (all threads). */
double processCpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Independent, reproducible sub-seed `index` of stream `stream`. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream, uint64_t index);

/** One recorded span: a call into a layer, as seen from outside. */
struct Span {
    std::string name;
    uint64_t op = 0;
    double start = 0.0; ///< seconds since the recorder's epoch
    double end = 0.0;
    int parent = -1; ///< index into the span list, -1 for a root
};

/**
 * Span recorder. Disabled (the untraced runs, and untraced ops of a
 * traced run) it records nothing and wraps calls with no clock reads.
 * Spans are recorded from the benchmark's main thread only.
 */
class Tracer
{
  public:
    /** Start op `op`; spans are recorded until endOp() iff `enabled`. */
    void beginOp(uint64_t op, bool enabled);
    void endOp();
    bool enabled() const { return enabled_; }

    /** Open a span; the currently open span becomes its parent. */
    int open(const char *name);
    void close(int index);

    /**
     * Add a closed span whose times were measured elsewhere, under span
     * `parent` (-1 for a root). @return its index, -1 when disabled.
     */
    int add(const char *name, Clock::time_point start,
            Clock::time_point end, int parent);

    /** Run `fn` inside a span named `name`; returns what it returns. */
    template <typename Fn>
    decltype(auto)
    span(const char *name, Fn &&fn)
    {
        if (!enabled_)
            return fn();
        struct Closer {
            Tracer &tracer;
            int index;
            ~Closer() { tracer.close(index); }
        } closer{*this, open(name)};
        return fn();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double stamp(Clock::time_point t) const;

    bool enabled_ = false;
    uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    Clock::time_point epoch_ = Clock::now();
};

/** What one timed op produced. */
struct OpRecord {
    uint64_t op = 0;
    bool ok = false;
    bool traced = false;
    /** Host seconds the op took (for service jobs: from when it was due). */
    double latency = 0.0;
    /** Process CPU seconds spent while the op ran (closed loops). */
    double cpu = 0.0;
    /** Work units the op completed (0 when it failed). */
    double units = 0.0;
    /** Counters the program returned for this op, by metric name. */
    std::vector<std::pair<std::string, double>> values;

    void set(const std::string &name, double value)
    {
        values.emplace_back(name, value);
    }
};

/** Everything one run measured, before any statistics are taken. */
struct Report {
    std::string workload;
    std::string unit;
    /**
     * Open loop: throughput and CPU are taken over the whole window.
     * Closed loop: over the timed ops only, leaving out input
     * generation and output checks.
     */
    bool openLoop = false;
    /** Seconds of each repeated set-up. */
    std::vector<double> setup;
    /** Per set-up repetition samples of set-up components, by name. */
    std::map<std::string, std::vector<double>> setupValues;
    std::vector<OpRecord> ops;
    /**
     * Wall and process-CPU seconds of the measured window; in a closed
     * loop they include the set-ups spread over it.
     */
    double windowSeconds = 0.0;
    double windowCpuSeconds = 0.0;
    /** Whole-run values (e.g. end-of-run service counters). */
    std::map<std::string, double> runValues;
    /** First few failure descriptions. */
    std::vector<std::string> failures;

    /** Record a failed op's reason (the count lives in ops). */
    void noteFailure(const std::string &why);

    /** Serialize report + spans as one JSON object. */
    void writeJson(std::ostream &out, const Tracer &tracer) const;
};

/** Command-line options every workload receives. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Set-up repetitions per run; run.py reports their median. */
constexpr int kSetupReps = 15;

/**
 * Ops every run completes, however short `seconds` is: the first ops of
 * a closed loop, whose counters two runs of one seed must report
 * identically, and the jobs of the service's determinism probe.
 */
constexpr uint64_t kDeterministicOps = 8;

/**
 * Ops a traced run completes, however short `seconds` is: enough that
 * the p90 latency it reports has ten samples beyond it. Untraced runs,
 * which report no p90, keep to `seconds`.
 */
constexpr uint64_t kTracedMinOps = 100;

inline uint64_t
minOps(const Options &options)
{
    return options.trace ? kTracedMinOps : kDeterministicOps;
}

/** Set a fresh copy of workload `W` up, recording how long it took. */
template <typename W>
std::unique_ptr<W>
timedSetUp(const Options &options, Report &report)
{
    const auto start = Clock::now();
    auto fresh = std::make_unique<W>(options.seed, report);
    report.setup.push_back(secondsSince(start));
    return fresh;
}

/**
 * Set workload `W` up kSetupReps times back to back (the previous copy
 * is torn down outside the timed region); @return the last copy.
 */
template <typename W>
std::unique_ptr<W>
setUp(const Options &options, Report &report)
{
    std::unique_ptr<W> workload;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        workload.reset();
        workload = timedSetUp<W>(options, report);
    }
    return workload;
}

/**
 * Drive a closed-loop workload with one caller: set-up, then ops back
 * to back for `seconds` of op time (and at least minOps()). The other
 * kSetupReps - 1 set-ups are spread over the run, one per
 * `seconds / kSetupReps` of op time, so that their median samples the
 * host over the same period as the ops; their copies are discarded and
 * their time is not op time. `W` provides
 *   explicit W(uint64_t seed, Report &)    set-up incl. one warm-up op
 *   Input prepare(uint64_t op)             untimed input generation
 *   Output run(Input &, Tracer &, OpRecord &)  the timed calls
 *   bool check(const Input &, const Output &, std::string &why)
 * In a traced run every other op is traced, so the untraced ops of the
 * same run measure the tracing overhead.
 */
template <typename W>
void
runClosedLoop(const Options &options, Report &report, Tracer &tracer)
{
    std::unique_ptr<W> workload = timedSetUp<W>(options, report);
    int setups = 1;
    double setup_seconds = 0.0;

    const auto window_start = Clock::now();
    const double cpu_start = processCpuSeconds();
    auto op_seconds = [&] {
        return secondsSince(window_start) - setup_seconds;
    };
    for (uint64_t op = 0;
         op < minOps(options) || op_seconds() < options.seconds; ++op) {
        if (setups < kSetupReps &&
            op_seconds() >= setups * options.seconds / kSetupReps) {
            const auto start = Clock::now();
            timedSetUp<W>(options, report);
            setup_seconds += secondsSince(start);
            ++setups;
        }
        auto input = workload->prepare(op);
        OpRecord rec;
        rec.op = op;
        rec.traced = options.trace && op % 2 == 0;
        tracer.beginOp(op, rec.traced);
        const int root = tracer.enabled() ? tracer.open("bench.op") : -1;
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        bool timed = false;
        auto stop = [&] {
            rec.latency = secondsSince(t0);
            rec.cpu = processCpuSeconds() - cpu0;
            if (root >= 0)
                tracer.close(root);
            tracer.endOp();
            timed = true;
        };
        std::string why;
        try {
            auto output = workload->run(input, tracer, rec);
            stop();
            rec.ok = workload->check(input, output, why);
        } catch (const std::exception &e) {
            if (!timed)
                stop();
            why = std::string("threw: ") + e.what();
        }
        if (!rec.ok) {
            rec.units = 0.0;
            report.noteFailure("op " + std::to_string(op) + ": " + why);
        }
        report.ops.push_back(std::move(rec));
    }
    report.windowSeconds = secondsSince(window_start);
    report.windowCpuSeconds = processCpuSeconds() - cpu_start;
    for (; setups < kSetupReps; ++setups)
        timedSetUp<W>(options, report);
}

void runAccelStages(const Options &options, Report &report,
                    Tracer &tracer);
void runSqlQueries(const Options &options, Report &report,
                   Tracer &tracer);
void runServiceMix(const Options &options, Report &report,
                   Tracer &tracer);
void runDseSweep(const Options &options, Report &report, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
