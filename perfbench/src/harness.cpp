#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    // splitmix64 over a mix of the three inputs.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xd1b54a32d192ed03ull +
        index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Tracer::beginOp(uint64_t op, bool enabled)
{
    op_ = op;
    enabled_ = enabled;
    stack_.clear();
}

void
Tracer::endOp()
{
    enabled_ = false;
    stack_.clear();
}

double
Tracer::stamp(Clock::time_point t) const
{
    return secondsBetween(epoch_, t);
}

int
Tracer::open(const char *name)
{
    Span span;
    span.name = name;
    span.op = op_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = stamp(Clock::now());
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    spans_[static_cast<size_t>(index)].end = stamp(Clock::now());
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

int
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, int parent)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.op = op_;
    span.parent = parent;
    span.start = stamp(start);
    span.end = stamp(end);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

void
Report::noteFailure(const std::string &why)
{
    if (failures.size() < 10)
        failures.push_back(why);
}

namespace {

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Full-precision number; JSON has no NaN or infinity, so those are null. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
writeSamples(std::ostream &out, const std::vector<double> &values)
{
    out << '[';
    for (size_t i = 0; i < values.size(); ++i)
        out << (i ? ", " : "") << number(values[i]);
    out << ']';
}

} // namespace

void
Report::writeJson(std::ostream &out, const Tracer &tracer) const
{
    out << "{\"workload\": " << quoted(workload)
        << ", \"unit\": " << quoted(unit)
        << ", \"open_loop\": " << (openLoop ? "true" : "false")
        << ", \"setup_s\": ";
    writeSamples(out, setup);
    out << ", \"setup_values\": {";
    bool first = true;
    for (const auto &[name, values] : setupValues) {
        out << (first ? "" : ", ") << quoted(name) << ": ";
        writeSamples(out, values);
        first = false;
    }
    out << "}, \"window_s\": " << number(windowSeconds)
        << ", \"window_cpu_s\": " << number(windowCpuSeconds)
        << ", \"peak_rss_mb\": " << number(peakRssMb())
        << ", \"run_values\": {";
    first = true;
    for (const auto &[name, value] : runValues) {
        out << (first ? "" : ", ") << quoted(name) << ": " << number(value);
        first = false;
    }
    out << "}, \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i)
        out << (i ? ", " : "") << quoted(failures[i]);
    out << "],\n\"ops\": [";
    for (size_t i = 0; i < ops.size(); ++i) {
        const OpRecord &op = ops[i];
        out << (i ? ",\n" : "") << "{\"op\": " << op.op
            << ", \"ok\": " << (op.ok ? "true" : "false")
            << ", \"traced\": " << (op.traced ? "true" : "false")
            << ", \"latency_s\": " << number(op.latency)
            << ", \"cpu_s\": " << number(op.cpu)
            << ", \"units\": " << number(op.units) << ", \"values\": {";
        for (size_t v = 0; v < op.values.size(); ++v) {
            out << (v ? ", " : "") << quoted(op.values[v].first) << ": "
                << number(op.values[v].second);
        }
        out << "}}";
    }
    out << "],\n\"spans\": [";
    const auto &spans = tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n" : "") << '[' << quoted(s.name) << ", " << s.op
            << ", " << number(s.start) << ", " << number(s.end) << ", "
            << s.parent << ']';
    }
    out << "]}\n";
}

} // namespace perfbench
