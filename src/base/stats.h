/**
 * @file
 * Named counter registries and report formatting used by the simulator
 * and benches.
 */

#ifndef GENESIS_BASE_STATS_H
#define GENESIS_BASE_STATS_H

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace genesis {

/**
 * A named registry of counters. The simulator exposes per-module counters
 * (flits processed, stall cycles, memory bytes) through one of these so
 * benches can print uniform reports.
 */
class StatRegistry
{
  public:
    /**
     * Interned handle to one counter: bumping it (`++*h`) is a single
     * indirect increment, with no string hashing or map lookup. Handles
     * alias the counters visible through add()/get()/counters().
     */
    using Counter = uint64_t *;

    /**
     * Intern a counter and return a stable handle to it (creating it at
     * zero). Handles stay valid for the registry's lifetime; only
     * clear() invalidates them. Hot-path code should intern once at
     * construction and bump through the handle.
     */
    Counter counter(const std::string &name);

    /** Add the given delta to a named counter (creating it at zero). */
    void add(const std::string &name, uint64_t delta = 1);

    /** Set a named counter to an absolute value. */
    void set(const std::string &name, uint64_t value);

    /** @return counter value, or 0 when never touched. */
    uint64_t get(const std::string &name) const;

    /** @return all counters in name-sorted order. */
    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }

    /** Merge all counters from another registry into this one. */
    void merge(const StatRegistry &other);

    /** One counter's value at a snapshot: (handle, value). */
    using Sample = std::pair<Counter, uint64_t>;

    /**
     * Append a (handle, value) sample of every counter, in name order,
     * to `out`. Handles are map nodes, so the samples stay valid until
     * clear().
     */
    void snapshot(std::vector<Sample> &out);

    /**
     * Credit `times` extra repetitions of the per-cycle deltas observed
     * since `samples` (the segment snapshot() appended for this
     * registry) were taken: every counter grows by
     * (current - sampled) * times, and a counter created since the
     * snapshot counts as sampled at 0. Used by the simulator's idle-cycle
     * fast-forward to account skipped cycles in bulk.
     */
    void creditDelta(std::span<const Sample> samples, uint64_t times);

    /** Render a human-readable multi-line report. */
    std::string report(const std::string &prefix = "") const;

    /** Drop every counter. Invalidates all interned handles. */
    void clear() { counters_.clear(); }

  private:
    std::map<std::string, uint64_t> counters_;
};

/** Format a byte count with binary units (e.g. "4.95 MiB"). */
std::string formatBytes(double bytes);

/** Format a duration in seconds with an adaptive unit (s / ms / us). */
std::string formatSeconds(double seconds);

} // namespace genesis

#endif // GENESIS_BASE_STATS_H
