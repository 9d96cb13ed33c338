/**
 * @file
 * Round-robin arbitration primitive used by the memory system's local and
 * global arbiters (paper Figure 8).
 */

#ifndef GENESIS_SIM_ARBITER_H
#define GENESIS_SIM_ARBITER_H

#include <cstddef>

namespace genesis::sim {

/**
 * Fair round-robin selector over n requesters. grant() scans the
 * requesters starting just past the last winner and returns the first
 * index the predicate accepts, updating the pointer; -1 when none.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(size_t n = 0) : n_(n) {}

    void
    resize(size_t n)
    {
        n_ = n;
        if (next_ >= n_)
            next_ = 0;
    }

    size_t size() const { return n_; }

    /**
     * @param requesting predicate: does requester i want (and may get) a
     * grant this cycle?
     * @return granted index, or -1 when no requester is eligible. A
     * grant with no eligible requester leaves the pointer untouched, so
     * ticks that find nothing schedulable (tickQuiet's proven-quiet
     * spans) are exact no-ops on arbiter state.
     */
    template <typename Pred>
    int
    grant(const Pred &requesting)
    {
        for (size_t i = 0; i < n_; ++i) {
            size_t candidate = next_ + i;
            if (candidate >= n_)
                candidate -= n_;
            if (requesting(candidate)) {
                grantTo(candidate);
                return static_cast<int>(candidate);
            }
        }
        return -1;
    }

    /** Position of requester i in the next grant()'s scan (0 = first).
     *  grantTo() on the lowest-ranked member of a requesting set picks
     *  exactly what grant() would, without scanning idle requesters. */
    size_t
    rank(size_t i) const
    {
        return i >= next_ ? i - next_ : i + n_ - next_;
    }

    /** Record a grant to requester i (moves the pointer past it). */
    void grantTo(size_t i) { next_ = i + 1 == n_ ? 0 : i + 1; }

  private:
    size_t n_ = 0;
    size_t next_ = 0;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_ARBITER_H
