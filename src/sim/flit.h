/**
 * @file
 * Flit: the atomic unit of dataflow communication (Section III-C).
 *
 * A stream consists of data items; each item is divided into flits, the
 * atomic unit of communication and operation — e.g. when a sequence of
 * reads forms a stream, each read is an item and each base pair is a
 * flit. A flit carries a key (used by the Joiner) plus a small set of
 * data fields (merged by joins through concatenation).
 */

#ifndef GENESIS_SIM_FLIT_H
#define GENESIS_SIM_FLIT_H

#include <array>
#include <cstdint>
#include <limits>
#include <string>

namespace genesis::sim {

/** One flit. */
struct Flit {
    /** Maximum data fields a flit can carry after join concatenation. */
    static constexpr int kMaxFields = 8;

    /**
     * Special key marking an inserted base (present in the read but not
     * the reference): it bypasses the Joiner's key comparison (emitted by
     * a left join, dropped by an inner join), mirroring the "Ins" marker
     * of paper Figure 3.
     */
    static constexpr int64_t kIns =
        std::numeric_limits<int64_t>::min() + 1;

    /**
     * Special field value marking a deleted base (present in the
     * reference but not the read) — the "Del" marker of Figure 3.
     */
    static constexpr int64_t kDel =
        std::numeric_limits<int64_t>::min() + 2;

    /** Special field value for join padding (no matching counterpart). */
    static constexpr int64_t kNull =
        std::numeric_limits<int64_t>::min() + 3;

    /** Key of an item-boundary marker flit. */
    static constexpr int64_t kBoundary =
        std::numeric_limits<int64_t>::min() + 4;

    int64_t key = 0;
    std::array<int64_t, kMaxFields> field{};
    uint8_t numFields = 0;
    /** Marks the final flit of a data item (read/row boundary). */
    bool lastOfItem = false;

    /** Append a data field; panics when the flit is full. */
    void
    pushField(int64_t v)
    {
        if (numFields >= kMaxFields)
            panicOverflow();
        field[numFields++] = v;
    }

    /** @return field i with bounds checking. */
    int64_t
    fieldAt(int i) const
    {
        if (i < 0 || i >= numFields)
            panicFieldRange(i);
        return field[static_cast<size_t>(i)];
    }

    /** Append all of other's fields to this flit (join concatenation). */
    void mergeFields(const Flit &other);

    /** Render for diagnostics. */
    std::string str() const;

    bool operator==(const Flit &other) const = default;

  private:
    /** Cold paths of pushField()/fieldAt(). */
    [[noreturn]] static void panicOverflow();
    [[noreturn]] void panicFieldRange(int i) const;
};

/** Make a flit with a key and up to Flit::kMaxFields data fields. */
template <typename... Fields>
Flit
makeFlit(int64_t key, Fields... fields)
{
    Flit f{.key = key};
    (f.pushField(fields), ...);
    return f;
}

/**
 * Make an item-boundary marker flit. Boundary flits flow in-band between
 * data items: every module forwards them (possibly merging two aligned
 * boundaries into one) so per-item operations — per-read reductions,
 * item-aligned joins, row-structured memory writes — see row boundaries
 * without out-of-band signalling.
 */
inline Flit
makeBoundary()
{
    return Flit{.key = Flit::kBoundary, .lastOfItem = true};
}

/** @return true when the flit is an item-boundary marker. */
inline bool
isBoundary(const Flit &flit)
{
    return flit.key == Flit::kBoundary && flit.lastOfItem;
}

} // namespace genesis::sim

#endif // GENESIS_SIM_FLIT_H
