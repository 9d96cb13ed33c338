/**
 * @file
 * Filter module (Section III-C, Figure 6).
 *
 * Checks each flit against a comparison condition between two operands
 * (fields, the key, or a constant). In drop mode only matching flits pass
 * (boundary flits always pass). In mask mode every flit passes with an
 * extra 0/1 mask field appended — the form consumed by masked Reducers
 * and chained SPM updaters when item boundaries must be preserved.
 *
 * Null/Ins/Del sentinels participate in equality exactly like distinct
 * values: a deleted or padded operand never equals a real base, so the
 * "read bp != ref bp" mismatch filter naturally counts insertions and
 * deletions, as the Metadata Update stage requires (Section IV-C).
 */

#ifndef GENESIS_MODULES_FILTER_H
#define GENESIS_MODULES_FILTER_H

#include "sim/module.h"

namespace genesis::modules {

/** Comparison operator. */
enum class CompareOp { Eq, Ne, Lt, Le, Gt, Ge };

/** One operand of a filter condition. */
struct FilterOperand {
    enum class Kind { Key, Field, Const };
    Kind kind = Kind::Field;
    int fieldIndex = 0;
    int64_t constant = 0;

    static FilterOperand key();
    static FilterOperand field(int index);
    static FilterOperand constant_(int64_t value);
};

/** Configuration for a Filter. */
struct FilterConfig {
    FilterOperand lhs;
    CompareOp op = CompareOp::Eq;
    FilterOperand rhs;
    /** Mask mode: pass everything, append a 0/1 match field. */
    bool maskMode = false;
};

/** The Filter module. */
class Filter : public sim::Module
{
  public:
    Filter(std::string name, sim::HardwareQueue *in,
           sim::HardwareQueue *out, const FilterConfig &config);

    void tick() override;
    bool done() const override;

    /** Evaluate the condition against a flit (exposed for tests). */
    bool matches(const sim::Flit &flit) const;

  private:
    /** Interned stall-reason counters (see Module). */
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    /** Flits the condition rejected (filter mode only). */
    StatHandle dropped_ = statCounter("dropped");

    int64_t operandValue(const FilterOperand &operand,
                         const sim::Flit &flit) const;

    sim::HardwareQueue *in_;
    sim::HardwareQueue *out_;
    FilterConfig config_;
    bool closed_ = false;
};

} // namespace genesis::modules

#endif // GENESIS_MODULES_FILTER_H
