#include "modules/filter.h"

#include "base/logging.h"

namespace genesis::modules {

using sim::Flit;

FilterOperand
FilterOperand::key()
{
    FilterOperand op;
    op.kind = Kind::Key;
    return op;
}

FilterOperand
FilterOperand::field(int index)
{
    FilterOperand op;
    op.kind = Kind::Field;
    op.fieldIndex = index;
    return op;
}

FilterOperand
FilterOperand::constant_(int64_t value)
{
    FilterOperand op;
    op.kind = Kind::Const;
    op.constant = value;
    return op;
}

Filter::Filter(std::string name, sim::HardwareQueue *in,
               sim::HardwareQueue *out, const FilterConfig &config)
    : Module(std::move(name)), in_(in), out_(out), config_(config)
{
    GENESIS_ASSERT(in_ && out_, "filter wiring");
}

int64_t
Filter::operandValue(const FilterOperand &operand, const Flit &flit) const
{
    switch (operand.kind) {
      case FilterOperand::Kind::Key: return flit.key;
      case FilterOperand::Kind::Field:
        return flit.fieldAt(operand.fieldIndex);
      case FilterOperand::Kind::Const: return operand.constant;
    }
    panic("invalid filter operand kind");
}

bool
Filter::matches(const Flit &flit) const
{
    int64_t a = operandValue(config_.lhs, flit);
    int64_t b = operandValue(config_.rhs, flit);
    switch (config_.op) {
      case CompareOp::Eq: return a == b;
      case CompareOp::Ne: return a != b;
      case CompareOp::Lt: return a < b;
      case CompareOp::Le: return a <= b;
      case CompareOp::Gt: return a > b;
      case CompareOp::Ge: return a >= b;
    }
    panic("invalid compare op");
}

void
Filter::tick()
{
    if (closed_)
        return;
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        sleepOn(stallBackpressure_, {&out_->waiters()});
        return;
    }
    if (!in_->canPop()) {
        if (in_->drained()) {
            out_->close();
            closed_ = true;
        } else {
            sleepOn(nullptr, {&in_->waiters()});
        }
        return;
    }
    const Flit &head = in_->front();
    if (sim::isBoundary(head)) {
        in_->pop();
        out_->push(sim::makeBoundary());
        traceBusy();
        return;
    }
    Flit flit = in_->pop();
    bool match = matches(flit);
    countFlit();
    if (config_.maskMode) {
        flit.pushField(match ? 1 : 0);
        out_->push(flit);
    } else if (match) {
        out_->push(flit);
    } else {
        ++*dropped_;
    }
}

bool
Filter::done() const
{
    return closed_;
}

} // namespace genesis::modules
