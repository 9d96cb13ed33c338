#include "modules/joiner.h"

#include "base/logging.h"

namespace genesis::modules {

using sim::Flit;

Joiner::Joiner(std::string name, sim::HardwareQueue *left,
               sim::HardwareQueue *right, sim::HardwareQueue *out,
               const JoinerConfig &config)
    : Module(std::move(name)), left_(left), right_(right), out_(out),
      config_(config)
{
    GENESIS_ASSERT(left_ && right_ && out_, "joiner wiring");
}

void
Joiner::emitLeftOnly(const Flit &flit)
{
    Flit merged = flit;
    for (int i = 0; i < config_.rightFields; ++i)
        merged.pushField(Flit::kNull);
    out_->push(merged);
    countFlit();
}

void
Joiner::emitRightOnly(const Flit &flit)
{
    Flit merged;
    merged.key = flit.key;
    for (int i = 0; i < config_.leftFields; ++i)
        merged.pushField(Flit::kNull);
    merged.mergeFields(flit);
    out_->push(merged);
    countFlit();
}

void
Joiner::tick()
{
    if (closed_)
        return;
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        sleepOn(stallBackpressure_, {&out_->waiters()});
        return;
    }

    const bool left_drained = left_->drained();
    const bool right_drained = right_->drained();
    const bool left_has = left_->canPop();
    const bool right_has = right_->canPop();
    const bool left_stopped = leftItemDone_ || left_drained;
    const bool right_stopped = rightItemDone_ || right_drained;

    // Item boundary: both sides finished the current item.
    if (left_stopped && right_stopped) {
        if (leftItemDone_ || rightItemDone_) {
            out_->push(sim::makeBoundary());
            leftItemDone_ = false;
            rightItemDone_ = false;
            traceBusy();
            return;
        }
        // Both drained with no boundary pending: stream complete.
        out_->close();
        closed_ = true;
        return;
    }

    // Consume boundaries, latching per-side item completion.
    if (!leftItemDone_ && left_has && sim::isBoundary(left_->front())) {
        left_->pop();
        leftItemDone_ = true;
        traceBusy();
        return;
    }
    if (!rightItemDone_ && right_has &&
        sim::isBoundary(right_->front())) {
        right_->pop();
        rightItemDone_ = true;
        traceBusy();
        return;
    }

    const bool left_data = left_has && !leftItemDone_ &&
        !sim::isBoundary(left_->front());
    const bool right_data = right_has && !rightItemDone_ &&
        !sim::isBoundary(right_->front());

    // One side finished its item: the other side's remaining flits are
    // unmatched by construction.
    if (left_stopped && right_data) {
        Flit flit = right_->pop();
        if (config_.mode == JoinMode::Outer) {
            emitRightOnly(flit);
        } else {
            ++*droppedRight_;
            traceBusy();
        }
        return;
    }
    if (right_stopped && left_data) {
        Flit flit = left_->pop();
        if (config_.mode == JoinMode::Inner) {
            ++*droppedLeft_;
            traceBusy();
        } else {
            emitLeftOnly(flit);
        }
        return;
    }

    if (!left_data || !right_data) {
        // Waiting for an upstream module to produce.
        countStall(stallStarved_);
        sleepOn(stallStarved_, {&left_->waiters(), &right_->waiters()});
        return;
    }

    const Flit &lhead = left_->front();
    const Flit &rhead = right_->front();

    // Inserted bases bypass the key comparison.
    if (lhead.key == Flit::kIns) {
        Flit flit = left_->pop();
        if (config_.mode == JoinMode::Inner) {
            ++*droppedLeft_;
            traceBusy();
        } else {
            emitLeftOnly(flit);
        }
        return;
    }

    if (lhead.key == rhead.key) {
        Flit merged = left_->pop();
        Flit right_flit = right_->pop();
        merged.mergeFields(right_flit);
        out_->push(merged);
        countFlit();
        return;
    }
    if (lhead.key < rhead.key) {
        Flit flit = left_->pop();
        if (config_.mode == JoinMode::Inner) {
            ++*droppedLeft_;
            traceBusy();
        } else {
            emitLeftOnly(flit);
        }
        return;
    }
    // rhead.key < lhead.key
    Flit flit = right_->pop();
    if (config_.mode == JoinMode::Outer) {
        emitRightOnly(flit);
    } else {
        ++*droppedRight_;
        traceBusy();
    }
}

bool
Joiner::done() const
{
    return closed_;
}

} // namespace genesis::modules
