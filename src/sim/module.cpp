#include "sim/module.h"

#include <algorithm>

namespace genesis::sim {

void
WaitList::add(Module *m)
{
    if (std::find(waiters_.begin(), waiters_.end(), m) == waiters_.end())
        waiters_.push_back(m);
}

void
WaitList::wakeWaiters()
{
    for (Module *m : waiters_)
        m->wake();
    waiters_.clear();
}

void
Module::wake()
{
    if (sleepLists_.empty())
        return; // awake, and no wait set declared: a stale list entry
    // Credit the slept span: a spinning module would have re-counted the
    // declared stall (and re-marked its trace span) on every cycle from
    // the sleep cycle exclusive through the wake cycle inclusive — or
    // through the previous cycle when it resumes within this one.
    uint64_t slept = *schedCycle_ - sleepCycle_ - (wakesThisCycle() ? 1 : 0);
    if (asleep_ && slept && sleepStall_) {
        *sleepStall_ += slept;
        if (trace_)
            trace_->creditSleep(traceTrack_, sleepCycle_ + 1, slept);
    }
    asleep_ = false;
    sleepLists_.clear();
    wakeQueue_->push_back(this);
}

std::string
Module::sleepDescription() const
{
    std::string desc;
    for (const WaitList *list : sleepLists_) {
        if (!desc.empty())
            desc += ", ";
        desc += list->name();
    }
    return desc;
}

void
Module::attachTrace(TraceSink *sink, const uint64_t *cycle, int pid)
{
    trace_ = sink;
    traceCycle_ = cycle;
    traceTrack_ = sink->addSpanTrack(pid, name_);
    stallStates_.clear();
}

void
Module::traceStall(StatHandle stall)
{
    for (const auto &[handle, state] : stallStates_) {
        if (handle == stall) {
            trace_->mark(traceTrack_, *traceCycle_, state);
            return;
        }
    }
    // First stall through this handle since tracing attached: recover the
    // counter's name from the registry and intern it as a trace state.
    std::string name = "stall";
    for (const auto &[counter_name, value] : stats_.counters()) {
        if (&value == stall) {
            name = counter_name;
            break;
        }
    }
    TraceSink::StateId state = trace_->internState(name);
    stallStates_.emplace_back(stall, state);
    trace_->mark(traceTrack_, *traceCycle_, state);
}

} // namespace genesis::sim
