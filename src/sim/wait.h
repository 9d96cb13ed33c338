/**
 * @file
 * Wake lists for the sleep/wake active-set scheduler.
 *
 * A WaitList is owned by a blocking resource (a HardwareQueue, a
 * MemoryPort, a Scratchpad hazard scoreboard, a Module's done latch) and
 * holds the modules that went to sleep waiting on it. When the resource
 * makes progress — a queue commits a staged operation, a port retires a
 * sub-request, a hazard address is released, a module latches done — it
 * calls wakeAll(), which re-activates
 * every registered sleeper (see Module::wake for the stall/trace
 * crediting that keeps sleeping bit-identical to spinning).
 *
 * Threading: a wait list is touched only by the thread running its
 * Simulator's run()/step().
 */

#ifndef GENESIS_SIM_WAIT_H
#define GENESIS_SIM_WAIT_H

#include <string>
#include <vector>

namespace genesis::sim {

class Module;

/** Sleeping modules to wake when the owning resource makes progress. */
class WaitList
{
  public:
    /**
     * Register a sleeper (deduplicated; a module left on the list by an
     * earlier wake through a sibling list is not added twice). Lists
     * stay tiny — a queue has one producer and one consumer, a port a
     * handful of memory modules — so the scan is a few pointer compares.
     */
    void add(Module *m);

    /** Wake every registered sleeper and clear the list. Waking an
     *  already-awake module (a stale entry) is a no-op. */
    void
    wakeAll()
    {
        if (!waiters_.empty())
            wakeWaiters();
    }

    bool empty() const { return waiters_.empty(); }

    /** Diagnostic name shown by dumpState() for sleeping modules. */
    void setName(std::string name) { name_ = std::move(name); }
    const std::string &name() const { return name_; }

  private:
    /** Defined in module.cpp, next to Module::wake(). */
    void wakeWaiters();

    std::vector<Module *> waiters_;
    std::string name_;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_WAIT_H
