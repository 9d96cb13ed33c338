/**
 * @file
 * Bounded hardware queue connecting two dataflow modules.
 *
 * Two-phase semantics make the simulation deterministic regardless of
 * module tick order: pushes, pops and closes performed during a cycle are
 * staged and only become visible after commit() — exactly like a queue
 * with registered occupancy in RTL. Throughput is one push and one pop
 * per cycle. Storage is a fixed ring; per-cycle operations are inline.
 */

#ifndef GENESIS_SIM_QUEUE_H
#define GENESIS_SIM_QUEUE_H

#include <algorithm>
#include <string>
#include <vector>

#include "base/trace.h"
#include "sim/flit.h"
#include "sim/wait.h"

namespace genesis::sim {

/** A single-producer single-consumer bounded flit queue. */
class HardwareQueue
{
  public:
    /** Default queue depth used throughout the hardware library. */
    static constexpr size_t kDefaultCapacity = 8;

    explicit HardwareQueue(std::string name,
                           size_t capacity = kDefaultCapacity);

    const std::string &name() const { return name_; }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** @return true when the producer may push this cycle. Registered
     *  backpressure: a same-cycle pop frees no slot until commit. */
    bool canPush() const { return !stagedPush_ && count_ < ring_.size(); }

    /** Stage a push; at most one per cycle. */
    void
    push(const Flit &flit)
    {
        if (!canPush())
            panicOp("push to full queue");
        if (closed_ || stagedClose_)
            panicOp("push to closed queue");
        // Staged in place: the free tail slot stays invisible until
        // commit() counts it.
        size_t tail = head_ + count_;
        ring_[tail < ring_.size() ? tail : tail - ring_.size()] = flit;
        stagedPush_ = true;
        stage();
    }

    /** @return true when a committed flit is available this cycle. */
    bool canPop() const { return !stagedPop_ && count_ != 0; }

    /** @return the flit visible at the head this cycle. */
    const Flit &
    front() const
    {
        if (count_ == 0)
            panicOp("front of empty queue");
        return ring_[head_];
    }

    /** Stage a pop of the head flit; at most one per cycle. */
    Flit
    pop()
    {
        if (!canPop())
            panicOp("pop from empty queue");
        stagedPop_ = true;
        stage();
        return ring_[head_];
    }

    /** Producer marks the stream complete (staged like a push). */
    void
    close()
    {
        if (closed_ || stagedClose_)
            panicOp("double close of queue");
        stagedClose_ = true;
        stage();
    }

    /** @return true when the producer has committed a close. */
    bool closed() const { return closed_; }

    /**
     * @return true when the stream is finished: no committed flits left,
     * no staged flit in flight, and the producer closed the queue.
     */
    bool drained() const { return count_ == 0 && !stagedPush_ && closed_; }

    /** Make this cycle's staged operations visible. */
    void
    commit()
    {
        if (!dirty_)
            return;
        dirty_ = false;
        if (stagedPop_) {
            head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
            --count_;
            stagedPop_ = false;
        }
        if (stagedPush_) {
            ++count_;
            ++totalFlits_;
            stagedPush_ = false;
        }
        if (stagedClose_) {
            closed_ = true;
            stagedClose_ = false;
        }
        maxOccupancy_ = std::max(maxOccupancy_, count_);
        if (trace_)
            trace_->counter(traceTrack_, *traceCycle_, count_);
        waiters_.wakeAll();
    }

    /**
     * Wire this queue into its owning Simulator: every staged operation
     * bumps *progress (the simulator's progress counter), and the first
     * one each cycle registers the queue on *dirty_list so the simulator
     * commits only active queues. Standalone queues work unattached.
     */
    void
    attachSimulator(uint64_t *progress,
                    std::vector<HardwareQueue *> *dirty_list)
    {
        progress_ = progress;
        dirtyList_ = dirty_list;
    }

    /**
     * Record this queue's occupancy as a counter track under process
     * `pid` in `sink`, sampled on every committed operation (`cycle` is
     * the owning simulator's clock). One inlined null check when unused.
     */
    void
    attachTrace(TraceSink *sink, const uint64_t *cycle, int pid)
    {
        trace_ = sink;
        traceCycle_ = cycle;
        traceTrack_ = sink->addCounterTrack(pid, "queue." + name_);
    }

    // --- statistics ---
    uint64_t totalFlits() const { return totalFlits_; }
    size_t maxOccupancy() const { return maxOccupancy_; }

    /**
     * Sleepers blocked on this queue. Any committed operation fires the
     * list: a push can unblock the consumer, a pop the producer, a close
     * the consumer's drain path. Modules whose blocked tick waits for
     * this queue to become non-empty-or-closed (consumer) or non-full
     * (producer) pass this to sleepOn().
     */
    WaitList &waiters() { return waiters_; }

  private:
    /** Count a staged operation as progress; go on the dirty list. */
    void
    stage()
    {
        ++*progress_;
        if (!dirty_) {
            dirty_ = true;
            if (dirtyList_)
                dirtyList_->push_back(this);
        }
    }

    /** Cold path: panic with `what` and this queue's name. */
    [[noreturn]] void panicOp(const char *what) const;

    std::string name_;
    /** Fixed-capacity ring: count_ committed flits from head_. */
    std::vector<Flit> ring_;
    size_t head_ = 0;
    size_t count_ = 0;

    bool stagedPush_ = false;
    bool stagedPop_ = false;
    bool stagedClose_ = false;
    bool closed_ = false;
    bool dirty_ = false;

    /** Fallback target so standalone queues work without a Simulator. */
    uint64_t localProgress_ = 0;
    uint64_t *progress_ = &localProgress_;
    std::vector<HardwareQueue *> *dirtyList_ = nullptr;

    uint64_t totalFlits_ = 0;
    size_t maxOccupancy_ = 0;

    /** Sleeping modules woken by any committed operation. */
    WaitList waiters_;

    /** Tracing attachment (null = disabled; see attachTrace). */
    TraceSink *trace_ = nullptr;
    const uint64_t *traceCycle_ = nullptr;
    int traceTrack_ = -1;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_QUEUE_H
