#include "sim/scheduler.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "base/env.h"
#include "base/logging.h"

namespace genesis::sim {

Simulator::Simulator(const MemoryConfig &mem_config) : memory_(mem_config)
{
    memory_.attachProgress(&progress_);
    sleepEnabled_ = !envFlag("GENESIS_SIM_NO_SLEEP");
    fastForwardEnabled_ = !envFlag("GENESIS_SIM_NO_FASTFORWARD");
}

HardwareQueue *
Simulator::makeQueue(const std::string &name, size_t capacity)
{
    queues_.push_back(std::make_unique<HardwareQueue>(name, capacity));
    queues_.back()->attachSimulator(&progress_, &dirtyQueues_);
    if (trace_)
        queues_.back()->attachTrace(trace_, &cycle_, tracePid_);
    return queues_.back().get();
}

Scratchpad *
Simulator::makeScratchpad(const std::string &name, size_t size_words,
                          uint32_t word_bytes)
{
    scratchpads_.push_back(
        std::make_unique<Scratchpad>(name, size_words, word_bytes));
    if (trace_)
        scratchpads_.back()->attachTrace(trace_, &cycle_, tracePid_);
    return scratchpads_.back().get();
}

void
Simulator::attachTrace(TraceSink *sink, const std::string &label)
{
    trace_ = sink;
    tracePid_ = sink->beginProcess(label);
    for (auto &m : modules_)
        m->attachTrace(sink, &cycle_, tracePid_);
    for (auto &q : queues_)
        q->attachTrace(sink, &cycle_, tracePid_);
    for (auto &s : scratchpads_)
        s->attachTrace(sink, &cycle_, tracePid_);
    memory_.attachTrace(sink, tracePid_);
}

void
Simulator::step()
{
    // Tick the active set, dropping modules that went to sleep or
    // latched done in the same pass. Only a tick that moved the progress
    // counter can flip its module's done() (module.h); such modules are
    // checked after this cycle's commits — or at once when others wait
    // on them, so those resume when polling would have seen the flip.
    size_t out = 0;
    for (size_t i = 0; i < active_.size(); ++i) {
        Module *m = active_[i];
        tickPos_ = m->schedIndex();
        const size_t woken_before = woken_.size();
        const uint64_t before = progress_;
        m->tick();
        if (progress_ != before &&
            (m->doneWaiters().empty() || !maybeLatchDone(m))) {
            doneCandidates_.push_back(m);
        }
        // Sleepers woken into this tick phase (Module::wakesThisCycle)
        // join the rest of this cycle's ticks.
        for (size_t k = woken_before; k < woken_.size();) {
            Module *w = woken_[k];
            if (w->schedActive() || !w->wakesThisCycle()) {
                ++k;
                continue;
            }
            admit(w, i + 1);
            doneCandidates_.push_back(w);
            woken_[k] = woken_.back();
            woken_.pop_back();
        }
        if (m->asleep() || m->schedDone())
            m->setSchedActive(false);
        else
            active_[out++] = m;
    }
    active_.resize(out);
    tickPos_ = SIZE_MAX;
    // Commit only queues that staged work this cycle; the rest are
    // untouched by construction. Commits (like memory retirements and
    // hazard releases) fire WaitLists, appending sleepers to woken_.
    for (auto *q : dirtyQueues_)
        q->commit();
    dirtyQueues_.clear();
    memory_.tick();
    updateActiveSet();
    ++cycle_;
}

void
Simulator::admit(Module *m, size_t from)
{
    // Tick (= insertion) order: modules may legally read shared state
    // written by earlier-ticked modules (SPM words, done() of upstream
    // stages), so relative order must match a tick-everything run.
    active_.insert(std::lower_bound(active_.begin() +
                                        static_cast<ptrdiff_t>(from),
                                    active_.end(), m,
                                    [](const Module *a, const Module *b) {
                                        return a->schedIndex() <
                                            b->schedIndex();
                                    }),
                   m);
    m->setSchedActive(true);
}

void
Simulator::updateActiveSet()
{
    bool latched = false;
    for (Module *m : doneCandidates_)
        latched |= maybeLatchDone(m);
    doneCandidates_.clear();
    // Re-admit woken sleepers unless they latched done or are still
    // active (same-cycle sleep/wake, or a wait set declared under
    // GENESIS_SIM_NO_SLEEP). Index loop: a latch fires done waiters,
    // which append to woken_.
    for (size_t k = 0; k < woken_.size(); ++k) {
        Module *m = woken_[k];
        latched |= maybeLatchDone(m);
        if (!m->schedDone() && !m->schedActive())
            admit(m, 0);
    }
    woken_.clear();
    if (latched) {
        // At most once per module per run: retire the freshly done.
        std::erase_if(active_, [](Module *m) {
            if (m->schedDone())
                m->setSchedActive(false);
            return m->schedDone();
        });
    }
}

void
Simulator::snapshotStats()
{
    statSnapshots_.clear();
    statSnapshots_.reserve(modules_.size() + scratchpads_.size());
    for (const auto &m : modules_)
        statSnapshots_.push_back(m->stats());
    for (const auto &s : scratchpads_)
        statSnapshots_.push_back(s->stats());
}

void
Simulator::creditSkippedCycles(uint64_t times)
{
    size_t i = 0;
    for (auto &m : modules_)
        m->stats().creditDelta(statSnapshots_[i++], times);
    for (auto &s : scratchpads_)
        s->stats().creditDelta(statSnapshots_[i++], times);
}

uint64_t
Simulator::run(uint64_t max_cycles)
{
    finished_.store(false, std::memory_order_relaxed);
    // Deadlock horizon: generously above the worst legitimate quiet
    // period (memory latency plus arbitration backlog).
    const uint64_t deadlock_horizon =
        10'000 + 100ull * memory_.config().latencyCycles;

    uint64_t last_progress = progress_;
    uint64_t quiet_cycles = 0;
    // @return true when the cycle just stepped made progress; panics once
    // the design has been quiet for longer than the horizon.
    auto progressed = [&] {
        if (progress_ != last_progress) {
            last_progress = progress_;
            quiet_cycles = 0;
            return true;
        }
        if (++quiet_cycles > deadlock_horizon) {
            panic("deadlock: no progress for %llu cycles\n%s",
                  static_cast<unsigned long long>(quiet_cycles),
                  dumpState().c_str());
        }
        return false;
    };
    while (!allDone()) {
        if (cycle_ >= max_cycles) {
            panic("simulation exceeded %llu cycles\n%s",
                  static_cast<unsigned long long>(max_cycles),
                  dumpState().c_str());
        }
        step();
        // Provable deadlock: every live module is asleep and the memory
        // system has no pending event, so no wake can ever fire. Report
        // immediately instead of waiting out the quiet horizon. (Under
        // GENESIS_SIM_NO_SLEEP modules never sleep, so a wedged design
        // falls through to the horizon path below.)
        if (active_.empty() && !allDone() &&
            memory_.nextEventCycle() == MemorySystem::kNoEvent) {
            panic("deadlock: no module can ever wake (all asleep, no "
                  "pending memory event)\n%s",
                  dumpState().c_str());
        }
        if (progressed() || !fastForwardEnabled_)
            continue;

        // The cycle was idle: nothing staged, issued, scheduled,
        // retired, or self-reported progress, so every module is purely
        // stalled and each following cycle is an identical no-op until
        // the memory system's next event. Skip the span in one jump.
        uint64_t next_event = memory_.nextEventCycle();
        if (next_event == MemorySystem::kNoEvent)
            continue; // frozen design: let the deadlock horizon fire
        if (next_event < cycle_ + 3 || cycle_ + 1 >= max_cycles)
            continue; // nothing worth batching before the event
        // Execute one more (provably idle) cycle normally to sample the
        // exact per-cycle stat deltas of every module's stall buckets.
        // Progress here means a module changed state silently, against
        // the noteProgress() contract: fall back to cycle-by-cycle.
        snapshotStats();
        step();
        if (progressed())
            continue;
        // Skip to the cycle just before the event, clamped so the
        // runaway and deadlock panics still fire at the exact same
        // cycle as a cycle-by-cycle run.
        uint64_t skip = next_event - cycle_ - 1;
        skip = std::min(skip, max_cycles - cycle_);
        skip = std::min(skip, deadlock_horizon + 1 - quiet_cycles);
        if (skip == 0)
            continue;
        creditSkippedCycles(skip);
        // The sampled cycle's trace spans repeat verbatim across the
        // skipped range: grow them in bulk (cycle_ here is one past the
        // sampled cycle, i.e. the open spans' exclusive end).
        if (trace_)
            trace_->creditSkipped(cycle_, skip);
        cycle_ += skip;
        // The memory system credits its own quiet-span accrual
        // (busy/idle channels, bank conflicts) for the same span.
        memory_.tickQuiet(skip);
        quiet_cycles += skip - 1;
        progressed(); // the quiet span: count its last cycle, check horizon
    }
    // Publish completion for cross-thread pollers (release pairs with
    // the acquire in finished()).
    finished_.store(true, std::memory_order_release);
    return cycle_;
}

StatRegistry
Simulator::collectStats() const
{
    StatRegistry all;
    all.set("cycles", cycle_);
    // Interned handles pre-create counters at zero; skip those so the
    // aggregate matches what lazily created counters would produce.
    for (const auto &m : modules_) {
        for (const auto &[name, value] : m->stats().counters()) {
            if (value)
                all.add(m->name() + "." + name, value);
        }
    }
    for (const auto &q : queues_) {
        all.set("queue." + q->name() + ".flits", q->totalFlits());
        all.set("queue." + q->name() + ".max_occupancy",
                q->maxOccupancy());
    }
    for (const auto &[name, value] : memory_.stats().counters()) {
        if (value)
            all.add("mem." + name, value);
    }
    for (const auto &s : scratchpads_) {
        for (const auto &[name, value] : s->stats().counters()) {
            if (value)
                all.add("spm." + s->name() + "." + name, value);
        }
    }
    return all;
}

std::string
Simulator::dumpState() const
{
    // A wedged design must still have coherent accounting: every channel
    // accrues exactly one of busy/idle per cycle, ticked or skipped.
    memory_.assertStatInvariant();
    std::ostringstream os;
    os << "cycle " << cycle_ << "\n";
    for (const auto &m : modules_) {
        os << "  module " << m->name()
           << (m->done() ? " done" : m->asleep() ? " ASLEEP" : " BUSY");
        if (m->done() && !m->schedDone()) {
            // A done contract violation (sim/module.h) wedges the run.
            os << " (never latched: done() flipped without progress or "
                  "a wait-list event)";
        }
        if (m->asleep())
            os << "  awaiting [" << m->sleepDescription() << "]";
        // Name the blocked resource: top stall-reason buckets.
        std::vector<std::pair<std::string, uint64_t>> stalls;
        for (const auto &[name, value] : m->stats().counters()) {
            if (value && name.rfind("stall.", 0) == 0)
                stalls.emplace_back(name.substr(6), value);
        }
        std::sort(stalls.begin(), stalls.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        if (!stalls.empty()) {
            os << "  stalls:";
            size_t shown = 0;
            for (const auto &[reason, count] : stalls) {
                if (shown++ == 3)
                    break;
                os << " " << reason << "=" << count;
            }
        }
        os << "\n";
    }
    for (const auto &q : queues_) {
        os << "  queue " << q->name() << " size=" << q->size()
           << (q->closed() ? " closed" : " open") << "\n";
    }
    for (size_t i = 0; i < memory_.numPorts(); ++i) {
        const MemoryPort &p = memory_.port(i);
        if (p.outstanding() == 0)
            continue;
        os << "  mem port " << p.id() << " (group " << p.group()
           << "): " << p.outstanding() << " outstanding\n";
    }
    return os.str();
}

} // namespace genesis::sim
