#include "sim/memory.h"

#include <algorithm>
#include <functional>

#include "base/logging.h"

namespace genesis::sim {

uint32_t
MemoryPort::checkedAccessGranularity(const char *who) const
{
    uint32_t gran = owner_->config().accessGranularity;
    if (gran == 0 || (gran & (gran - 1)))
        fatal("%s: access granularity %u is not a non-zero power of two",
              who, gran);
    return gran;
}

void
MemoryPort::enqueueSlice(uint64_t addr, uint32_t bytes, bool is_write)
{
    MemorySystem::DramLoc loc = owner_->locate(addr);

    // MSHR-style coalescing: a slice that directly extends the youngest
    // still-unscheduled sub-request (same direction, same channel, same
    // bank and row, contiguous address) joins its burst instead of
    // paying a second access. Typical case: the tail slice of one
    // unaligned streaming request and the head slice of the next fall
    // into the same interleave granule.
    //
    // The MSHR closes a burst entry once it reaches the head of the
    // schedule queue in a cycle after its issue: only deque heads are
    // ever considered by arbitration, so a same-cycle tail or a
    // non-head tail provably cannot have been granted yet, while an
    // aged head may be granted at any tick. Deciding on (position, age)
    // instead of peeking `scheduled` makes the decision a function of
    // port-local state alone.
    if (!pending_.empty()) {
        SubRequest &tail = pending_.back();
        bool burst_open = !tail.scheduled &&
            (pending_.size() >= 2 || tail.issueCycle == owner_->cycle_);
        if (burst_open && tail.isWrite == is_write &&
            tail.channel == loc.channel && tail.bank == loc.bank &&
            tail.row == loc.row && tail.addr + tail.bytes == addr &&
            tail.bytes + bytes <= owner_->config().maxBurstBytes) {
            tail.bytes += bytes;
            ++*owner_->coalesced_;
            if (trace_) {
                trace_->asyncInstant(traceTrack_, tail.traceId,
                                     *traceCycle_, stateCoalesce_,
                                     traceArgs("bytes", tail.bytes));
            }
            return;
        }
    }

    SubRequest req{.addr = addr, .bytes = bytes, .isWrite = is_write,
                   .channel = loc.channel, .bank = loc.bank,
                   .row = loc.row, .issueCycle = owner_->cycle_};
    if (trace_) {
        req.traceId = trace_->newAsyncId();
        trace_->asyncBegin(traceTrack_, req.traceId, *traceCycle_,
                           is_write ? stateWrite_ : stateRead_,
                           traceArgs("addr", addr, "bytes", bytes,
                                     "channel",
                                     static_cast<uint64_t>(loc.channel)));
    }
    pending_.push_back(req);
    if (pending_.size() == 1)
        owner_->listHead(*this);
    ++*owner_->subRequests_;
    ++owner_->pendingSubRequests_;
}

void
MemoryPort::issue(uint64_t addr, uint32_t bytes, bool is_write)
{
    if (!canIssue())
        panic("memory port %d: issue to full queue", id_);
    if (bytes == 0)
        panic("memory port %d: zero-byte request", id_);

    // Split at interleave-granularity boundaries so every slice lands on
    // the channel its own address maps to; the old model timed a whole
    // request on the channel of its first byte.
    const uint64_t gran = owner_->config().accessGranularity;
    uint64_t cur = addr;
    const uint64_t end = addr + bytes;
    while (cur < end) {
        uint64_t granule_end = (cur | (gran - 1)) + 1; // gran: 2^k
        uint32_t slice =
            static_cast<uint32_t>(std::min(end, granule_end) - cur);
        enqueueSlice(cur, slice, is_write);
        cur += slice;
    }
    owner_->quiet_.valid = false;
    ++*owner_->requests_;
    if (progress_)
        ++*progress_;
}

std::vector<std::string>
validate(const MemoryConfig &config)
{
    std::vector<std::string> errors;
    if (config.numChannels < 1) {
        errors.push_back(strfmt("numChannels: need at least one channel "
                                "(got %d)", config.numChannels));
    }
    if (config.bytesPerCyclePerChannel == 0) {
        errors.push_back("bytesPerCyclePerChannel: channel bandwidth "
                         "must be non-zero");
    }
    if (config.accessGranularity == 0 ||
        (config.accessGranularity & (config.accessGranularity - 1))) {
        errors.push_back(strfmt("accessGranularity: %u is not a non-zero "
                                "power of two", config.accessGranularity));
    }
    if (config.banksPerChannel < 1) {
        errors.push_back(strfmt("banksPerChannel: need at least one bank "
                                "per channel (got %d)",
                                config.banksPerChannel));
    }
    // Row/burst constraints are relative to the granularity; only check
    // them when the granularity itself is sane to avoid noise.
    if (config.accessGranularity != 0 &&
        !(config.accessGranularity & (config.accessGranularity - 1))) {
        if (config.rowBytes < config.accessGranularity ||
            config.rowBytes % config.accessGranularity) {
            errors.push_back(strfmt(
                "rowBytes: row size %u must be a non-zero multiple of "
                "the %u B granularity", config.rowBytes,
                config.accessGranularity));
        }
        if (config.maxBurstBytes < config.accessGranularity) {
            errors.push_back(strfmt(
                "maxBurstBytes: max burst %u below the %u B access "
                "granularity", config.maxBurstBytes,
                config.accessGranularity));
        }
    }
    if (config.portQueueDepth == 0) {
        errors.push_back("portQueueDepth: a zero-depth port queue can "
                         "never issue (provable deadlock)");
    }
    return errors;
}

MemorySystem::MemorySystem(const MemoryConfig &config) : config_(config)
{
    std::vector<std::string> errors = validate(config_);
    if (!errors.empty()) {
        std::string joined;
        for (const auto &e : errors)
            joined += (joined.empty() ? "" : "; ") + e;
        fatal("invalid MemoryConfig: %s", joined.c_str());
    }
    if (config_.rowHitLatencyCycles == 0)
        config_.rowHitLatencyCycles = config_.latencyCycles / 2;
    granDiv_ = Divisor(config_.accessGranularity);
    channelDiv_ = Divisor(static_cast<uint64_t>(config_.numChannels));
    rowDiv_ = Divisor(config_.rowBytes);
    bankDiv_ = Divisor(static_cast<uint64_t>(config_.banksPerChannel));

    heads_.resize(static_cast<size_t>(config_.numChannels));
    channelBusyUntil_.assign(static_cast<size_t>(config_.numChannels), 0);
    banks_.assign(static_cast<size_t>(config_.numChannels) *
                      static_cast<size_t>(config_.banksPerChannel),
                  Bank());
    globalArbiters_.assign(static_cast<size_t>(config_.numChannels),
                           RoundRobinArbiter());
    channelBytes_.reserve(static_cast<size_t>(config_.numChannels));
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        channelBytes_.push_back(
            stats_.counter("ch" + std::to_string(ch) + "_bytes"));
    }
}

MemorySystem::DramLoc
MemorySystem::locate(uint64_t addr) const
{
    // Granules interleave round-robin over channels; the channel-local
    // address (granule index within the channel, plus the offset inside
    // the granule) then maps to a row, and consecutive rows interleave
    // over the channel's banks.
    uint64_t granule = granDiv_.div(addr);
    uint64_t local =
        channelDiv_.div(granule) * granDiv_.d + granDiv_.mod(addr);
    uint64_t row = rowDiv_.div(local);
    DramLoc loc;
    loc.channel = static_cast<int>(channelDiv_.mod(granule));
    loc.bank = static_cast<int>(bankDiv_.mod(row));
    loc.row = row;
    return loc;
}

void
MemorySystem::attachProgress(uint64_t *counter)
{
    progress_ = counter;
    for (auto &port : ports_)
        port->progress_ = counter;
}

void
MemorySystem::attachPortTrace(MemoryPort &port)
{
    port.trace_ = trace_;
    port.traceCycle_ = &cycle_;
    port.traceTrack_ = trace_->addAsyncTrack(
        tracePid_, "mem.port" + std::to_string(port.id_));
    port.stateRead_ = trace_->internState("read");
    port.stateWrite_ = trace_->internState("write");
    port.stateCoalesce_ = trace_->internState("coalesce");
}

void
MemorySystem::attachTrace(TraceSink *sink, int pid)
{
    trace_ = sink;
    tracePid_ = pid;
    stateSchedule_ = sink->internState("schedule");
    channelTracks_.clear();
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        channelTracks_.push_back(
            sink->addSpanTrack(pid, "mem.ch" + std::to_string(ch)));
    }
    for (auto &port : ports_)
        attachPortTrace(*port);
}

MemoryPort *
MemorySystem::makePort(int local_group)
{
    if (local_group < 0)
        fatal("negative local arbiter group");
    int id = static_cast<int>(ports_.size());
    const size_t group = static_cast<size_t>(local_group);
    if (localArbiters_.size() <= group) {
        localArbiters_.resize(group + 1);
        groupGrantCycle_.resize(group + 1, 0);
        for (auto &arb : globalArbiters_)
            arb.resize(group + 1);
    }
    RoundRobinArbiter &local = localArbiters_[group];
    auto port = std::unique_ptr<MemoryPort>(
        new MemoryPort(id, local_group, local.size(), this));
    local.resize(local.size() + 1);
    port->queueDepth_ = config_.portQueueDepth;
    port->progress_ = progress_;
    port->retireWaiters_.setName("mem.port" + std::to_string(id) +
                                 " retire");
    if (trace_)
        attachPortTrace(*port);
    ports_.push_back(std::move(port));
    return ports_.back().get();
}

void
MemorySystem::listHead(MemoryPort &port)
{
    auto &list = heads_[static_cast<size_t>(port.pending_.front().channel)];
    port.headSlot_ = list.size();
    list.push_back(&port);
}

void
MemorySystem::unlistHead(MemoryPort &port)
{
    auto &list = heads_[static_cast<size_t>(port.pending_.front().channel)];
    MemoryPort *last = list.back();
    list[port.headSlot_] = last;
    last->headSlot_ = port.headSlot_;
    list.pop_back();
}

void
MemorySystem::tick()
{
    ++cycle_;
    quiet_.valid = false;
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        // A busy data bus is still transferring a prior request; a free
        // one with no waiting head has nothing to arbitrate.
        if (channelBusyUntil_[static_cast<size_t>(ch)] <= cycle_ &&
            !heads_[static_cast<size_t>(ch)].empty()) {
            arbitrate(ch);
        }
        // Exactly one of busy/idle accrues per channel per cycle, so
        // channel_busy_cycles + channel_idle_cycles == numChannels x
        // cycles holds at every tick boundary (assertStatInvariant). A
        // channel that scheduled this cycle counts as busy from this
        // cycle on.
        if (channelBusyUntil_[static_cast<size_t>(ch)] > cycle_)
            ++*channelBusyCycles_;
        else
            ++*channelIdleCycles_;
    }

    // Retire completions: only heads are scheduled, so each port retires
    // at most one sub-request per tick, in port order on ties.
    while (!retireHeap_.empty() && retireHeap_.front().first <= cycle_) {
        std::pop_heap(retireHeap_.begin(), retireHeap_.end(),
                      std::greater<>());
        MemoryPort &port = *ports_[static_cast<size_t>(
            retireHeap_.back().second)];
        retireHeap_.pop_back();
        const auto &head = port.pending_.front();
        GENESIS_ASSERT(head.scheduled && head.completeCycle == cycle_,
                       "memory port %d retires a head not due this cycle",
                       port.id_);
        if (head.isWrite)
            port.retiredWriteBytes_ += head.bytes;
        else
            port.completedReadBytes_ += head.bytes;
        if (trace_) {
            trace_->asyncEnd(port.traceTrack_, head.traceId, cycle_,
                             head.isWrite ? port.stateWrite_
                                          : port.stateRead_);
        }
        port.pending_.pop_front();
        --pendingSubRequests_;
        ++*progress_; // retiring is architectural progress
        if (!port.pending_.empty())
            listHead(port); // the next slice is never scheduled yet
        port.retireWaiters_.wakeAll();
    }
}

void
MemorySystem::arbitrate(int ch)
{
    // Each local arbiter forwards at most one sub-request per cycle; the
    // channel's global arbiter accepts one. A head is eligible when it
    // is visible (see SubRequest::issueCycle), its bank has finished its
    // previous access phase, and its group has not won a channel this
    // cycle. The global arbiter grants the eligible group it would scan
    // first, whose local arbiter then grants its first eligible port:
    // the lowest (group rank, slot rank) pair among eligible heads.
    RoundRobinArbiter &global = globalArbiters_[static_cast<size_t>(ch)];
    MemoryPort *winner = nullptr;
    size_t best_group = 0, best_slot = 0;
    bool bank_conflict = false;
    for (MemoryPort *p : heads_[static_cast<size_t>(ch)]) {
        const auto &head = p->pending_.front();
        const size_t group = static_cast<size_t>(p->group_);
        if (head.issueCycle >= cycle_)
            continue;
        if (banks_[bankIndex(ch, head.bank)].busyUntil > cycle_) {
            bank_conflict = true;
            continue;
        }
        if (groupGrantCycle_[group] == cycle_)
            continue;
        size_t group_rank = global.rank(group);
        size_t slot_rank = localArbiters_[group].rank(p->slot_);
        if (!winner || group_rank < best_group ||
            (group_rank == best_group && slot_rank < best_slot)) {
            winner = p;
            best_group = group_rank;
            best_slot = slot_rank;
        }
    }
    if (!winner) {
        // Free bus with nothing schedulable: if a head was turned away
        // solely because its bank is mid-access, record the bank
        // conflict (at most once per channel per cycle).
        if (bank_conflict)
            ++*bankConflictCycles_;
        return;
    }
    const size_t group = static_cast<size_t>(winner->group_);
    global.grantTo(group);
    localArbiters_[group].grantTo(winner->slot_);
    groupGrantCycle_[group] = cycle_;
    unlistHead(*winner);

    auto &req = winner->pending_.front();
    Bank &bank = banks_[bankIndex(ch, req.bank)];
    bool row_hit = bank.openRow == req.row;
    uint64_t access_latency = row_hit
        ? config_.rowHitLatencyCycles : config_.latencyCycles;
    uint64_t transfer_cycles =
        (req.bytes + config_.bytesPerCyclePerChannel - 1) /
        config_.bytesPerCyclePerChannel;
    req.scheduled = true;
    req.completeCycle = cycle_ + access_latency + transfer_cycles;
    retireHeap_.emplace_back(req.completeCycle, winner->id_);
    std::push_heap(retireHeap_.begin(), retireHeap_.end(),
                   std::greater<>());
    channelBusyUntil_[static_cast<size_t>(ch)] = cycle_ + transfer_cycles;
    bank.openRow = req.row;
    bank.busyUntil = cycle_ + access_latency;

    ++*(row_hit ? rowHits_ : rowMisses_);
    *(req.isWrite ? writeBytes_ : readBytes_) += req.bytes;
    *channelBytes_[static_cast<size_t>(ch)] += req.bytes;
    ++*progress_; // scheduling is architectural progress
    if (trace_) {
        trace_->asyncInstant(winner->traceTrack_, req.traceId, cycle_,
                             stateSchedule_,
                             traceArgs("channel", static_cast<uint64_t>(ch),
                                       "transfer_cycles", transfer_cycles,
                                       "row_hit", row_hit ? 1 : 0));
        trace_->span(channelTracks_[static_cast<size_t>(ch)],
                     TraceSink::kStateBusy, cycle_,
                     cycle_ + transfer_cycles);
    }
}

uint64_t
MemorySystem::nextEventCycle() const
{
    // Memoised until the next state change (tick, tickQuiet, issue):
    // event-jump drivers ask once per jump, and tickQuiet re-asks to
    // check the jump.
    if (quiet_.valid)
        return quiet_.next;
    // One pass over the scheduled-head heap top and the waiting heads
    // also evaluates, at the first tick a jump would skip (t), the
    // per-tick accrual tickQuiet credits: busy buses and bank conflicts.
    const uint64_t t = cycle_ + 1;
    uint64_t next = kNoEvent;
    auto consider = [&next](uint64_t c) {
        if (c < next)
            next = c;
    };
    quiet_ = QuietSpan();
    // Head completions: the earliest scheduled head retires first. An
    // unscheduled head is an event at the first tick that could grant
    // it — it must be visible (issued before the tick's clock) and its
    // channel bus and bank must have expired. A retirement can expose a
    // new unscheduled head after the same tick's scheduling phase ran,
    // so free-resource heads are events at t, not covered by the bus
    // expiry below. The bound is conservative (the head may still lose
    // arbitration at that tick), which only shortens jumps.
    if (!retireHeap_.empty())
        consider(std::max(retireHeap_.front().first, t));
    for (int ch = 0; ch < config_.numChannels; ++ch) {
        const uint64_t bus = channelBusyUntil_[static_cast<size_t>(ch)];
        bool conflict = false;
        for (const MemoryPort *p : heads_[static_cast<size_t>(ch)]) {
            const auto &head = p->pending_.front();
            const uint64_t bank = banks_[bankIndex(ch, head.bank)].busyUntil;
            consider(std::max({t, head.issueCycle + 1, bus, bank}));
            if (bus <= t && bank <= t)
                quiet_.schedulableHead = true;
            if (head.issueCycle < t && bank > t)
                conflict = true;
        }
        // A busy channel bus freeing up enables scheduling of waiting
        // sub-requests and flips the per-cycle busy/idle stat accrual.
        // Bank expiries need no event of their own: a busy bank is only
        // observable through a blocked head (grant eligibility and the
        // conflict-stat accrual both test heads exclusively), and the
        // grantable bound above already takes the head's bank expiry
        // into account.
        if (bus > cycle_)
            consider(bus);
        if (bus > t)
            ++quiet_.busyChannels;
        else if (conflict)
            ++quiet_.conflictChannels;
    }
    quiet_.next = next;
    quiet_.valid = true;
    return next;
}

void
MemorySystem::tickQuiet(uint64_t cycles)
{
    if (cycles == 0)
        return;
    // The caller proved (via nextEventCycle()) that no event lands in
    // (cycle_, cycle_ + cycles]: no head completes, no bus frees, no
    // bank finishes. Every per-tick accrual condition is therefore
    // constant across the span — a bus is busy for all of it or none of
    // it, likewise each bank — so the accrual nextEventCycle() evaluated
    // at the span's first tick, credited `cycles` times, is bit-exact.
    // Arbitration is also a no-op on arbiter state: the post-tick
    // invariant says any unscheduled head is blocked on a bus or bank
    // whose expiry would be an event, and a tick that grants nothing
    // leaves the round-robin pointers untouched.
    GENESIS_ASSERT(nextEventCycle() > cycle_ + cycles,
                   "tickQuiet span is not event-free");
    // nextEventCycle() reports unscheduled heads at their earliest
    // grantable cycle, so a span it proved quiet can hold no head that
    // could be scheduled inside it; re-check that directly as a cheap
    // second line of defence.
    GENESIS_ASSERT(!quiet_.schedulableHead,
                   "tickQuiet span covers a schedulable head (issue "
                   "without an intervening tick?)");
    quiet_.valid = false;
    cycle_ += cycles;
    *channelBusyCycles_ += quiet_.busyChannels * cycles;
    *channelIdleCycles_ +=
        (static_cast<uint64_t>(config_.numChannels) - quiet_.busyChannels) *
        cycles;
    *bankConflictCycles_ += quiet_.conflictChannels * cycles;
}

void
MemorySystem::assertStatInvariant() const
{
    uint64_t busy = stats_.get("channel_busy_cycles");
    uint64_t idle = stats_.get("channel_idle_cycles");
    uint64_t expect =
        static_cast<uint64_t>(config_.numChannels) * cycle_;
    GENESIS_ASSERT(busy + idle == expect,
                   "channel stat drift: busy %llu + idle %llu != "
                   "%d channels x %llu cycles",
                   static_cast<unsigned long long>(busy),
                   static_cast<unsigned long long>(idle),
                   config_.numChannels,
                   static_cast<unsigned long long>(cycle_));
}

} // namespace genesis::sim
