/**
 * @file
 * On-chip scratchpad memory (SPM).
 *
 * The paper maps frequently reused tables — the reference sequence, the
 * IS_SNP bitmap, BQSR count buffers — to on-chip scratchpads to exploit
 * data reuse (Section III-D). A scratchpad is a word-addressed array with
 * single-cycle access; the SpmReader/SpmUpdater modules provide the
 * streaming interfaces, including the read-modify-write hazard interlock.
 *
 * Storage is lazily backed: the paper sizes each scratchpad for the
 * worst-case partition, but a run pays host memory only for the 4 KiB
 * pages it writes. Every declared word reads as 0 until written, so the
 * model behaves as a zero-filled array of the declared size (which is
 * what sizeWords()/sizeBytes() and the bounds checks use).
 */

#ifndef GENESIS_SIM_SPM_H
#define GENESIS_SIM_SPM_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.h"
#include "base/trace.h"
#include "sim/wait.h"

namespace genesis::sim {

/** A word-addressed on-chip scratchpad. */
class Scratchpad
{
  public:
    /**
     * @param name diagnostic name
     * @param size_words capacity in 64-bit words
     * @param word_bytes storage width per word for resource accounting
     *        (a base-pair SPM stores 1 byte/word; a counter SPM 4)
     */
    Scratchpad(std::string name, size_t size_words,
               uint32_t word_bytes = 8);

    const std::string &name() const { return name_; }
    /** @return declared capacity in words. */
    size_t sizeWords() const { return sizeWords_; }
    uint32_t wordBytes() const { return wordBytes_; }

    /** @return declared capacity in bytes (BRAM resource accounting). */
    uint64_t sizeBytes() const
    {
        return static_cast<uint64_t>(sizeWords_) * wordBytes_;
    }

    /** Read one word; out-of-range addresses panic. */
    int64_t
    read(size_t addr) const
    {
        if (addr >= sizeWords_)
            panicRange("read", addr);
        ++*reads_;
        if (trace_)
            traceAccess();
        const int64_t *page = pages_[addr / kPageWords].get();
        return page ? page[addr % kPageWords] : 0;
    }

    /** Write one word. */
    void
    write(size_t addr, int64_t value)
    {
        if (addr >= sizeWords_)
            panicRange("write", addr);
        ++*writes_;
        if (trace_)
            traceAccess();
        std::unique_ptr<int64_t[]> &page = pages_[addr / kPageWords];
        if (!page)
            allocatePage(addr);
        page[addr % kPageWords] = value;
    }

    /** Zero every word (releases the backing store). */
    void
    clear()
    {
        for (auto &page : pages_)
            page.reset();
        backingWords_ = 0;
    }

    /** @return words of host storage allocated for the backing store;
     *  never above sizeWords(). */
    size_t backingWords() const { return backingWords_; }

    // --- read-modify-write hazard scoreboard ---
    //
    // An updater with an in-flight RMW on a word publishes the address
    // here (acquire at pipeline entry, release at write-back); other
    // modules that must not touch the word while it is in flight check
    // hazardHeld() and may sleep on hazardWaiters() — every release
    // fires the list. Nested acquires of one address are counted, so
    // the address reads as held until the last release.

    /** Publish an in-flight RMW on `addr`. */
    void hazardAcquire(size_t addr) { hazardAddrs_.push_back(addr); }

    /** Retire an in-flight RMW on `addr`; wakes hazard waiters. */
    void hazardRelease(size_t addr);

    /** @return true while any in-flight RMW holds `addr`. */
    bool
    hazardHeld(size_t addr) const
    {
        return std::ranges::find(hazardAddrs_, addr) != hazardAddrs_.end();
    }

    /** Sleepers blocked on a held address, fired on every release. */
    WaitList &hazardWaiters() { return hazardWaiters_; }

    StatRegistry &stats() { return stats_; }
    const StatRegistry &stats() const { return stats_; }

    /**
     * Record this scratchpad's cumulative access count as a counter
     * track under process `pid` in `sink`, sampled at the first access
     * of each active cycle (`cycle` is the owning simulator's clock).
     */
    void
    attachTrace(TraceSink *sink, const uint64_t *cycle, int pid)
    {
        trace_ = sink;
        traceCycle_ = cycle;
        traceTrack_ =
            sink->addCounterTrack(pid, "spm." + name_ + ".accesses");
        lastTraceCycle_ = ~0ull;
    }

  private:
    /** Words per backing page (4 KiB of host storage). */
    static constexpr size_t kPageWords = 512;

    /** Back the (zero-filled) page holding `addr`; the last page is cut
     *  at the declared size. */
    void allocatePage(size_t addr);

    /** Cold path: out-of-range access panic naming the declared size. */
    [[noreturn]] void panicRange(const char *what, size_t addr) const;

    /** Sample the cumulative access counter (at most once per cycle). */
    void
    traceAccess() const
    {
        if (*traceCycle_ == lastTraceCycle_)
            return;
        lastTraceCycle_ = *traceCycle_;
        trace_->counter(traceTrack_, *traceCycle_, *reads_ + *writes_);
    }

    std::string name_;
    size_t sizeWords_;
    uint32_t wordBytes_;
    /** One slot per kPageWords words; a null page reads as all 0. */
    std::vector<std::unique_ptr<int64_t[]>> pages_;
    size_t backingWords_ = 0;
    /** In-flight RMW addresses (tiny: bounded by updater pipe depth). */
    std::vector<size_t> hazardAddrs_;
    /** Sleeping modules woken on every hazard release. */
    WaitList hazardWaiters_;
    mutable StatRegistry stats_;
    /** Interned hot-path stat handles. */
    StatRegistry::Counter reads_ = stats_.counter("reads");
    StatRegistry::Counter writes_ = stats_.counter("writes");
    /** Tracing attachment (null = disabled; see attachTrace). */
    TraceSink *trace_ = nullptr;
    const uint64_t *traceCycle_ = nullptr;
    int traceTrack_ = -1;
    mutable uint64_t lastTraceCycle_ = ~0ull;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_SPM_H
