#include "sim/spm.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::sim {

Scratchpad::Scratchpad(std::string name, size_t size_words,
                       uint32_t word_bytes)
    : name_(std::move(name)), sizeWords_(size_words),
      wordBytes_(word_bytes)
{
    if (size_words == 0)
        fatal("scratchpad '%s' must have non-zero size", name_.c_str());
    pages_.resize((size_words + kPageWords - 1) / kPageWords);
    hazardWaiters_.setName("spm " + name_ + " hazard");
}

void
Scratchpad::hazardRelease(size_t addr)
{
    auto it = std::find(hazardAddrs_.begin(), hazardAddrs_.end(), addr);
    if (it == hazardAddrs_.end()) {
        panic("scratchpad '%s': hazard release of unheld address %zu",
              name_.c_str(), addr);
    }
    hazardAddrs_.erase(it);
    hazardWaiters_.wakeAll();
}

void
Scratchpad::allocatePage(size_t addr)
{
    const size_t first = addr / kPageWords * kPageWords;
    const size_t words = std::min(kPageWords, sizeWords_ - first);
    pages_[addr / kPageWords] = std::make_unique<int64_t[]>(words);
    backingWords_ += words;
}

void
Scratchpad::panicRange(const char *what, size_t addr) const
{
    panic("scratchpad '%s': %s of %zu beyond size %zu", name_.c_str(),
          what, addr, sizeWords_);
}

} // namespace genesis::sim
