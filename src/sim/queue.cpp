#include "sim/queue.h"

#include "base/logging.h"

namespace genesis::sim {

HardwareQueue::HardwareQueue(std::string name, size_t capacity)
    : name_(std::move(name))
{
    if (capacity == 0)
        fatal("queue '%s' must have non-zero capacity", name_.c_str());
    ring_.resize(capacity);
    waiters_.setName("queue " + name_);
}

void
HardwareQueue::panicOp(const char *what) const
{
    panic("%s '%s'", what, name_.c_str());
}

} // namespace genesis::sim
