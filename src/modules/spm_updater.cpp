#include "modules/spm_updater.h"

#include "base/logging.h"

namespace genesis::modules {

using sim::Flit;

SpmUpdater::SpmUpdater(std::string name, sim::Scratchpad *spm,
                       sim::HardwareQueue *in,
                       const SpmUpdaterConfig &config)
    : Module(std::move(name)), spm_(spm), in_(in), config_(config)
{
    GENESIS_ASSERT(spm_ && in_, "SPM updater needs an SPM and a queue");
    if (config_.mode == SpmUpdateMode::ReadModifyWrite &&
        !config_.modify) {
        config_.modify = [](int64_t old, const Flit &) {
            return old + 1;
        };
    }
    seqCursor_ = config_.startAddr;
}

void
SpmUpdater::tick()
{
    if (config_.mode == SpmUpdateMode::ReadModifyWrite) {
        // Advance the RMW pipeline back to front. The write stage
        // commits; modify computes; read samples the SPM. Any occupied
        // stage means this tick mutates state without a queue op.
        if (stages_[0] || stages_[1] || stages_[2])
            noteProgress();
        if (stages_[2]) {
            spm_->write(stages_[2]->addr, stages_[2]->value);
            // Publish the write-back on the SPM's hazard scoreboard so
            // modules sleeping on the address can be woken.
            spm_->hazardRelease(stages_[2]->addr);
            stages_[2].reset();
        }
        if (stages_[1]) {
            stages_[1]->value =
                config_.modify(stages_[1]->value, stages_[1]->flit);
            stages_[2] = std::move(stages_[1]);
            stages_[1].reset();
        }
        if (stages_[0]) {
            stages_[0]->value = spm_->read(stages_[0]->addr);
            stages_[1] = std::move(stages_[0]);
            stages_[0].reset();
        }

        if (!in_->canPop()) {
            // Only fully idle (stages drained too) ticks may sleep:
            // future ticks stay no-ops until the input queue commits.
            if (!stages_[0] && !stages_[1] && !stages_[2])
                sleepOn(nullptr, {&in_->waiters()});
            return;
        }
        const Flit &head = in_->front();
        if (sim::isBoundary(head)) {
            in_->pop();
            traceBusy();
            return;
        }
        int64_t raw_addr = config_.addrField < 0
            ? head.key : head.fieldAt(config_.addrField);
        if (raw_addr == Flit::kNull || raw_addr == Flit::kIns ||
            raw_addr == Flit::kDel) {
            // Address-less flits (unbinnable bases) are skipped.
            in_->pop();
            ++*skipped_;
            traceBusy();
            return;
        }
        size_t addr = static_cast<size_t>(raw_addr - config_.addrBase);
        // Hazard interlock: hold the flit while any in-flight stage
        // operates on the same address (RAW avoidance, Section III-C).
        for (const auto &stage : stages_) {
            if (stage && stage->addr == addr) {
                countStall(stallRmwHazard_);
                // One instant per held flit, tagged with the conflicting
                // address, so traces show each interlock engagement.
                if (!hazardTraced_ && traceSink()) {
                    if (hazardState_ == 0) {
                        hazardState_ =
                            traceSink()->internState("rmw_hazard");
                    }
                    traceInstant(hazardState_, traceArgs("addr", addr));
                    hazardTraced_ = true;
                }
                return;
            }
        }
        Flit flit = in_->pop();
        stages_[0] = Stage{addr, 0, flit};
        spm_->hazardAcquire(addr);
        hazardTraced_ = false;
        countFlit();
        return;
    }

    // Sequential / Random: single-cycle write per flit.
    if (!in_->canPop()) {
        sleepOn(nullptr, {&in_->waiters()});
        return;
    }
    const Flit &head = in_->front();
    if (sim::isBoundary(head)) {
        in_->pop();
        traceBusy();
        return;
    }
    Flit flit = in_->pop();
    int64_t value = config_.valueField < 0
        ? flit.key : flit.fieldAt(config_.valueField);
    size_t addr;
    if (config_.mode == SpmUpdateMode::Sequential) {
        addr = seqCursor_++;
    } else {
        int64_t raw_addr = config_.addrField < 0
            ? flit.key : flit.fieldAt(config_.addrField);
        addr = static_cast<size_t>(raw_addr - config_.addrBase);
    }
    spm_->write(addr, value);
    countFlit();
}

bool
SpmUpdater::done() const
{
    return in_->drained() && !stages_[0] && !stages_[1] && !stages_[2];
}

} // namespace genesis::modules
