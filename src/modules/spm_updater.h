/**
 * @file
 * SPM Updater module (Section III-C).
 *
 * Three operating modes, matching the paper:
 *  - Sequential: write incoming values to consecutive addresses from a
 *    configured start (used to initialise the reference SPM from memory);
 *  - Random: each flit carries (address, value);
 *  - ReadModifyWrite: each flit carries an address; the stored word is
 *    read, passed through the configured modify function, and written
 *    back. A three-stage (read/modify/write) pipeline hazard interlock
 *    stalls an incoming flit whose address matches any in-flight stage,
 *    exactly as described in the paper.
 */

#ifndef GENESIS_MODULES_SPM_UPDATER_H
#define GENESIS_MODULES_SPM_UPDATER_H

#include <functional>
#include <optional>

#include "sim/module.h"
#include "sim/spm.h"

namespace genesis::modules {

/** Operating mode of an SpmUpdater. */
enum class SpmUpdateMode {
    Sequential,
    Random,
    ReadModifyWrite,
};

/** Configuration for an SpmUpdater. */
struct SpmUpdaterConfig {
    SpmUpdateMode mode = SpmUpdateMode::Sequential;
    /** Sequential mode: first address written. */
    size_t startAddr = 0;
    /** Random/RMW: flit field carrying the address (-1 = the key). */
    int addrField = -1;
    /** Sequential/Random: flit field carrying the value (-1 = the key). */
    int valueField = -1;
    /**
     * RMW: modify function applied to the stored word. The flit is
     * available for value-dependent updates. Default: increment.
     */
    std::function<int64_t(int64_t, const sim::Flit &)> modify;
    /**
     * Subtract this base from incoming addresses (reference SPMs hold a
     * partition starting at the window position, not zero).
     */
    int64_t addrBase = 0;
};

/** Writes / updates a scratchpad from a flit stream. */
class SpmUpdater : public sim::Module
{
  public:
    SpmUpdater(std::string name, sim::Scratchpad *spm,
               sim::HardwareQueue *in, const SpmUpdaterConfig &config);

    void tick() override;
    bool done() const override;

  private:
    /** Interned stall-reason counters (see Module). */
    StatHandle stallRmwHazard_ = stallCounter("rmw_hazard");
    /** Address-less flits passed over without an update. */
    StatHandle skipped_ = statCounter("skipped");
    /** Interned trace state for hazard instants (0 = not yet). */
    TraceSink::StateId hazardState_ = 0;
    /** One trace instant per held flit, not per stalled cycle. */
    bool hazardTraced_ = false;

    struct Stage {
        size_t addr = 0;
        int64_t value = 0; ///< read result flowing to modify/write
        sim::Flit flit;
    };

    sim::Scratchpad *spm_;
    sim::HardwareQueue *in_;
    SpmUpdaterConfig config_;

    size_t seqCursor_ = 0;
    /** RMW pipeline stages: [0]=read, [1]=modify, [2]=write. */
    std::optional<Stage> stages_[3];
};

} // namespace genesis::modules

#endif // GENESIS_MODULES_SPM_UPDATER_H
