/**
 * @file
 * Joiner module (Section III-C, Figure 6).
 *
 * Merges two key-sorted flit streams. Every cycle it compares the keys at
 * the heads of its input queues and either outputs or discards the flit
 * with the smaller key; equal keys merge their data fields through
 * concatenation. Configurable as inner join (discard flits without a
 * matching key), left join (keep unmatched flits from the first queue,
 * discard unmatched flits from the second), or outer join (never
 * discard).
 *
 * Genomics extension: a left flit whose key is the Ins marker (an
 * inserted base, Figure 3) bypasses the comparison — a left/outer join
 * emits it padded with nulls, an inner join drops it.
 *
 * Streams are item-aligned: keys must ascend within an item (one read's
 * bases; one read's reference interval), and items are delimited by
 * boundary flits on both inputs. The joiner re-synchronises at every
 * boundary, which is what lets a single pipeline stream many
 * position-sorted reads whose reference intervals overlap.
 */

#ifndef GENESIS_MODULES_JOINER_H
#define GENESIS_MODULES_JOINER_H

#include "sim/module.h"

namespace genesis::modules {

/** Join mode. */
enum class JoinMode { Inner, Left, Outer };

/** Configuration for a Joiner. */
struct JoinerConfig {
    JoinMode mode = JoinMode::Inner;
    /** Data fields contributed by each side (for null padding). */
    int leftFields = 1;
    int rightFields = 1;
};

/** The Joiner module. */
class Joiner : public sim::Module
{
  public:
    Joiner(std::string name, sim::HardwareQueue *left,
           sim::HardwareQueue *right, sim::HardwareQueue *out,
           const JoinerConfig &config);

    void tick() override;
    bool done() const override;

  private:
    /** Interned stall-reason counters (see Module). */
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    StatHandle stallStarved_ = stallCounter("starved");
    /** Unmatched flits an inner (or one-sided) join discards. */
    StatHandle droppedLeft_ = statCounter("dropped_left");
    StatHandle droppedRight_ = statCounter("dropped_right");

    /** Emit a left-side flit padded with right-side nulls. */
    void emitLeftOnly(const sim::Flit &flit);
    /** Emit a right-side flit padded with left-side nulls. */
    void emitRightOnly(const sim::Flit &flit);

    sim::HardwareQueue *left_;
    sim::HardwareQueue *right_;
    sim::HardwareQueue *out_;
    JoinerConfig config_;

    /** Boundary consumed for the current item on each side. */
    bool leftItemDone_ = false;
    bool rightItemDone_ = false;
    bool closed_ = false;
};

} // namespace genesis::modules

#endif // GENESIS_MODULES_JOINER_H
