/**
 * @file
 * Metadata Update accelerator (paper Figure 11, Section IV-C).
 *
 * Per reference partition, a pipeline of six Memory Readers, a
 * ReadToBases, an SPM (holding the partition's reference sequence), a
 * Left Joiner, mask Filters, per-read Reducers (COUNT for NM, masked SUM
 * for UQ) and the MDGen custom module computes the NM / MD / UQ tags of
 * every read, streaming the three outputs back through Memory Writers.
 * Partitions round-robin across the configured pipelines; one simulator
 * batch runs up to numPipelines partitions concurrently behind the
 * shared memory arbiters of Figure 8.
 */

#ifndef GENESIS_CORE_METADATA_ACCEL_H
#define GENESIS_CORE_METADATA_ACCEL_H

#include "core/stage_driver.h"

namespace genesis::core {

/** Configuration of the Metadata Update accelerator. */
struct MetadataAccelConfig {
    int numPipelines = 16;
    runtime::RuntimeConfig runtime;
    /** Reference partition size (paper: 1 M base pairs). */
    int64_t psize = 1'000'000;
    /** Reference overlap past the window end (paper: LEN = 151). */
    int64_t overlap = 151;
};

/** Result of an accelerated Metadata Update run. */
struct MetadataAccelResult {
    AccelRunInfo info;
    int64_t readsTagged = 0;
};

/** The accelerated SetNmMdAndUqTags stage. */
class MetadataAccelerator
{
  public:
    explicit MetadataAccelerator(
        const MetadataAccelConfig &config = MetadataAccelConfig());

    /** Compute and attach NM/MD/UQ tags to every read, in place. */
    MetadataAccelResult run(std::vector<genome::AlignedRead> &reads,
                            const genome::ReferenceGenome &genome);

    /** @return the hardware census without running (for Table IV). */
    static pipeline::HardwareCensus census(int num_pipelines,
                                           int64_t psize = 1'000'000,
                                           int64_t overlap = 151);

  private:
    MetadataAccelConfig config_;
};

} // namespace genesis::core

#endif // GENESIS_CORE_METADATA_ACCEL_H
