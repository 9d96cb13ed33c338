/**
 * @file
 * BQSR covariate-table-construction accelerator (paper Figure 12,
 * Section IV-D).
 *
 * Per (reference partition, read group), a pipeline explodes each read's
 * bases (ReadToBases), computes the two covariate bin ids (BinIDGen),
 * inner-joins against the SPM-resident reference + IS_SNP columns,
 * filters out known variant sites, and updates four scratchpad count
 * buffers (total/error x cycle/context covariates) through
 * read-modify-write SPM Updaters with hazard interlocks. When a
 * partition finishes, the buffers drain through SPM Readers to Memory
 * Writers. The host merges per-partition tables into the final covariate
 * table; the quality-score update stage stays in software, as in the
 * paper.
 */

#ifndef GENESIS_CORE_BQSR_ACCEL_H
#define GENESIS_CORE_BQSR_ACCEL_H

#include "core/stage_driver.h"
#include "gatk/bqsr.h"

namespace genesis::core {

/** Configuration of the BQSR accelerator. */
struct BqsrAccelConfig {
    int numPipelines = 8;
    runtime::RuntimeConfig runtime;
    /**
     * Reference partition size. Smaller than the metadata accelerator's
     * (the reference SPM must share BRAM with the four covariate count
     * buffers; see DESIGN.md).
     */
    int64_t psize = 131'072;
    int64_t overlap = 151;
    gatk::BqsrConfig bqsr;
};

/** Result of an accelerated covariate-table construction. */
struct BqsrAccelResult {
    AccelRunInfo info;
    gatk::CovariateTable table;

    BqsrAccelResult() : table(gatk::BqsrConfig{}) {}
};

/** The accelerated BQSR covariate-table-construction stage. */
class BqsrAccelerator
{
  public:
    explicit BqsrAccelerator(
        const BqsrAccelConfig &config = BqsrAccelConfig());

    /** Build the covariate table over all reads. */
    BqsrAccelResult run(const std::vector<genome::AlignedRead> &reads,
                        const genome::ReferenceGenome &genome);

    /** @return the hardware census without running (for Table IV). */
    static pipeline::HardwareCensus census(int num_pipelines,
                                           int64_t psize = 131'072,
                                           int64_t overlap = 151);

  private:
    BqsrAccelConfig config_;
};

} // namespace genesis::core

#endif // GENESIS_CORE_BQSR_ACCEL_H
