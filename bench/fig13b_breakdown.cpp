/**
 * @file
 * Figure 13(b) reproduction: where the Genesis runtime goes — host
 * software, host-FPGA communication (PCIe DMA), or the accelerator — and
 * the PCIe 4.0 projection.
 *
 * Paper reference: Mark Duplicates is 99.35% host-bound; Metadata Update
 * spends 53.4% and BQSR 29.5% of runtime in DMA; with a 32 GB/s PCIe 4.0
 * link the Metadata Update / BQSR speedups improve to 33x / 16.4x (from
 * 19.25x / 12.59x), i.e. 1.71x / 1.30x faster.
 */

#include "bench_common.h"

using namespace genesis;

int
main()
{
    auto workload = bench::makeBenchWorkload();
    bench::printHeader(
        "Figure 13(b): Genesis runtime breakdown + PCIe 4.0 projection",
        workload);

    runtime::RuntimeConfig pcie3;
    auto m3 = bench::measureStages(workload, pcie3);

    auto row = [](const char *stage, const runtime::TimingBreakdown &t,
                  const char *paper) {
        double total = t.total();
        std::printf("%-28s host %5.1f%% | communication %5.1f%% | "
                    "accelerator %5.1f%%\n", stage,
                    100.0 * t.hostSeconds / total,
                    100.0 * t.dmaSeconds / total,
                    100.0 * t.accelSeconds / total);
        std::printf("%-28s (paper: %s)\n", "", paper);
    };
    row("Mark Duplicates", m3.mdTiming, "99.35% host");
    row("Metadata Update", m3.muTiming, "53.4% communication");
    row("BQSR (table construction)", m3.bqTiming,
        "29.5% communication");

    // The projection reprices each stage's PCIe 3 charge record (cycles
    // and DMA byte counts, which no link speed changes) at PCIe 4 and
    // keeps the measured host seconds: the same run on a faster link.
    std::printf("\nPCIe 4.0 (32 GB/s) projection (modeled communication "
                "+ accelerator; host held at the measured value):\n");
    auto projection = [&pcie3](const char *stage,
                               const runtime::TimingBreakdown &t3,
                               double paper_gain) {
        runtime::TimingBreakdown t4 =
            t3.repriced(pcie3.clockHz, runtime::DmaConfig::pcie4());
        double device3 = t3.dmaSeconds + t3.accelSeconds;
        double device4 = t4.dmaSeconds + t4.accelSeconds;
        std::printf("  %-26s pcie3 %8.4f s -> pcie4 %8.4f s "
                    "(%.2fx faster; paper projects %.2fx)\n"
                    "  %-26s modeled %8.6f s -> %8.6f s (%.2fx)\n",
                    stage, t3.total(), t4.total(),
                    t3.total() / t4.total(), paper_gain, "", device3,
                    device4, device3 / device4);
    };
    projection("Mark Duplicates", m3.mdTiming, 1.0);
    projection("Metadata Update", m3.muTiming, 33.0 / 19.25);
    projection("BQSR", m3.bqTiming, 16.4 / 12.59);

    std::printf("\ncommunication-bound stages benefit most from the "
                "faster interconnect, as the paper argues.\n");
    return 0;
}
