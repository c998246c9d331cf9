/**
 * @file
 * Table 6: pinned host memory used by CLM at the maximum model size of
 * each scene/testbed. Table 6 models the GPU system, where parameter
 * and gradient records are pinned (optimizer state stays pageable), so
 * usage remains a modest fraction of host RAM. The functional CPU
 * trainers pin only the gradient records: they stage parameters
 * straight from the master model.
 */

#include <iostream>

#include "common.hpp"
#include "offload/pinned_pool.hpp"

using namespace clm;
using namespace clm::bench;

int
main()
{
    std::cout << "=== Table 6: CLM pinned memory usage ===\n\n";
    Table t({"Testbed", "Scene", "Max model (M)", "Pinned (GB)",
             "Host RAM (GB)", "Share of RAM"});
    for (auto dev : {DeviceSpec::rtx2080ti(), DeviceSpec::rtx4090()}) {
        for (const SceneSpec &s : SceneSpec::all()) {
            double n = maxTrainableGaussians(SystemKind::Clm, s, dev);
            double pinned = static_cast<double>(
                PinnedLayout::totalBytes(static_cast<size_t>(n)));
            t.addRow({dev.name, s.name, fmtMillions(n),
                      Table::fmt(pinned / 1e9, 1),
                      Table::fmt(dev.host_memory_bytes / 1e9, 0),
                      Table::fmt(100.0 * pinned / dev.host_memory_bytes,
                                 0)
                          + "%"});
        }
    }
    t.print(std::cout);
    std::cout << "\nShape check (Table 6): pinned usage scales with the "
                 "model and stays well under half of host RAM (paper: "
                 "<10% on the 256 GB testbed, <30% on the 128 GB one).\n";
    return 0;
}
