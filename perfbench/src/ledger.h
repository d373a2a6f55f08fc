// Host-cost ledger: layer kernels timed by calling each layer's public
// function directly, on inputs shaped like the workload that exercises the
// layer (AppSpec sizes and compressibility, 256 KiB chunks, 16 KiB frames,
// the fleet's in-flight counts), generated from the workload seed.
#ifndef FLUX_PERFBENCH_SRC_LEDGER_H_
#define FLUX_PERFBENCH_SRC_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>

namespace flux {
class ThreadPool;
}

namespace perfbench {

// Runs every kernel once (each repeats its work until a short minimum
// time has passed) and stores its figure under the metric name.
void RunLedger(uint64_t seed, flux::ThreadPool* pool,
               std::map<std::string, double>& out);

}  // namespace perfbench

#endif  // FLUX_PERFBENCH_SRC_LEDGER_H_
