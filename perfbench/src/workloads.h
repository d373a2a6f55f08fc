// The benchmark's three workloads. Each drives the simulator only through
// its public calls and times those calls on the host clock.
//
//  cold_matrix    Figure 12 matrix cells: fresh world per cell, serial
//                 engine, clean link. Closed loop, one migration at a time.
//  warm_pingpong  16 migratable apps, N4 <-> N7(2013), four hops each with
//                 pre-copy + resume over the "home" profile with FEC.
//                 Closed loop.
//  fleet_100k     100k-device coordinator run with seeded arrivals. Open
//                 loop: arrivals fire at their due sim time regardless of
//                 backlog; queue wait is the latency.
#ifndef FLUX_PERFBENCH_SRC_WORKLOADS_H_
#define FLUX_PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/host.h"

namespace flux {
class ThreadPool;
}

namespace perfbench {

struct WorkloadOptions {
  uint64_t seed = 0;     // 0 reproduces the committed goldens' inputs
  bool full = false;     // cold_matrix: all 18 x 4 cells, not the subset
  int max_units = 0;     // >0: only the first N units of a pass (self-tests)
  flux::ThreadPool* pool = nullptr;  // host workers (null: serial)
};

// One attempted operation of a migration workload and what it produced.
// perfbench/stats.py classifies it: a completed migration must restore the
// byte-identical image, and only the unmigratable apps may be refused.
struct Outcome {
  std::string unit;
  std::string app;
  std::string error;          // non-empty: the call returned an error
  bool migrated = false;      // MigrationReport::success
  bool unmigratable = false;  // multi-process or preserved EGL context
  bool digest_match = false;  // restored_image_hash == image_hash
};

// Everything one pass over a workload's units produced. A unit is one
// fresh world: a matrix cell, an app's ping-pong, or one fleet.
struct PassResult {
  std::vector<double> setup_s;    // host, per unit
  std::vector<double> migrate_s;  // host, per completed Migrate call
  std::vector<double> drain_s;    // host, per fleet drain
  double run_host_s = 0;          // Migrate / DrainUntil plus teardown
  uint64_t completed = 0;         // migrations completed
  std::vector<Outcome> outcomes;  // migration workloads

  // fleet_100k accounting.
  uint64_t requested = 0;
  uint64_t refused_at_arrival = 0;
  uint64_t left_over = 0;  // queued or in flight after the drain

  // Simulated outputs, per completed migration.
  std::vector<double> sim_migration_s;
  std::vector<double> sim_perceived_s;
  std::vector<double> wire_bytes;
  std::vector<double> queue_wait_us;  // fleet: admitted - submitted
  std::string sim_digest;             // over every sim output of the pass

  // Traced passes only: per-layer metrics, by name.
  std::map<std::string, double> layers;
};

// Runs one pass. `trace` attaches the program's Tracer to every unit and
// records host spans into `spans`.
PassResult RunColdMatrix(const WorkloadOptions& options, bool trace,
                         HostSpans& spans);
PassResult RunWarmPingPong(const WorkloadOptions& options, bool trace,
                           HostSpans& spans);
PassResult RunFleet(const WorkloadOptions& options, bool trace,
                    HostSpans& spans);

}  // namespace perfbench

#endif  // FLUX_PERFBENCH_SRC_WORKLOADS_H_
