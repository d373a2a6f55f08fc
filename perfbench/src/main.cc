// perfbench: runs one workload for a time budget and prints one raw JSON
// result line (host timings, simulated outputs, check results, and in a
// traced run the per-layer metrics). perfbench/run.py builds this binary,
// turns the raw samples into the benchmark's metrics and prints them.
//
//   perfbench --workload cold_matrix|warm_pingpong|fleet_100k --seed N
//             --seconds S --trace 0|1 [--full] [--max-units N]
//             [--trace-out FILE]
//
// A run repeats whole passes over the workload's inputs until S seconds
// have elapsed (at least one pass). A traced run alternates plain and
// traced passes. run.py checks that every pass produced the same sim
// digest, which also proves tracing leaves sim outputs byte-identical.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/workloads.h"
#include "src/base/logging.h"
#include "src/base/thread_pool.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool full = false;
  int max_units = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--full") {
      args.full = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--max-units") {
      args.max_units = std::atoi(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

using PassFn = PassResult (*)(const WorkloadOptions&, bool, HostSpans&);

PassFn WorkloadFn(const std::string& name) {
  if (name == "cold_matrix") {
    return &RunColdMatrix;
  }
  if (name == "warm_pingpong") {
    return &RunWarmPingPong;
  }
  if (name == "fleet_100k") {
    return &RunFleet;
  }
  return nullptr;
}

void Append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 2;
  }
  const PassFn run_pass = WorkloadFn(args.workload);
  if (run_pass == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  HostFacts facts = CollectHostFacts();
  if (!facts.optimized || facts.sanitizer) {
    std::fprintf(stderr,
                 "perfbench: refusing to report host metrics from a %s build "
                 "(%s%s)\n",
                 facts.build_type.c_str(),
                 facts.optimized ? "" : "not optimised",
                 facts.sanitizer ? "sanitizer" : "");
    return 2;
  }
  flux::SetLogLevel(flux::LogLevel::kError);

  // Host threads: at most four and never more than the host has. The
  // calling thread runs one share of every parallel loop, so the pool holds
  // one thread fewer. warm_pingpong compresses chunks on it (spawning it is
  // set-up work, charged to the first unit). cold_matrix's serial engine
  // never uses it. fleet_100k runs the serial scheduler driver: on a shared
  // host the parallel driver's per-window wake-ups made drain time swing
  // by a factor of two or more between runs of one seed. A traced fleet run drains once more on
  // the pool to measure the parallel driver against the serial one.
  const int width = static_cast<int>(std::min(4u, facts.nproc));
  const bool warm = args.workload == "warm_pingpong";
  const bool threaded_pass = args.trace && args.workload == "fleet_100k";
  const auto spawn_begin = HostClock::now();
  flux::ThreadPool* pool = width > 1 && (warm || threaded_pass)
                               ? flux::ThreadPool::Shared(width - 1)
                               : nullptr;
  const double spawn_s = SecondsSince(spawn_begin);
  facts.threads = warm ? width : 1;

  WorkloadOptions options;
  options.seed = args.seed;
  options.full = args.full;
  options.max_units = args.max_units;
  options.pool = warm ? pool : nullptr;

  HostSpans spans(args.trace);
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  const auto run_begin = HostClock::now();
  do {
    plain.push_back(run_pass(options, false, spans));
    if (args.trace) {
      traced.push_back(run_pass(options, true, spans));
    }
  } while (SecondsSince(run_begin) < args.seconds);
  if (warm && !plain.front().setup_s.empty()) {
    plain.front().setup_s.front() += spawn_s;
  }
  std::vector<PassResult> threaded;
  if (threaded_pass) {
    WorkloadOptions parallel = options;
    parallel.pool = pool;
    threaded.push_back(run_pass(parallel, false, spans));
  }

  // Raw result: host samples from the plain passes, every pass's outcomes
  // and sim digest, and the first pass's sim outputs. perfbench/stats.py
  // turns it into metrics and checks.
  const PassResult& first = plain.front();
  Json j;
  j.BeginObject();
  j.Str("workload", args.workload).Int("seed", static_cast<int64_t>(args.seed));
  j.Bool("trace", args.trace).Bool("full", args.full);
  j.Int("max_units", args.max_units);
  j.BeginObject("host");
  j.Int("nproc", facts.nproc).Int("threads", facts.threads);
  j.Int("threaded_pass_threads", threaded_pass ? width : 0);
  j.Str("compiler", facts.compiler).Str("build_type", facts.build_type);
  j.EndObject();
  std::vector<double> setup_s, migrate_s, drain_s;
  for (const PassResult& p : plain) {
    Append(setup_s, p.setup_s);
    Append(migrate_s, p.migrate_s);
    Append(drain_s, p.drain_s);
  }
  j.NumArray("setup_s", setup_s).NumArray("migrate_s", migrate_s);
  j.NumArray("drain_s", drain_s);
  j.BeginArray("passes");
  auto emit_pass = [&](const PassResult& p, const char* kind) {
    j.BeginObject();
    j.Str("kind", kind).Str("digest", p.sim_digest);
    j.Num("run_host_s", p.run_host_s);
    j.Int("completed", static_cast<int64_t>(p.completed));
    j.Int("requested", static_cast<int64_t>(p.requested));
    j.Int("refused_at_arrival", static_cast<int64_t>(p.refused_at_arrival));
    j.Int("left_over", static_cast<int64_t>(p.left_over));
    j.BeginArray("outcomes");
    for (const Outcome& o : p.outcomes) {
      j.BeginObject();
      j.Str("unit", o.unit).Str("app", o.app).Str("error", o.error);
      j.Bool("migrated", o.migrated).Bool("unmigratable", o.unmigratable);
      j.Bool("digest_match", o.digest_match);
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
  };
  for (const PassResult& p : plain) {
    emit_pass(p, "plain");
  }
  for (const PassResult& p : traced) {
    emit_pass(p, "traced");
  }
  for (const PassResult& p : threaded) {
    emit_pass(p, "threaded");
  }
  j.EndArray();
  j.BeginObject("sim");
  j.NumArray("migration_s", first.sim_migration_s);
  j.NumArray("perceived_s", first.sim_perceived_s);
  j.NumArray("wire_bytes", first.wire_bytes);
  j.NumArray("queue_wait_us", first.queue_wait_us);
  j.EndObject();
  j.Num("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    std::map<std::string, double> layers = traced.front().layers;
    double plain_s = 0, traced_s = 0;
    uint64_t plain_n = 0, traced_n = 0;
    for (size_t i = 0; i < traced.size(); ++i) {
      plain_s += plain[i].run_host_s;
      plain_n += plain[i].completed;
      traced_s += traced[i].run_host_s;
      traced_n += traced[i].completed;
    }
    if (!threaded.empty()) {
      // Parallel scheduler driver on `width` threads against the serial
      // driver of the plain passes (median drain).
      std::vector<double> serial_drains;
      for (const PassResult& p : plain) {
        Append(serial_drains, p.drain_s);
      }
      std::sort(serial_drains.begin(), serial_drains.end());
      const double serial = serial_drains[serial_drains.size() / 2];
      const double parallel = threaded.front().drain_s.front();
      layers["sched.threaded_drain_s"] = parallel;
      layers["sched.threaded_speedup"] = parallel > 0 ? serial / parallel : 0;
    }
    layers["trace.overhead_share"] =
        plain_n > 0 && traced_n > 0 && plain_s > 0
            ? (traced_s / traced_n) / (plain_s / plain_n) - 1
            : 0;
    RunLedger(args.seed, pool, layers);
    j.BeginObject("layers");
    for (const auto& [name, value] : layers) {
      j.Num(name, value);
    }
    j.EndObject();
    if (!args.trace_out.empty() && !spans.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
