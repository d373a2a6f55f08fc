#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, both clocks.

    python3 perfbench/run.py --workload cold_matrix|warm_pingpong|fleet_100k \
        --seed N --seconds S --trace 0|1 [--full]

Run from the repository root. Builds perfbench/ (the simulator's src/ plus
the driver in perfbench/src) into $CARGO_TARGET_DIR or .bench_build with an
optimised build, runs one workload, checks its outputs, prints every metric
by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes host spans to
<build dir>/traces/). Exits non-zero if the build fails, the program fails,
or any output check fails. --full runs the whole 18 x 4 cold_matrix, which
with --seed 0 cross-checks BENCH_pipeline.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import stats  # noqa: E402

WORKLOADS = ("cold_matrix", "warm_pingpong", "fleet_100k")

# End-to-end metrics the driver compares across commits: defined on every
# workload and never zero. The rest of stats.end_to_end() is printed.
END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("migrations_per_host_s", "1/s", "higher", 0.25),
    ("migrate_host_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("wire_mb_per_migration", "MB", "lower", 0.05),
]

# Per-layer metrics of the traced run: name, unit, better.
PER_LAYER = [
    ("device.boot_s", "s", "lower"),
    ("pairing.devices_s", "s", "lower"),
    ("pairing.app_s", "s", "lower"),
    ("pairing.wire_mb", "MB", "lower"),
    ("apps.install_s", "s", "lower"),
    ("content.generate_mbps", "MB/s", "higher"),
    ("hash.fnv1a64_gbps", "GB/s", "higher"),
    ("record.workload_s", "s", "lower"),
    ("binder.transactions", "count", "lower"),
    ("record.calls_recorded", "count", "lower"),
    ("record.prune_ratio", "ratio", "higher"),
    ("record.txn_ns", "ns", "lower"),
    ("cria.image_mb", "MB", "lower"),
    ("cria.incremental_mb", "MB", "lower"),
    ("sim.prepare_s", "s", "lower"),
    ("sim.checkpoint_s", "s", "lower"),
    ("sim.restore_s", "s", "lower"),
    ("cria.checkpoint_ms", "ms", "lower"),
    ("cria.restore_ms", "ms", "lower"),
    ("cria.compress_ratio", "ratio", "lower"),
    ("lz.compress_mbps", "MB/s", "higher"),
    ("lz.decompress_mbps", "MB/s", "higher"),
    ("lz.chunks_mbps", "MB/s", "higher"),
    ("pipeline.serialize_busy_s", "s", "lower"),
    ("pipeline.compress_busy_s", "s", "lower"),
    ("pipeline.wire_busy_s", "s", "lower"),
    ("pipeline.decompress_busy_s", "s", "lower"),
    ("pipeline.restore_busy_s", "s", "lower"),
    ("sim.transfer_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.verify_failures", "count", "lower"),
    ("cache.probe_ns", "ns", "lower"),
    ("cache.insert_ns", "ns", "lower"),
    ("hash.flux128_gbps", "GB/s", "higher"),
    ("precopy.rounds_mean", "count", "lower"),
    ("precopy.converged_share", "ratio", "higher"),
    ("precopy.wire_mb", "MB", "lower"),
    ("precopy.chunks_resent", "count", "lower"),
    ("frame.sent", "count", "lower"),
    ("frame.lost", "count", "lower"),
    ("frame.fec_recovered", "count", "higher"),
    ("frame.fec_recovery_ratio", "ratio", "higher"),
    ("frame.retransmitted", "count", "lower"),
    ("frame.crc_errors", "count", "lower"),
    ("frame.wire_overhead", "ratio", "lower"),
    ("resume.attempts", "count", "lower"),
    ("resume.retransmit_ratio", "ratio", "lower"),
    ("frame.encode_mbps", "MB/s", "higher"),
    ("frame.assemble_mbps", "MB/s", "higher"),
    ("hash.crc32c_gbps", "GB/s", "higher"),
    ("replay.calls_replayed", "count", "lower"),
    ("replay.calls_skipped", "count", "lower"),
    ("replay.calls_failed", "count", "lower"),
    ("sim.reintegrate_s", "s", "lower"),
    ("fleet.build_s", "s", "lower"),
    ("fleet.teardown_s", "s", "lower"),
    ("fleet.admitted", "count", "higher"),
    ("fleet.placement_probes", "count", "lower"),
    ("fleet.warm_chunk_share", "ratio", "higher"),
    ("fleet.peak_in_flight", "count", "higher"),
    ("fleet.drain_s", "s", "lower"),
    ("sched.windows", "count", "lower"),
    ("sched.window_events", "count", "higher"),
    ("sched.serial_events", "count", "lower"),
    ("sched.mailbox_ops", "count", "lower"),
    ("sched.parallel_share", "ratio", "higher"),
    ("sched.event_ns", "ns", "lower"),
    ("sched.threaded_drain_s", "s", "lower"),
    ("sched.threaded_speedup", "ratio", "higher"),
    ("fabric.flow_us_64", "us", "lower"),
    ("fabric.flow_us_512", "us", "lower"),
    ("migration.migrate_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

RUN_TIMEOUT_S = 175


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configures (once) and builds the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from the repository "
             "root" % root, 2)
    build_dir = os.path.join(root,
                             os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path, 3)
    return os.path.join(build_dir, "perfbench"), build_dir


def run_binary(binary, args, trace_out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.full:
        cmd.append("--full")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % RUN_TIMEOUT_S, 4)
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode, 4)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("perfbench printed no result", 4)
    return json.loads(lines[-1])


def fmt(value):
    return "n/a" if value is None else "%.6g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="cold_matrix: all 18 x 4 cells")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    binary, build_dir = build(root)
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_out = os.path.join(build_dir, "traces", "%s_seed%d.json"
                                 % (args.workload, args.seed))
    raw = run_binary(binary, args, trace_out)

    host = raw["host"]
    kinds = [p["kind"] for p in raw["passes"]]
    print("workload %s  seed %d  passes: %s"
          % (raw["workload"], raw["seed"],
             ", ".join("%d %s" % (kinds.count(k), k)
                       for k in ("plain", "traced", "threaded")
                       if k in kinds)))
    print("host: nproc %d, threads %d (threaded pass %d), %s, %s build"
          % (host["nproc"], host["threads"], host["threaded_pass_threads"],
             host["compiler"], host["build_type"]))
    print("sim_digest %s" % raw["passes"][0]["digest"])

    attempted, failed, _, messages = stats.operation_counts(raw)
    errors = messages + stats.run_checks(raw, root)
    e2e = stats.end_to_end(raw)
    print("end-to-end (host clock: set-up, migrate, rss; sim clock: the rest)")
    for name, (value, unit, note) in e2e.items():
        print("  %-24s %14s %-6s %s" % (name, fmt(value), unit, note))

    if args.trace:
        layers = raw.get("layers", {})
        missing = [n for n, _, _ in PER_LAYER if n not in layers]
        if missing:
            errors.append("traced run lacks per-layer metrics %s" % missing)
        print("per-layer (traced run; host spans in %s)" % trace_out)
        for name, unit, _ in PER_LAYER:
            print("  %-28s %14s %s" % (name, fmt(layers.get(name)), unit))
        metrics = {n: {"value": layers.get(n), "unit": u}
                   for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n][0], "unit": u}
                   for n, u, _, _ in END_TO_END}

    for e in errors:
        print("CHECK FAILED: " + e)
    correct = not errors
    print("checks: %s (%d attempted, %d failed)"
          % ("ok" if correct else "FAILED", attempted, failed))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
