"""Statistics and output checks for the benchmark.

Pure functions over the raw result the perfbench binary prints: host
samples, per-operation outcomes, per-pass sim digests and the first pass's
simulated outputs. perfbench/test_stats.py covers them.
"""

import json
import math
import os
import statistics

MIB = 1024.0 * 1024.0

# Tail rule: report the highest of these percentiles that has at least
# MIN_BEYOND samples strictly above it.
TAIL_PERCENTILES = (99, 90, 75)
MIN_BEYOND = 10

# The two Table 3 apps the paper refuses to migrate.
EXPECTED_REFUSALS = ["Facebook", "Subway Surfers"]


def median(values):
    return statistics.median(values) if values else None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """Highest of p99/p90/p75 with >= MIN_BEYOND samples beyond it.

    Returns (value, label, beyond, n); value and label are None when no
    percentile qualifies (fewer samples than the rule needs).
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n == 0:
            break
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= MIN_BEYOND:
            return value, "p%d" % p, beyond, n
    return None, None, 0, n


def classify(outcome):
    """None for a successful operation, else why it failed.

    A completed migration must have restored the byte-identical image; a
    refusal is a success only for an unmigratable app.
    """
    if outcome["error"]:
        return "error: " + outcome["error"]
    if outcome["migrated"]:
        if outcome["unmigratable"]:
            return "unmigratable app migrated"
        if not outcome["digest_match"]:
            return "restored image digest mismatch"
        return None
    if outcome["unmigratable"]:
        return None
    return "unexpected refusal"


def operation_counts(raw):
    """(attempted, failed operations, fleet refusals at arrival, messages)
    over every pass of the run."""
    attempted = failed = refused = 0
    messages = []
    for p in raw["passes"]:
        refused += p["refused_at_arrival"]
        if raw["workload"] == "fleet_100k":
            attempted += p["requested"]
            continue
        for o in p["outcomes"]:
            attempted += 1
            why = classify(o)
            if why is not None:
                failed += 1
                messages.append("%s: %s" % (o["unit"], why))
    return attempted, failed, refused, messages


def fail_share(attempted, failed, refused_at_arrival):
    """Failed operations over attempted ones. A fleet request refused at
    arrival counts as failed here (it never ran)."""
    if attempted == 0:
        return 1.0
    return (failed + refused_at_arrival) / attempted


def refused_apps(pass_result):
    return sorted(o["app"] for o in pass_result["outcomes"]
                  if not o["error"] and not o["migrated"])


def _golden(root, name):
    with open(os.path.join(root, name)) as f:
        return json.load(f)


def run_checks(raw, root):
    """Run-level checks; returns a list of failure messages."""
    errors = []
    passes = raw["passes"]
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        errors.append("sim outputs differ between passes of one run "
                      "(%d distinct digests)" % len(digests))
    workload = raw["workload"]
    first = passes[0]
    sim = raw["sim"]
    if workload == "cold_matrix" and raw["max_units"] == 0:
        if refused_apps(first) != EXPECTED_REFUSALS:
            errors.append("refused set %s is not %s"
                          % (refused_apps(first), EXPECTED_REFUSALS))
    if workload == "fleet_100k":
        for p in passes:
            if p["completed"] + p["refused_at_arrival"] != p["requested"]:
                errors.append("fleet: completed %d + refused %d != "
                              "requested %d" % (p["completed"],
                                                p["refused_at_arrival"],
                                                p["requested"]))
            if p["left_over"] != 0:
                errors.append("fleet: %d operations left after the drain"
                              % p["left_over"])
    if raw["seed"] != 0:
        return errors
    # Committed goldens reproduce at the default seed only.
    if workload == "cold_matrix" and raw["full"]:
        g = _golden(root, "BENCH_pipeline.json")
        got = (first["completed"],
               "%.4f" % statistics.fmean(sim["migration_s"]),
               "%.4f" % statistics.fmean(sim["perceived_s"]))
        want = (g["migrations_per_mode"], "%.4f" % g["mean_total_serial_s"],
                "%.4f" % g["mean_perceived_serial_s"])
        if got != want:
            errors.append("BENCH_pipeline.json serial golden: got %s, want %s"
                          % (got, want))
    if workload == "fleet_100k":
        g = next(s for s in _golden(root, "BENCH_fleet.json")["scales"]
                 if s["devices"] == 100000)
        got = (first["completed"], first["refused_at_arrival"],
               "%.1f" % (sum(sim["wire_bytes"]) / MIB))
        want = (g["completed"], g["refused"], "%.1f" % g["wire_mb"])
        if got != want:
            errors.append("BENCH_fleet.json 100k golden: got %s, want %s"
                          % (got, want))
    return errors


def end_to_end(raw):
    """Every end-to-end metric the workload defines, as
    name -> (value, unit, note). Host metrics use the plain passes only,
    not the traced ones or a traced fleet run's threaded pass."""
    plain = [p for p in raw["passes"] if p["kind"] == "plain"]
    sim = raw["sim"]
    fleet = raw["workload"] == "fleet_100k"
    m = {}
    m["setup_s"] = (median(raw["setup_s"]), "s",
                    "median of %d set-ups" % len(raw["setup_s"]))
    # Median over passes, so one slow pass (first-touch, a noisy
    # neighbour) does not move the figure.
    m["migrations_per_host_s"] = (
        median([p["completed"] / p["run_host_s"] for p in plain
                if p["run_host_s"] > 0]) or 0.0, "1/s",
        "median over %d passes of completed / run-phase host s" % len(plain))
    if fleet:
        per_pass = plain[0]["completed"]
        per_drain = [1e3 * d / per_pass for d in raw["drain_s"]]
        m["migrate_host_ms_p50"] = (median(per_drain), "ms",
                                    "median over %d drains of drain ms / "
                                    "completion" % len(per_drain))
    else:
        host_ms = [1e3 * s for s in raw["migrate_s"]]
        m["migrate_host_ms_p50"] = (median(host_ms), "ms",
                                    "median of %d Migrate calls"
                                    % len(host_ms))
        value, label, beyond, n = tail(host_ms)
        m["migrate_host_ms_tail"] = (value, "ms", _tail_note(label, beyond,
                                                             n))
    m["peak_rss_mb"] = (raw["peak_rss_mb"], "MB", "")
    m["sim_migration_s_p50"] = (median(sim["migration_s"]), "s",
                                "median of %d" % len(sim["migration_s"]))
    if not fleet:
        m["sim_perceived_s_p50"] = (median(sim["perceived_s"]), "s", "")
        value, label, beyond, n = tail(sim["perceived_s"])
        m["sim_perceived_s_tail"] = (value, "s", _tail_note(label, beyond, n))
    m["wire_mb_per_migration"] = (
        statistics.fmean(sim["wire_bytes"]) / MIB if sim["wire_bytes"]
        else 0.0, "MB", "")
    if fleet:
        waits_ms = [w / 1e3 for w in sim["queue_wait_us"]]
        m["queue_wait_ms_p50"] = (median(waits_ms), "ms",
                                  "exact, %d records" % len(waits_ms))
        m["queue_wait_ms_p99"] = (percentile(waits_ms, 99), "ms",
                                  "exact, nearest rank")
    attempted, failed, refused, _ = operation_counts(raw)
    m["fail_share"] = (fail_share(attempted, failed, refused), "ratio",
                       "(%d failed + %d refused at arrival) / %d attempted"
                       % (failed, refused, attempted))
    return m


def _tail_note(label, beyond, n):
    if label is None:
        return "no percentile has %d samples beyond it (n=%d)" % (MIN_BEYOND,
                                                                   n)
    return "%s, %d beyond, n=%d" % (label, beyond, n)
