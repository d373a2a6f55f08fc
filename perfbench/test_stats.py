#!/usr/bin/env python3
"""Self-tests for the benchmark's statistics and checks.

    python3 perfbench/test_stats.py

The last test builds the driver (as run.py does) and runs one small unit of
each migration workload twice to show the sim digest repeats exactly.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402
import stats  # noqa: E402


def outcome(app="App", error="", migrated=True, unmigratable=False,
            digest_match=True):
    return {"unit": app + " | combo", "app": app, "error": error,
            "migrated": migrated, "unmigratable": unmigratable,
            "digest_match": digest_match}


def raw_result(workload="cold_matrix", passes=None, seed=1):
    return {"workload": workload, "seed": seed, "full": False,
            "max_units": 0, "passes": passes or [],
            "sim": {"migration_s": [], "perceived_s": [], "wire_bytes": [],
                    "queue_wait_us": []}}


def migration_pass(outcomes, digest="d0", kind="plain"):
    return {"kind": kind, "digest": digest, "run_host_s": 1.0,
            "completed": sum(o["migrated"] for o in outcomes),
            "requested": 0, "refused_at_arrival": 0, "left_over": 0,
            "outcomes": outcomes}


class TailRuleTest(unittest.TestCase):
    def test_no_percentile_below_forty_samples(self):
        value, label, beyond, n = stats.tail(list(range(39)))
        self.assertIsNone(value)
        self.assertIsNone(label)
        self.assertEqual(n, 39)

    def test_p75_needs_ten_beyond(self):
        value, label, beyond, _ = stats.tail(list(range(1, 41)))
        self.assertEqual((value, label, beyond), (30, "p75", 10))

    def test_p90_from_one_hundred(self):
        value, label, beyond, _ = stats.tail(list(range(1, 101)))
        self.assertEqual((value, label, beyond), (90, "p90", 10))
        _, label, _, _ = stats.tail(list(range(1, 1000)))
        self.assertEqual(label, "p90")

    def test_p99_from_one_thousand(self):
        value, label, beyond, _ = stats.tail(list(range(1, 1001)))
        self.assertEqual((value, label, beyond), (990, "p99", 10))

    def test_ties_do_not_count_as_beyond(self):
        # 100 samples, but the top 20 are equal: p90 has nothing beyond it,
        # so the rule falls back to p75.
        values = list(range(80)) + [1000] * 20
        value, label, beyond, _ = stats.tail(values)
        self.assertEqual((value, label, beyond), (74, "p75", 25))


class FailShareTest(unittest.TestCase):
    def test_expected_refusal_is_a_success(self):
        self.assertIsNone(stats.classify(
            outcome("Facebook", migrated=False, unmigratable=True)))

    def test_unexpected_refusal_fails(self):
        self.assertEqual(stats.classify(outcome(migrated=False)),
                         "unexpected refusal")

    def test_unmigratable_app_migrating_fails(self):
        self.assertIsNotNone(stats.classify(outcome(unmigratable=True)))

    def test_digest_mismatch_fails(self):
        self.assertEqual(stats.classify(outcome(digest_match=False)),
                         "restored image digest mismatch")

    def test_error_status_fails(self):
        self.assertTrue(stats.classify(outcome(error="internal: x"))
                        .startswith("error"))

    def test_counts_over_passes(self):
        raw = raw_result(passes=[
            migration_pass([outcome(), outcome(digest_match=False),
                            outcome("Facebook", migrated=False,
                                    unmigratable=True),
                            outcome(migrated=False)]),
            migration_pass([outcome()]),
        ])
        attempted, failed, refused, messages = stats.operation_counts(raw)
        self.assertEqual((attempted, failed, refused), (5, 2, 0))
        self.assertEqual(len(messages), 2)
        self.assertEqual(stats.fail_share(attempted, failed, refused), 0.4)

    def test_fleet_refusals_at_arrival_count(self):
        p = {"kind": "plain", "digest": "d", "run_host_s": 1.0,
             "completed": 90, "requested": 100, "refused_at_arrival": 10,
             "left_over": 0, "outcomes": []}
        attempted, failed, refused, _ = stats.operation_counts(
            raw_result("fleet_100k", [p]))
        self.assertEqual((attempted, failed, refused), (100, 0, 10))
        self.assertEqual(stats.fail_share(attempted, failed, refused), 0.1)


class RunChecksTest(unittest.TestCase):
    def good_cold_pass(self, digest="d0", kind="plain"):
        return migration_pass(
            [outcome("Twitter"),
             outcome("Facebook", migrated=False, unmigratable=True),
             outcome("Subway Surfers", migrated=False, unmigratable=True)],
            digest, kind)

    def test_clean_run_passes(self):
        raw = raw_result(passes=[self.good_cold_pass(),
                                 self.good_cold_pass(kind="traced")])
        self.assertEqual(stats.run_checks(raw, HERE), [])

    def test_digest_change_between_passes_fails(self):
        raw = raw_result(passes=[self.good_cold_pass("d0"),
                                 self.good_cold_pass("d1", kind="traced")])
        errors = stats.run_checks(raw, HERE)
        self.assertEqual(len(errors), 1)
        self.assertIn("differ between passes", errors[0])

    def test_refused_set_must_be_the_two_apps(self):
        raw = raw_result(passes=[migration_pass(
            [outcome("Facebook", migrated=False, unmigratable=True)])])
        self.assertIn("refused set", stats.run_checks(raw, HERE)[0])

    def test_fleet_accounting(self):
        p = {"kind": "plain", "digest": "d", "run_host_s": 1.0,
             "completed": 89, "requested": 100, "refused_at_arrival": 10,
             "left_over": 1, "outcomes": []}
        errors = stats.run_checks(raw_result("fleet_100k", [p]), HERE)
        self.assertEqual(len(errors), 2)


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_run_py(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in bench["end_to_end"]],
                         [tuple(m) for m in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]],
                         [tuple(m) for m in run.PER_LAYER])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class SimDigestRepeatsTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        binary, _ = run.build(os.path.dirname(HERE))
        for workload in ("cold_matrix", "warm_pingpong"):
            digests = []
            for _ in range(2):
                out = subprocess.run(
                    [binary, "--workload", workload, "--seed", "7",
                     "--seconds", "0", "--trace", "0", "--max-units", "1"],
                    stdout=subprocess.PIPE, check=True).stdout
                raw = json.loads(out.decode().strip().splitlines()[-1])
                digests.append(raw["passes"][0]["digest"])
            self.assertEqual(digests[0], digests[1], workload)


if __name__ == "__main__":
    unittest.main()
