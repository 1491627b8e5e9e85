"""Tests for the benchmark itself (not for the program it measures).

    python3 -m unittest discover -s perfbench/tests -v

from the repository root. Runs every workload through perfbench/run.py at
a short --seconds, untraced and traced (about three minutes in all: an
mpc_online run is always one whole 200-window cycle), and
checks that
  * every metric printed, by name and unit, matches BENCHMARK.json;
  * the same seed gives the same generated inputs and the same command
    digest, and different seeds give different inputs;
  * in every traced window or batch the self times of the spans sum to no
    more than the group's end-to-end span.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SECONDS = "1"
SEED = 7
OTHER_SEED = 8

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

_runs = {}


def run(workload, seed, trace):
    """One run through the entry point: (comment lines, info, result)."""
    key = (workload, seed, trace)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=600)
        if done.returncode != 0:
            raise AssertionError(f"{key} failed:\n{done.stderr[-3000:]}")
        lines = done.stdout.strip().splitlines()
        info = {}
        for line in lines:
            m = re.match(r"# info (\S+) = (.*)$", line)
            if m:
                info[m.group(1)] = m.group(2)
        _runs[key] = (lines[:-1], info, json.loads(lines[-1]))
    return _runs[key]


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def check(self, trace, declared):
        units = {m["name"]: m["unit"] for m in declared}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                comments, _, result = run(workload, SEED, trace)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), list(units))
                for name, entry in result["metrics"].items():
                    self.assertEqual(entry["unit"], units[name], name)
                printed = {}
                for line in comments:
                    m = re.match(r"# metric (\S+) = \S+ (\S+)$", line)
                    if m:
                        printed[m.group(1)] = m.group(2)
                self.assertEqual(printed, units)

    def test_end_to_end(self):
        self.check(0, BENCH["end_to_end"])
        for workload in WORKLOADS:
            metrics = run(workload, SEED, 0)[2]["metrics"]
            for name, entry in metrics.items():
                self.assertGreater(entry["value"], 0, f"{workload} {name}")

    def test_per_layer(self):
        self.check(1, BENCH["per_layer"])


class SeedsDetermineInputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_commands(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced = run(workload, SEED, 0)[1]
                traced = run(workload, SEED, 1)[1]
                self.assertEqual(untraced["input_digest"],
                                 traced["input_digest"])
                if "command_digest" in untraced:
                    self.assertEqual(untraced["command_digest"],
                                     traced["command_digest"])
        self.assertIn("command_digest", run("mpc_online", SEED, 0)[1])

    def test_different_seeds_different_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(run(workload, SEED, 0)[1]["input_digest"],
                                    run(workload, OTHER_SEED, 0)[1]["input_digest"])


class TracedSelfTimesFitTheirSpan(unittest.TestCase):
    def test_self_times_sum_within_group_span(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                info = run(workload, SEED, 1)[1]
                with open(os.path.join(ROOT, info["trace_file"])) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                by_id = {e["args"]["id"]: e for e in events}
                covered = defaultdict(list)
                for e in events:
                    parent = e["args"]["parent"]
                    if parent >= 0:
                        p = by_id[parent]
                        lo = max(e["ts"], p["ts"])
                        hi = min(e["ts"] + e["dur"], p["ts"] + p["dur"])
                        if hi > lo:
                            covered[parent].append((lo, hi))
                groups = defaultdict(lambda: [0.0, 0.0])
                for e in events:
                    union, reach = 0.0, e["ts"]
                    for lo, hi in sorted(covered[e["args"]["id"]]):
                        union += max(0.0, hi - max(lo, reach))
                        reach = max(reach, hi)
                    key = (e["tid"], e["args"]["group"])
                    groups[key][0] += e["dur"] - union
                    if e["args"]["parent"] < 0:
                        groups[key][1] += e["dur"]
                for key, (self_sum, root) in groups.items():
                    # Timestamps are printed to the nanosecond.
                    self.assertLessEqual(self_sum, root + 1e-3 * 8, key)


if __name__ == "__main__":
    unittest.main()
