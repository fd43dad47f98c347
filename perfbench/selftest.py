"""Tests of the benchmark itself (tracing, self time, seeding).

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose: the file name does not
match pytest's collection pattern.  Everything runs on tiny inputs and
writes only under ``.bench_out/selftest``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from spintrack import cli, lqg_filter, numerics, qsme, riccati  # noqa: E402

SCENARIOS = ROOT / "src" / "spintrack" / "scenarios"
WORK = ROOT / ".bench_out" / "selftest"


def tiny_scenario(name: str, src: str, **overrides) -> Path:
    """Copy of a shipped scenario with some keys replaced."""
    lines = []
    for raw in (SCENARIOS / src).read_text().splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if key not in overrides:
            lines.append(raw)
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    path = WORK / name
    path.write_text("\n".join(lines) + "\n")
    return path


def run_verb(verb: str, scenario: Path, out: Path) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([verb, "--scenario", str(scenario), "--out", str(out)])
    assert code == 0, code
    return out.read_bytes()


class TracingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORK.mkdir(parents=True, exist_ok=True)
        cls.cases = [
            ("montecarlo", tiny_scenario("mc.scn", "montecarlo_matched.scn",
                                         trials=16, T=5e-10)),
            ("montecarlo", tiny_scenario("mc_steady.scn", "transfer_function_comparison.scn",
                                         trials=16, T=5e-10)),
            ("simulate", tiny_scenario("sim.scn", "constant_field_tables.scn", T=1e-6)),
            ("mismatch", SCENARIOS / "mismatch_steady.scn"),
        ]

    def test_wrappers_leave_csv_bytes_unchanged(self):
        for i, (verb, scenario) in enumerate(self.cases):
            plain = run_verb(verb, scenario, WORK / f"plain{i}.csv")
            with spans.Tracer().installed() as tracer:
                traced = run_verb(verb, scenario, WORK / f"traced{i}.csv")
            self.assertEqual(plain, traced, scenario.name)
            self.assertGreater(tracer.summary()["functions"][f"cli.cmd_{verb}"]["calls"], 0)

    def test_wrappers_leave_suite_results_unchanged(self):
        def digest():
            h = hashlib.sha256()
            workloads._fingerprint(qsme.suite_grid_kalman(records=1, T=2.5e-7), h)
            return h.hexdigest()

        plain = digest()
        with spans.Tracer().installed():
            traced = digest()
        self.assertEqual(plain, traced)

    def test_every_binding_is_wrapped_and_restored(self):
        originals = (numerics.trial_normals, numerics.mat_expm, cli._COMMANDS["riccati"],
                     numerics.RngStream.normals_at)
        with spans.Tracer().installed():
            self.assertIs(lqg_filter.trial_normals, numerics.trial_normals)
            self.assertIs(riccati.mat_expm, numerics.mat_expm)
            self.assertIsNot(numerics.trial_normals, originals[0])
            self.assertIsNot(riccati.mat_expm, originals[1])
            self.assertIs(cli._COMMANDS["riccati"], cli.cmd_riccati)
            self.assertIsNot(cli._COMMANDS["riccati"], originals[2])
            self.assertIsNot(numerics.RngStream.normals_at, originals[3])
        self.assertIs(lqg_filter.trial_normals, originals[0])
        self.assertIs(riccati.mat_expm, originals[1])
        self.assertIs(cli._COMMANDS["riccati"], originals[2])
        self.assertIs(numerics.RngStream.normals_at, originals[3])

    def test_counts_from_arguments(self):
        verb, scenario = self.cases[0]
        with spans.Tracer().installed() as tracer:
            run_verb(verb, scenario, WORK / "counts.csv")
        s = tracer.summary()
        n = int(round(5e-10 / 5e-12))
        self.assertEqual(s["counts"]["lqg_filter.run_ensemble.trial_steps"], 16 * n)
        self.assertEqual(s["counts"]["numerics.normals"], 16 * (2 + 2 * n))
        self.assertEqual(s["counts"]["riccati.integrate_estimator_riccati.distinct"], 1)
        self.assertEqual(s["counts"]["cli.write_csv.bytes"], (WORK / "counts.csv").stat().st_size)

    def test_oracle_update_formula_matches_trace(self):
        sizes = {"jx_decay": {"T": 1e-6},
                 "variance_tracking": {"trajectories": 4, "T": 2e-7},
                 "two_point": {"records": 1, "T": 2e-7},
                 "grid_kalman": {"records": 1, "T": 2.5e-7},
                 "ramp_statistics": {"trajectories": 8, "T": 2e-7}}
        for name, fn, _, _ in workloads.ORACLE_SUITES:
            with spans.Tracer().installed() as tracer:
                fn(**sizes[name])
            s = tracer.summary()
            traced = (s["functions"].get("qsme.sme_step", {}).get("calls", 0)
                      + s["counts"].get("qsme.propagate_grid.hyp_steps", 0)
                      + s["counts"].get("qsme.batched_steps", 0))
            expected = workloads.state_updates(name, workloads._suite_args(fn, sizes[name]))
            self.assertEqual(traced, expected, name)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_spans(self):
        # parent [0, 100]; children overlap each other and overrun the parent
        starts = [0, 10, 20, 90, 25]
        ends = [100, 30, 50, 120, 28]
        parents = [-1, 0, 0, 0, 2]
        own = spans.self_times(starts, ends, parents)
        self.assertEqual(own[0], 100 - (40 + 10))   # covered: [10, 50] and [90, 100]
        self.assertEqual(own[2], 30 - 3)
        self.assertEqual(own[1], 20)
        self.assertEqual(own[3], 30)

    def test_live_trace_is_duration_minus_children(self):
        with spans.Tracer().installed() as tracer:
            qsme.suite_two_point(records=1, T=1e-7)
        own = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
        child_sum = [0] * len(own)
        for i, p in enumerate(tracer.parents):
            if p >= 0:
                child_sum[p] += tracer.ends[i] - tracer.starts[i]
        for i in range(len(own)):
            self.assertEqual(own[i], tracer.ends[i] - tracer.starts[i] - child_sum[i])
            self.assertGreaterEqual(own[i], 0)


class SeedTest(unittest.TestCase):
    def seeds(self, name, seed):
        wl = workloads.build(name, seed, ROOT)
        return {op.name: op.inputs.get("seed") for op in wl.ops}

    def test_seed_zero_reproduces_shipped_seeds(self):
        self.assertEqual(self.seeds("ensemble", 0),
                         {"montecarlo_matched": 11, "montecarlo_frozen": 7})
        analysis = self.seeds("analysis", 0)
        self.assertEqual(analysis["simulate"], 42)
        self.assertEqual(analysis["variance_tracking"], 2024)
        self.assertEqual(analysis["grid_kalman"], 4001)
        self.assertEqual(analysis["ramp_statistics"], 5001)

    def test_other_seed_changes_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = self.seeds(name, 0), self.seeds(name, 1)
            self.assertNotEqual(a, b, name)
            self.assertEqual(a, self.seeds(name, 0), name)

    def test_other_seed_changes_output(self):
        ops = {op.name: op for op in workloads.build("analysis", 3, ROOT).ops}
        WORK.mkdir(parents=True, exist_ok=True)
        shipped = run_verb("simulate", SCENARIOS / "constant_field_tables.scn", WORK / "s0.csv")
        other = ops["simulate"].run(WORK)
        self.assertNotEqual(workloads.sha256_bytes(shipped), other["sha256"])


class EmptyCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
