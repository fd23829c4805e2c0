"""Tests of the benchmark itself: inputs, checks and printed metrics.

    python3 bench/selftest.py

The file name keeps it out of the package's pytest collection; it takes
about ten seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402
from nlchern import KPoint, ModelParams, physical_spectrum  # noqa: E402


def write_csv(path: Path, header, rows) -> None:
    path.write_text("\n".join(",".join(map(str, r)) for r in [header, *rows]) + "\n")


class EdgeInputs(unittest.TestCase):
    def test_same_seed_same_points(self):
        self.assertEqual(W.edge_points(7), W.edge_points(7))
        self.assertNotEqual(W.edge_points(7), W.edge_points(8))

    def test_family_counts(self):
        sizes = W.edge_family_sizes()
        self.assertEqual(sum(sizes.values()), W.EDGE_POINTS)
        families = [p[0] for p in W.edge_points(3)]
        self.assertEqual({f: families.count(f) for f in sizes}, sizes)

    def test_points_lie_on_their_sets(self):
        for family, u, U, kx, ky in W.edge_points(5):
            dz = u + math.cos(kx) + math.cos(ky)
            if family == "polar_exact":
                self.assertEqual(U, 2.0 * abs(dz))
            if family.startswith("contour"):
                self.assertLess(abs(dz), 1e-12)
            if family == "contour_exact":
                self.assertEqual(U, 2.0 * math.sqrt(math.sin(kx) ** 2 + math.sin(ky) ** 2))


class Checks(unittest.TestCase):
    def setUp(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        self.out = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
        self.addCleanup(shutil.rmtree, self.out)

    def write_json(self, name, payload):
        (self.out / name).write_text(json.dumps(payload))

    def test_pairs(self):
        u, U, kx, ky = 1.0, 4.0, 0.3, 0.7
        pairs = physical_spectrum(ModelParams(u, U), KPoint(kx, ky))
        self.assertIsNone(W.check_pairs(u, U, kx, ky, pairs)[0])
        self.assertIsNotNone(W.check_pairs(u, U, kx, ky, pairs[:1])[0])   # a missing branch
        shifted = [type(p)(p.epsilon + 1e-6, p.kappa, p.state, p.multiplicity) for p in pairs]
        self.assertIsNotNone(W.check_pairs(u, U, kx, ky, shifted)[0])

    def test_response(self):
        self.write_json("response.json", {"nu": W.NU_SEED})
        self.assertIsNone(W.check_response(self.out))
        self.write_json("response.json", {"nu": W.NU_SEED + 1e-3})
        self.assertIsNotNone(W.check_response(self.out))

    def test_bands(self):
        self.write_json("bands_summary.json", {"branch_count_nodes": W.BANDS_HISTOGRAM})
        n_rows = 2 * 6356 + 4 * 205
        write_csv(self.out / "bands.csv", ["kx"], [[0]] * n_rows)
        self.assertIsNone(W.check_bands(self.out))
        write_csv(self.out / "bands.csv", ["kx"], [[0]] * (n_rows - 1))
        self.assertIsNotNone(W.check_bands(self.out))
        self.write_json("bands_summary.json", {"branch_count_nodes": {"2": 6357, "4": 204}})
        self.assertIsNotNone(W.check_bands(self.out))

    def test_degeneracies(self):
        points = [
            {"kind": "I", "kx": kx, "ky": ky,
             "critical_U": 2.0 * abs(1.2 + math.cos(kx) + math.cos(ky))}
            for kx in (0.0, math.pi) for ky in (0.0, math.pi)
        ]
        self.write_json("degeneracies.json", {"points": points})
        self.assertIsNone(W.check_degeneracies(self.out))
        points[2]["critical_U"] += 1e-9
        self.write_json("degeneracies.json", {"points": points})
        self.assertIsNotNone(W.check_degeneracies(self.out))

    def test_gaps(self):
        self.write_json("gap.json", {"critical_value": 4.1995})
        self.assertIsNone(W.check_gap_fix_u(self.out))
        self.assertIsNotNone(W.check_gap_fix_U(self.out))
        self.write_json("gap.json", {"critical_value": 1.0662})
        self.assertIsNone(W.check_gap_fix_U(self.out))
        self.assertIsNotNone(W.check_gap_fix_u(self.out))

    def test_phase_diagram(self):
        rows = [[u / 10, U / 10, "nA" if U / 10 > 2 * abs(abs(u / 10) - 2) else "A"]
                for u in range(60) for U in range(60)]
        write_csv(self.out / "phase_diagram.csv", ["u", "U", "label"], rows)
        self.assertIsNone(W.check_phase_diagram(self.out))
        rows[100][2] = "A" if rows[100][2] == "nA" else "nA"
        write_csv(self.out / "phase_diagram.csv", ["u", "U", "label"], rows)
        self.assertIsNotNone(W.check_phase_diagram(self.out))

    def test_dynamics(self):
        header = ["t", "kx", "ky", "norm"]
        rows = [[0, 0, 0, 1.0]] * W.TRAJECTORY_ROWS
        write_csv(self.out / "trajectory.csv", header, rows)
        self.assertIsNone(W.check_dynamics(self.out))
        write_csv(self.out / "trajectory.csv", header, rows[1:])
        self.assertIsNotNone(W.check_dynamics(self.out))
        write_csv(self.out / "trajectory.csv", header, rows[1:] + [[0, 0, 0, 1.0 + 2e-5]])
        self.assertIsNotNone(W.check_dynamics(self.out))


class SpanTimes(unittest.TestCase):
    def test_self_time_leaves_out_children(self):
        tracer = Tracer(perf_counter)
        tracer.spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 6.0, 0], ["c", 7.0, 7.5, 0]]
        stats, nested, _ = tracer.take(factor=2.0)
        self.assertEqual(stats["a"], [1, 2.0 * 10.0, 2.0 * 5.5])
        self.assertEqual(stats["b"], [1, 2.0 * 4.0, 2.0 * 4.0])
        self.assertEqual(nested, {("a", "b"): 1, ("a", "c"): 1})
        self.assertEqual(tracer.spans, [])

    def test_install_and_uninstall(self):
        import nlchern.cli
        import nlchern.spectrum
        original = nlchern.spectrum.band_surface
        tracer = Tracer(perf_counter)
        tracer.install()
        try:
            self.assertIsNot(nlchern.cli.band_surface, original)
            self.assertIs(nlchern.cli.band_surface, nlchern.spectrum.band_surface)
            physical_spectrum_traced = nlchern.spectrum.physical_spectrum
            physical_spectrum_traced(ModelParams(1.0, 4.0), KPoint(0.3, 0.7))
            self.assertEqual([s[0] for s in tracer.spans][0], "spectrum.physical_spectrum")
        finally:
            tracer.uninstall()
        self.assertIs(nlchern.cli.band_surface, original)
        self.assertIs(nlchern.spectrum.band_surface, original)


class PrintedMetrics(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_bench(self, cwd: Path, trace: int) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "spectrum-edge", "--seed", "1",
             "--seconds", "2", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=120,
        )

    def test_every_metric_by_name_with_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = self.run_bench(ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            declared = {m["name"]: m["unit"] for m in self.spec[group]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, declared)

    def test_fails_without_sources(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
        self.addCleanup(shutil.rmtree, bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = self.run_bench(bare, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
