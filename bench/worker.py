"""Run one benchmark workload in a closed loop and write its measurements.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --scratch DIR --result FILE

``run.py`` starts this in a fresh interpreter with ``src`` on PYTHONPATH
and BLAS/OpenMP threads pinned to 1.  One client sends the next operation
only after the previous one returned.  A pass is the workload's full list
of operations; passes repeat until the next one would end after
``--seconds``.  Each operation is timed alone, and its output is checked
after the clock stops.  The result file holds the per-pass wall times,
the operation counts and the peak resident memory.

With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is taken between neighbouring passes, and the result also holds
the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import nlchern
from nlchern import cli, spectrum
from nlchern.model import KPoint, ModelParams

import speed
from spans import Tracer
from workloads import (
    CHECKS,
    CLI_WORKLOADS,
    DYNAMICS_STEPS,
    WORKLOADS,
    check_pairs,
    edge_family_sizes,
    edge_points,
    trajectory_norm_drift,
)


class Tally:
    """Operation outcomes.

    ``failed`` counts operations that raised, exited non-zero or gave an
    output that contradicts its reference value.  ``ok`` counts operations
    that also meet the spectrum invariants; on spectrum-edge the ROADMAP
    item 2 defect makes the two differ.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.reasons: Counter = Counter()

    def record(self, label: str, reason: str | None, failed: bool) -> None:
        self.attempted += 1
        if reason is None:
            self.ok += 1
            return
        self.failed += failed
        self.reasons[f"{label}: {reason}"] += 1


def spectrum_checks(spectra) -> tuple[int, int, float]:
    """(calls failing the invariants, calls, largest residual) of traced calls."""
    bad, worst = 0, 0.0
    for u, U, kx, ky, result in spectra:
        if isinstance(result, Exception):
            bad += 1
            continue
        reason, residual = check_pairs(u, U, kx, ky, result)
        bad += reason is not None
        worst = max(worst, residual)
    return bad, len(spectra), worst


def run_cli_pass(ops, scratch: Path, tally: Tally, probe: speed.Probe) -> tuple[float, int]:
    """One pass over CLI commands; returns (raw wall seconds, bytes written)."""
    wall, written = 0.0, 0
    for name, argv in ops:
        out = scratch / name
        shutil.rmtree(out, ignore_errors=True)
        probe.start()
        t0 = perf_counter()
        try:
            code = cli.main([*argv, "--out", str(out)])
            reason = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # counted as a failed operation, never aborts the run
            reason = f"raised {type(exc).__name__}"
        kernel_s = probe.stop()
        wall += perf_counter() - t0 - kernel_s
        if reason is not None:
            tally.record(name, reason, failed=True)
            continue
        try:
            reason = CHECKS[name](out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        tally.record(name, reason, failed=True)
        written += sum(f.stat().st_size for f in out.iterdir())
    return wall, written


def run_edge_pass(points, tally: Tally, probe: speed.Probe) -> float:
    """One pass of physical_spectrum calls over the seeded points; returns raw wall seconds."""
    physical_spectrum = spectrum.physical_spectrum   # the traced binding, if installed
    results = []
    probe.start()
    t0 = perf_counter()
    for _, u, U, kx, ky in points:
        try:
            results.append(physical_spectrum(ModelParams(u, U), KPoint(kx, ky)))
        except Exception as exc:  # counted as a failed operation, never aborts the run
            results.append(exc)
    kernel_s = probe.stop()
    wall = perf_counter() - t0 - kernel_s
    for (family, u, U, kx, ky), result in zip(points, results):
        if isinstance(result, Exception):
            tally.record(family, f"raised {type(result).__name__}", failed=True)
        else:
            tally.record(family, check_pairs(u, U, kx, ky, result)[0], failed=False)
    return wall


def layer_metrics(tracer: Tracer, factor: float, written: int, scratch: Path) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and its physical_spectrum durations.

    Span times are rescaled by the pass's machine-speed factor.
    """
    stats, nested, durations = tracer.take(factor)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    bad, checked, worst = spectrum_checks(tracer.spectra)
    tracer.spectra.clear()
    nodes = nested[("spectrum.band_surface", "spectrum.physical_spectrum")]
    rows = steps = 0
    drift = 0.0
    try:  # a failed command leaves no output; its failure is counted by the checks
        if calls("response.pumped_charge"):
            summary = json.loads((scratch / "response" / "response.json").read_text())
            rows, steps = summary["n_kx"], summary["steps"]
        if calls("dynamics.evolve"):
            drift = trajectory_norm_drift(scratch / "dynamics")[1]
    except (OSError, ValueError, KeyError, IndexError):
        pass
    cli_names = [n for n in stats if n.startswith("cli.main.")]

    m = {
        "model.bloch_vector.calls": tracer.counts.pop("model.bloch_vector", 0),
        "spectrum.solve_quartic.calls": calls("spectrum.solve_quartic"),
        "spectrum.solve_quartic.self_s": self_s("spectrum.solve_quartic"),
        "spectrum.physical_spectrum.calls": calls("spectrum.physical_spectrum"),
        "spectrum.physical_spectrum.self_s": self_s("spectrum.physical_spectrum"),
        "spectrum.physical_spectrum.failed": bad,
        "spectrum.physical_spectrum.ok_ratio": (checked - bad) / checked if checked else 0.0,
        "spectrum.max_residual": worst,
        "spectrum.band_surface.s": total("spectrum.band_surface"),
        "spectrum.band_surface.us_per_node": 1e6 * total("spectrum.band_surface") / nodes if nodes else 0.0,
        "spectrum.classify_degeneracies.s": total("spectrum.classify_degeneracies"),
        "effective.gap_closing_search.s": total("effective.gap_closing_search"),
        "effective.count_iii_points.calls": calls("effective.count_iii_points"),
        "effective.count_iii_points.self_s": self_s("effective.count_iii_points"),
        "dynamics.evolve.s": total("dynamics.evolve"),
        "dynamics.evolve.self_s": self_s("dynamics.evolve"),
        "dynamics.evolve.us_per_step": (
            1e6 * self_s("dynamics.evolve") / DYNAMICS_STEPS if calls("dynamics.evolve") else 0.0
        ),
        "dynamics.max_norm_drift": drift,
        "response.pumped_charge.s": total("response.pumped_charge"),
        "response.sweep_initial_states.s": total("response.sweep_initial_states"),
        "response.loop.us_per_row_step": (
            1e6 * self_s("response.pumped_charge") / (rows * steps) if rows * steps else 0.0
        ),
        "response.rows": rows,
        "response.steps": steps,
        "response.phase_diagram.s": total("response.phase_diagram"),
        "cli.io_s": sum(self_s(n) for n in cli_names),
        "cli.bytes_written": written,
        "trace.self_sum_s": sum(s[2] for s in stats.values()),
    }
    for command in ("bands", "degeneracies", "gap", "dynamics", "response", "phase-diagram"):
        m[f"cli.main.{command}.s"] = total(f"cli.main.{command}")
    return m, durations


def percentile_us(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return 1e6 * values[min(len(values) - 1, int(q * len(values)))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src" / "nlchern"
    if Path(nlchern.__file__).resolve().parent != src:
        print(f"error: imported nlchern from {nlchern.__file__}, not from {src}", file=sys.stderr)
        return 2

    # warm-up outside the timed passes; the first call pays lazy set-up
    spectrum.physical_spectrum(ModelParams(1.0, 4.0), KPoint(0.3, 0.7))

    details: dict = {}
    if args.workload == "spectrum-edge":
        points = edge_points(args.seed)
        details["edge_families"] = edge_family_sizes()
    probe = speed.Probe()
    # spans are timed on the probe's clock, which leaves out its kernel runs
    tracer = Tracer(probe.clock) if args.trace else None

    tally = Tally()
    raw_s, factors, pass_s, untraced_s, layers, durations = [], [], [], [], [], []
    traced = False   # a traced run alternates untraced and traced passes, untraced first
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        written = 0
        if args.workload == "spectrum-edge":
            wall = run_edge_pass(points, tally, probe)
        else:
            wall, written = run_cli_pass(CLI_WORKLOADS[args.workload], args.scratch, tally, probe)
        factor = probe.take_factor()
        if tracer is not None and not traced:
            untraced_s.append(wall * factor)
        else:
            raw_s.append(wall)
            factors.append(factor)
            pass_s.append(wall * factor)
        if traced:
            m, d = layer_metrics(tracer, factor, written, args.scratch)
            layers.append(m)
            durations.extend(d)
        # stop when one more pass like the last would end after --seconds;
        # a traced run counts in pairs of passes and ends on a traced one
        now = perf_counter()
        if tracer is None:
            if now - start + (now - t_pass) > args.seconds:
                break
            continue
        if traced and now - start + 2 * (now - t_pass) > args.seconds:
            break
        traced = not traced
        if traced:
            tracer.install()
        else:
            tracer.uninstall()

    result = {
        "pass_s": pass_s,
        "raw_pass_s": raw_s,
        "factors": factors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ok": tally.ok,
        "reasons": dict(tally.reasons.most_common(20)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **details,
    }
    if tracer is not None:
        result["untraced_pass_s"] = untraced_s
        per_layer = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        per_layer["spectrum.physical_spectrum.p50_us"] = percentile_us(durations, 0.50)
        per_layer["spectrum.physical_spectrum.p99_us"] = percentile_us(durations, 0.99)
        result["per_layer"] = per_layer
        result["spans_last_pass"] = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.last_spans
        ]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
