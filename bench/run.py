"""Benchmark of the nlchern engine.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (one closed-loop client each; workloads.py holds the inputs and
the reference checks, worker.py runs them in a fresh interpreter):

  statics        the README's five static commands through cli.main
  spectrum-edge  seeded physical_spectrum calls, two thirds of them on the
                 degenerate sets (polar momenta, the dz = 0 contour)
  response       the README response command (50 columns, one cycle)
  dynamics       the README dynamics command (one diagonal cycle)

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

  wall_s       median seconds per pass
  setup_s      median seconds from a fresh interpreter to nlchern imported
               and one call returned, over several interpreters
  peak_rss_mb  peak resident memory of the workload process
  ok_rate      share of operations that pass every check, including the
               spectrum invariants of ROADMAP item 2 on spectrum-edge

Times are rescaled to a reference machine speed by a calibration kernel
(speed.py) that runs during each pass and in each set-up interpreter; the
raw seconds are in the detail line.  ``failed`` counts operations that raised, exited non-zero or gave
an output that contradicts its reference value, and ``correct`` is true
when there are none.  Calls that only break the spectrum invariants lower
``ok_rate`` but are not counted in ``failed``.

With ``--trace 1`` untraced and traced passes alternate in one worker,
and the line carries the per-layer metrics of the traced passes
(spans.py) and the tracing overhead.  The spans of the last traced pass
are written to .bench_out/.  The line before the result records the environment, the
pass times and the reasons of failed checks.  Metric names and units are
those of BENCHMARK.json.

Exit codes: 0 result printed, 1 a worker failed, 2 the checkout has no
nlchern sources or no BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 15
# time.monotonic is one system-wide clock on Linux, so the child can stop
# the clock the parent started; waiting for the child's exit would add
# subprocess's polling steps of up to 50 ms.  The child then measures its
# own machine-speed factor, so each sample is rescaled by the speed it ran at.
SETUP_CODE = (
    "from nlchern import KPoint, ModelParams, physical_spectrum\n"
    "physical_spectrum(ModelParams(1.0, 4.0), KPoint(0.3, 0.7))\n"
    "import time; t = time.monotonic()\n"
    f"import sys; sys.path.insert(0, {str(BENCH)!r}); import speed\n"
    "print(repr(t), repr(speed.factor()))\n"
)
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The parent's environment with src importable and one BLAS/OpenMP thread."""
    return dict(
        os.environ,
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall time from a fresh interpreter to nlchern imported and one call returned.

    Returns the raw samples and each child's machine-speed factor.
    """
    raw, factors = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        t1, factor = map(float, child.stdout.split())
        raw.append(t1 - t0)
        factors.append(factor)
    return raw, factors


def run_worker(workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> dict:
    scratch = Path(tempfile.mkdtemp(dir=workdir))
    result = scratch / "result.json"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--scratch", str(scratch), "--result", str(result)],
        cwd=ROOT, env=child_env(), stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(result.read_text())


def environment() -> dict:
    """Code identity and machine state before the run."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nlchern").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nlchern benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nlchern" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/nlchern package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment()}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        if args.trace:
            run = run_worker(args.workload, args.seed, args.seconds, 1, workdir)
            values = dict(run.pop("per_layer"))
            values["trace.wall_s"] = statistics.median(run["pass_s"])
            values["trace.untraced_wall_s"] = statistics.median(run["untraced_pass_s"])
            values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
            spans_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(run.pop("spans_last_pass")))
            record["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            setup_raw, setup_factors = setup_seconds()
            run = run_worker(args.workload, args.seed, args.seconds, 0, workdir)
            values = {
                "wall_s": statistics.median(run["pass_s"]),
                "setup_s": statistics.median(t * f for t, f in zip(setup_raw, setup_factors)),
                "peak_rss_mb": run["peak_rss_mb"],
                "ok_rate": run["ok"] / run["attempted"],
            }
            record["raw_setup_s_samples"] = setup_raw
            record["setup_factors"] = setup_factors
            record["wall_s_quartiles"] = quartiles(run["pass_s"])
            record["raw_wall_s_quartiles"] = quartiles(run["raw_pass_s"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    record["run"] = run
    attempted, failed = run["attempted"], run["failed"]
    print(json.dumps({"detail": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
