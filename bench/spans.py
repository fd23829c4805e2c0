"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public functions of the ``nlchern`` modules with
wrappers that record one span per call: name, start, end and parent.
Every binding of a function is replaced, including the names modules
import from each other (``nlchern.cli.band_surface`` is the same function
as ``nlchern.spectrum.band_surface``), so a call is traced whichever
module makes it; ``uninstall`` puts the originals back.  Spans stay in
memory; ``take`` aggregates and clears them after each pass.  Nothing
inside ``src/`` is changed.
"""

from __future__ import annotations

import sys
from collections import Counter

# module -> public functions that get a span, named "<module>.<function>"
SPANNED = {
    "spectrum": ("solve_quartic", "physical_spectrum", "band_surface", "classify_degeneracies"),
    "effective": ("gap_closing_search", "count_iii_points"),
    "dynamics": ("evolve",),
    "response": ("pumped_charge", "sweep_initial_states", "phase_diagram"),
    "cli": ("main",),
}
# called too often for a span each; counted only
COUNTED = {"model": ("bloch_vector",)}


class Tracer:
    """Records spans timed on ``clock``, a perf_counter-like function."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # (u, U, kx, ky, pairs or exception) of every physical_spectrum call
        self.spectra: list[tuple] = []
        self.last_spans: list[list] = []   # the spans taken last, kept for the trace file
        self._bindings: list[tuple] = []   # (module, attribute, original, wrapper)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    def _wrap(self, name: str, fn):
        if name == "cli.main":
            def traced(argv=None):
                # one span name per subcommand: cli.main.bands, cli.main.gap, ...
                idx = self._open(f"cli.main.{argv[0]}")
                try:
                    return fn(argv)
                finally:
                    self._close(idx)
        elif name == "spectrum.physical_spectrum":
            def traced(params, k):
                idx = self._open(name)
                try:
                    result = fn(params, k)
                except Exception as exc:
                    self._close(idx)
                    self.spectra.append((params.u, params.U, k.kx, k.ky, exc))
                    raise
                self._close(idx)
                self.spectra.append((params.u, params.U, k.kx, k.ky, result))
                return result
        else:
            def traced(*args, **kwargs):
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Rebind every traced function in nlchern and its modules."""
        if not self._bindings:
            replace = {}
            for table, make in ((SPANNED, self._wrap), (COUNTED, self._count)):
                for mod, names in table.items():
                    home = sys.modules[f"nlchern.{mod}"]
                    for fname in names:
                        fn = getattr(home, fname)
                        replace[id(fn)] = (fn, make(f"{mod}.{fname}", fn))
            for name, module in list(sys.modules.items()):
                if name != "nlchern" and not name.startswith("nlchern."):
                    continue
                for attr, value in vars(module).items():
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._bindings.append((module, attr, *hit))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back the functions that ``install`` replaced."""
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def take(self, factor: float):
        """Aggregate and clear the spans recorded since the last call.

        Returns (per-name [calls, total_s, self_s], per (parent, child)
        name call counts, physical_spectrum call durations).  Self time is
        a span's duration minus the durations of its direct children;
        calls are single-threaded, so children never overlap.  Every time
        is multiplied by ``factor``, the machine-speed rescaling of
        speed.py.
        """
        spans = self.last_spans = self.spans
        self.spans = []
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict[str, list] = {}
        nested: Counter = Counter()
        durations = []
        for i, (name, start, end, parent) in enumerate(spans):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += factor * (end - start)
            s[2] += factor * (end - start - child_s[i])
            if parent >= 0:
                nested[(spans[parent][0], name)] += 1
            if name == "spectrum.physical_spectrum":
                durations.append(factor * (end - start))
        return stats, nested, durations
