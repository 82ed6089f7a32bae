"""Spans and counters around the library's layers, installed from outside it.

`Tracer.install()` swaps each traced function for a timing wrapper in every
loaded `coherence_bounds` module namespace that holds it, so calls from one
module into another are seen as well as calls from the benchmark. It also
wraps `numpy.linalg.eigvalsh` and `numpy.linalg.eigh`, which is where every
spectrum of the library is computed. `remove()` puts the originals back. The
library itself is never edited.
"""
from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Span name -> (attribute holder, attribute). "pkg" is the package namespace,
# other holders are submodules of coherence_bounds.
LAYERS = {
    "states.make_density": ("pkg", "make_density"),
    "entropy.von_neumann": ("pkg", "von_neumann_entropy"),
    "measurement.measure": ("pkg", "measure"),
    "coherence.unilateral_coherence": ("pkg", "unilateral_coherence"),
    "correlations.holevo": ("pkg", "holevo"),
    "correlations.classical_correlation": ("pkg", "classical_correlation"),
    "bounds.evaluate_all": ("pkg", "evaluate_all"),
    "cli.render_figure": ("cli", "render_figure_csv"),
    "checks.generate_cases": ("checks", "generate_cases"),
}
EIG_FUNCTIONS = ("eigvalsh", "eigh")
EIG = "linalg.eig"
OPTIMIZER = "correlations.classical_correlation"
REPORT = "bounds.evaluate_all"


class Tracer:
    """Per-call durations, call counts and the exact work counters of the traced layers.

    counts holds, per span name, the number of calls, plus "eig_matrices"
    (batch sizes summed over eigensolver calls) and "optimizer_evals" (summed
    DiscordResult.optimizer_evals). seconds holds cumulative time per span.
    """

    def __init__(self, lib):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        # evaluate_all time not spent inside classical_correlation, one entry per call.
        self.outside_optimizer: list[float] = []
        self._patches = self._plan(lib)

    def _plan(self, lib) -> list[tuple[object, str, object]]:
        namespaces = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "coherence_bounds"]
        patches = []
        for span, (holder, attr) in LAYERS.items():
            original = getattr(getattr(lib, holder), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            for module in namespaces:
                if vars(module).get(attr) is original:
                    patches.append((module, attr, wrapper))
        for attr in EIG_FUNCTIONS:
            patches.append((np.linalg, attr, self._wrap_eig(getattr(np.linalg, attr))))
        return patches

    def install(self) -> None:
        self._saved = [(holder, attr, getattr(holder, attr)) for holder, attr, _ in self._patches]
        for holder, attr, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def remove(self) -> None:
        for holder, attr, original in self._saved:
            setattr(holder, attr, original)

    def _wrap(self, span: str, fn):
        durations, seconds, counts = self.durations[span], self.seconds, self.counts
        outside = self.outside_optimizer
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner_before = seconds[OPTIMIZER]
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            durations.append(dt)
            seconds[span] += dt
            counts[span] += 1
            if span == OPTIMIZER:
                counts["optimizer_evals"] += int(getattr(result, "optimizer_evals", 0))
            elif span == REPORT:
                outside.append(dt - (seconds[OPTIMIZER] - inner_before))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_eig(self, fn):
        seconds, counts = self.seconds, self.counts
        clock = time.perf_counter

        def traced(a, *args, **kwargs):
            t0 = clock()
            result = fn(a, *args, **kwargs)
            seconds[EIG] += clock() - t0
            counts[EIG] += 1
            counts["eig_matrices"] += math.prod(np.shape(a)[:-2])
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> tuple[Counter, Counter]:
        return Counter(self.counts), Counter(self.seconds)

