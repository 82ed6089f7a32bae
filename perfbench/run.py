#!/usr/bin/env python3
"""Benchmark of coherence_bounds: end-to-end metrics per workload, or per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz2x2 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop with one caller that times one unit after
another for --seconds, then checks every output (see workloads.py). With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics, which come from spans and counters installed around the library's
layers (see tracing.py). Lines of the form `<workload> <metric> <value>
<unit>` come first; the last line is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs every workload in a
child process, untraced and traced, and prints everything.
`--inject raise|shift|digit` plants a wrong output in the first unit, to show
that the verifier catches it (see selftest.py).

The end-to-end timings are normalised to a reference speed: while a unit
runs, a timer signal runs a fixed reference kernel (plain numpy, no library
code) every REF_INTERVAL seconds, and once more right after the unit; the
unit's time, without those calls, is scaled by REF_MS / (the kernel's mean
time in them). A shared host that runs the process slower for a while slows
both alike, so the ratio holds still where wall time does not. The
wall-clock figures are printed as well.
"""
import os

# Pin BLAS and OpenMP threads before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from tracing import EIG, Tracer
from workloads import CORPUS_SEEDS, ROOT, WORKLOADS, Verdict, import_library, probes

SETUP_REPS = 7
PROBE_CALLS = 5
MAX_MESSAGES = 10
# One reference-kernel call takes REF_MS at reference speed (about its median
# on the 2-vCPU machine the benchmark was written on). It is sampled every
# REF_INTERVAL seconds from a unit's start, so that a unit of a second (a
# figure) is normalised by the speed during it, while units shorter than
# that (fuzz2x2, primitives) are not interrupted and rely on the call after.
REF_MS = 2.0
REF_INTERVAL = 0.04

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s_norm", "1/s"),
    ("item_ms_p50_norm", "ms"),
    ("item_ms_p90_norm", "ms"),
    ("peak_rss_mb", "MB"),
)
# Wall-clock counterparts of the normalised metrics: printed, not gated.
WALL = (
    ("setup_s_wall", "s"), ("items_per_s", "1/s"), ("item_ms_p50", "ms"), ("item_ms_p90", "ms"),
    ("ref_kernel_ms", "ms"),
)
# Span name -> (metric, unit, scale) for the median duration of one call.
CALL_METRICS = {
    "correlations.classical_correlation": ("correlations.classical_correlation_ms", "ms", 1e3),
    "bounds.evaluate_all": ("bounds.evaluate_all_ms", "ms", 1e3),
    "states.make_density": ("states.make_density_us", "us", 1e6),
    "entropy.von_neumann": ("entropy.von_neumann_us", "us", 1e6),
    "measurement.measure": ("measurement.measure_us", "us", 1e6),
    "coherence.unilateral_coherence": ("coherence.unilateral_coherence_us", "us", 1e6),
    "correlations.holevo": ("correlations.holevo_us", "us", 1e6),
    "cli.render_figure": ("cli.render_figure_ms", "ms", 1e3),
    "checks.generate_cases": ("checks.generate_cases_ms", "ms", 1e3),
}
# Counter -> (metric, unit) for exact counts per item over the workload's count set.
COUNT_METRICS = {
    "optimizer_evals": ("correlations.optimizer_evals_per_item", "count"),
    EIG: ("linalg.eig_calls_per_item", "count"),
    "eig_matrices": ("linalg.eig_matrices_per_item", "count"),
    "states.make_density": ("states.make_density_calls_per_item", "count"),
    "measurement.measure": ("measurement.measure_calls_per_item", "count"),
}
UNITS = {
    **dict(END_TO_END),
    **dict(WALL),
    **{name: unit for name, unit, _ in CALL_METRICS.values()},
    **dict(COUNT_METRICS.values()),
    "bounds.outside_optimizer_ms": "ms",
    "linalg.eig_ms_per_item": "ms",
    "trace_overhead_frac": "frac",
    "cli.byte_identical_rows": "count",
}


@dataclass
class Unit:
    """One timed call: the unit run, its items, its duration, and its output or error."""

    unit: object
    items: int
    seconds: float
    output: object = None
    error: str | None = None
    counts: Counter = field(default_factory=Counter)
    eig_seconds: float = 0.0
    ref_ms: float = REF_MS


def _hermitian(rng, *shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return a + np.swapaxes(a, -1, -2).conj()


_REF_RNG = np.random.default_rng(0)
REF_SMALL = _hermitian(_REF_RNG, 4, 4)
REF_STACK = _hermitian(_REF_RNG, 24, 16, 16)


def reference_kernel() -> float:
    """Fixed work of the library's kind, without the library: small spectra,
    entropies and products with Python arithmetic, then one batched 16x16
    eigvalsh (about half the time each)."""
    total = 0.0
    for _ in range(24):
        p = np.linalg.eigvalsh(REF_SMALL)
        p = np.abs(p[np.abs(p) > 1e-12]) / 8.0
        total += float(-(p * np.log2(p)).sum()) + float(np.trace(REF_SMALL @ REF_SMALL).real)
        total += sum(0.5 * j for j in range(16))
    return total + float(np.linalg.eigvalsh(REF_STACK).sum())


class ReferenceSamples:
    """Reference-kernel calls around timed code: one on SIGALRM every
    REF_INTERVAL seconds while the block runs, and one right after it."""

    def __init__(self):
        self.seconds: list[float] = []

    def call(self, *_signal):
        t0 = time.perf_counter()
        reference_kernel()
        self.seconds.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.call)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.call()

    def elapsed(self, t0: float) -> float:
        """Time since t0, without the kernel calls made in it."""
        return time.perf_counter() - t0 - sum(self.seconds)

    def mean_ms(self) -> float:
        return 1e3 * sum(self.seconds) / len(self.seconds)


def environment() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": ",".join(f"{v}={os.environ[v]}" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")),
    }


def set_up(name: str, seed: int):
    """Import the package afresh, build the inputs and warm up; return the workload,
    the time, and the reference kernel's mean time (ms) during and right after."""
    with ReferenceSamples() as ref:
        t0 = time.perf_counter()
        workload = WORKLOADS[name](import_library(), seed)
        workload.warm_up()
        seconds = ref.elapsed(t0)
    return workload, seconds, ref.mean_ms()


def timed(workload, unit, fault: str | None, ref: ReferenceSamples | None = None) -> Unit:
    """Run one unit; with `ref`, the reference-kernel calls made during it are left out of its time."""
    elapsed = ref.elapsed if ref else (lambda t0: time.perf_counter() - t0)
    t0 = time.perf_counter()
    try:
        output, items = workload.run(unit)
        if fault == "raise":
            raise RuntimeError("injected fault")
    except Exception as exc:  # one failing item must not stop the run
        return Unit(unit, workload.expected_items(unit), elapsed(t0), error=repr(exc))
    result = Unit(unit, items, elapsed(t0), output)
    if fault in ("shift", "digit"):
        result.output = workload.corrupt(output, fault)
    return result


@dataclass
class Tally:
    """Verification totals of a loop: items attempted and failed, messages, byte-identical rows."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    identical: list[int] = field(default_factory=list)

    def check(self, workload, u: Unit) -> None:
        """Verify one unit's output, then drop it so memory does not grow with the run."""
        self.attempted += u.items
        if u.error is not None:
            verdict = Verdict(u.items, [f"unit {u.unit!r} raised {u.error}"])
        else:
            verdict = workload.verify(u.unit, u.output)
        self.failed += verdict.failed
        self.messages += verdict.messages[: max(0, MAX_MESSAGES - len(self.messages))]
        self.identical.append(verdict.identical_rows)
        u.output = None


def closed_loop(workload, sequence, seconds: float, fault, step, tally: Tally, interludes=()):
    """Call step(k, unit, fault) on sequence[0], then on whole passes over sequence[1],
    at least one, until `seconds` of loop time pass; return what step returned,
    per call, and the loop time.

    step returns the Units it timed, and each is verified straight away.
    interludes are (due, fn) pairs; fn runs once the loop time reaches `due`,
    or after the loop ends. Verification and interludes are left out of the
    loop time.
    """
    prefix, cycle = sequence
    pending = sorted(interludes, key=lambda item: item[0])
    done = []
    gc.collect()
    start = time.perf_counter()
    paused = 0.0
    k = 0
    while k < len(prefix) + len(cycle) or (k - len(prefix)) % len(cycle) or (
        time.perf_counter() - start - paused < seconds
    ):
        unit = prefix[k] if k < len(prefix) else cycle[(k - len(prefix)) % len(cycle)]
        units = step(k, unit, fault if k == 0 else None)
        t0 = time.perf_counter()
        for u in units:
            tally.check(workload, u)
        done.append(units)
        if pending and t0 - start - paused >= pending[0][0]:
            pending.pop(0)[1]()
        paused += time.perf_counter() - t0
        k += 1
    elapsed = time.perf_counter() - start - paused
    for _, fn in pending:
        fn()
    return done, elapsed


def untraced(workload, seconds: float, fault, setup_times: list[tuple[float, float]], tally: Tally):
    """The end-to-end metrics, from each unit's median time over its visits.

    The loop makes whole passes, so every unit is visited equally often, and
    a unit's median is not moved by a stretch of the run in which the shared
    machine was slower. Each visit's time is scaled to reference speed by the
    reference kernel's mean time during and right after it (the *_norm
    metrics). The set-up is repeated SETUP_REPS - 1 more times, spread evenly
    over the loop, so that setup_s sees the same machine as the loop.
    """
    def set_up_again():
        setup_times.append(set_up(workload.name, workload.seed)[1:])

    interludes = [(seconds * i / SETUP_REPS, set_up_again) for i in range(1, SETUP_REPS)]

    def step(k, unit, f):
        with ReferenceSamples() as ref:
            u = timed(workload, unit, f, ref)
        u.ref_ms = ref.mean_ms()
        return [u]

    done, _ = closed_loop(workload, ([], workload.order()), seconds, fault, step, tally, interludes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    visits = defaultdict(list)
    for (u,) in done:
        if u.error is None:
            visits[u.unit].append(u)
    items = np.array([us[0].items for us in visits.values()])
    summary = {}
    for kind, scale in (("wall", lambda u: 1.0), ("norm", lambda u: REF_MS / u.ref_ms)):
        if not visits:
            summary[kind] = (0.0, float("nan"), float("nan"))
            continue
        unit_s = np.array([statistics.median(scale(u) * u.seconds for u in us) for us in visits.values()])
        latency_ms = 1e3 * unit_s / items
        summary[kind] = (
            float(items.sum() / unit_s.sum()),
            weighted_percentile(latency_ms, items, 50),
            weighted_percentile(latency_ms, items, 90),
        )
    metrics = {
        "setup_s": statistics.median(seconds * REF_MS / ref for seconds, ref in setup_times),
        **dict(zip(("items_per_s_norm", "item_ms_p50_norm", "item_ms_p90_norm"), summary["norm"])),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = dict(zip(("items_per_s", "item_ms_p50", "item_ms_p90"), summary["wall"]))
    wall["setup_s_wall"] = statistics.median(seconds for seconds, _ in setup_times)
    wall["ref_kernel_ms"] = statistics.median(u.ref_ms for (u,) in done)
    return metrics, wall, f"medians over {len(done) // len(workload.units)} visits of each of {len(workload.units)} units"


def weighted_percentile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """The q-th percentile of `values`, each counted `weights` times (linear interpolation)."""
    return float(np.percentile(np.repeat(values, weights), q))


def traced(workload, seconds: float, fault, tally: Tally):
    """Time every unit twice, untraced and traced in alternating order, to get the overhead."""
    tracer = Tracer(workload.lib)
    count_set = workload.units[: workload.count_units]

    def step(k, unit, f):
        runs = {}
        for is_traced in (False, True) if k % 2 == 0 else (True, False):
            if is_traced:
                tracer.install()
                counts, secs = tracer.snapshot()
            runs[is_traced] = timed(workload, unit, f)
            if is_traced:
                tracer.remove()
                after_counts, after_secs = tracer.snapshot()
                runs[True].counts = after_counts - counts
                runs[True].eig_seconds = after_secs[EIG] - secs[EIG]
            f = None
        return [runs[True], runs[False]]

    done, _ = closed_loop(workload, (count_set, workload.order()), seconds, fault, step, tally)
    units = [u for u, _ in done]
    in_loop = {span: len(d) for span, d in tracer.durations.items()}
    outside_in_loop = len(tracer.outside_optimizer)

    # Layers the loop never called are timed by probes on the workload's own inputs.
    calls = probes(workload.lib, *workload.probe_input())
    missing = [span for span in calls if not in_loop.get(span)]
    tracer.install()
    try:
        for span in missing:
            for _ in range(PROBE_CALLS):
                calls[span]()
    finally:
        tracer.remove()

    def median(values, scale):
        return scale * statistics.median(values) if values else 0.0

    metrics = {}
    for span, (name, _, scale) in CALL_METRICS.items():
        values = tracer.durations[span]
        metrics[name] = median(values if span in missing else values[: in_loop.get(span, 0)], scale)
    outside = tracer.outside_optimizer
    metrics["bounds.outside_optimizer_ms"] = median(
        outside if "bounds.evaluate_all" in missing else outside[:outside_in_loop], 1e3
    )
    counted = units[: len(count_set)]
    items = sum(u.items for u in counted)
    for key, (name, _) in COUNT_METRICS.items():
        metrics[name] = sum(u.counts[key] for u in counted) / items
    metrics["linalg.eig_ms_per_item"] = median([u.eig_seconds / u.items for u in units], 1e3)
    metrics["trace_overhead_frac"] = sum(u.seconds for u in units) / sum(p.seconds for _, p in done) - 1.0
    # Each step's units are checked traced first, so the traced rows sit at even positions.
    metrics["cli.byte_identical_rows"] = sum(tally.identical[: 2 * len(count_set) : 2])
    return metrics, {}, f"{len(units)} traced units, counters over the first {len(counted)}"


def run_one(args) -> int:
    workload, *first_setup = set_up(args.workload, args.seed)
    if args.inject and args.inject not in workload.faults:
        print(f"error: --inject {args.inject} does not apply to {args.workload}", file=sys.stderr)
        return 2
    tally = Tally()
    setup_times = [tuple(first_setup)]
    if args.trace:
        metrics, wall, samples = traced(workload, args.seconds, args.inject, tally)
    else:
        metrics, wall, samples = untraced(workload, args.seconds, args.inject, setup_times, tally)

    env = environment()
    print(f"{args.workload} env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload} run seed={args.seed} seconds={args.seconds} trace={args.trace} ({samples})")
    for name, value in {**metrics, **wall}.items():
        print(f"{args.workload} {name} {value!r} {UNITS[name]}")
    if not args.trace:
        print(f"{args.workload} setup_s_samples {[round(t, 6) for t, _ in setup_times]} s (wall)")
    if workload.name == "figures":
        first_round = tally.identical[: len(workload.units) * (1 + args.trace) : 1 + args.trace]
        rows = sum(workload.expected_items(n) for n in workload.units)
        print(f"{args.workload} byte_identical_rows {sum(first_round)} of {rows} rows (first round)")
    print(f"{args.workload} failed_frac {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted} items)")
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process (peak RSS is per process)."""
    summary, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            if proc.returncode == 0:
                summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=CORPUS_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("raise", "shift", "digit"), help="plant a fault in the first unit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coherence_bounds" / "__init__.py").is_file():
        print(f"error: no coherence_bounds package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
