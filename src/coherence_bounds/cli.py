"""Command line interface.

Subcommands:
    figure <1|2|3|4> --out <path> [--steps N] [--pmin F] [--pmax F]
        Write the parameter sweep behind one of the four standard figures
        as CSV (12 significant digits, deterministic bytes).
    eval --state <file> --x <selector> --z <selector>
        Evaluate every bound for one state and print the report as JSON.
    check [--seed N] [--cases N]
        Run the randomized invariant suites over N >= 1 cases and report
        per-suite pass counts, each with the suite's tightest inequality
        (smallest margin) and its largest identity error, each with its
        tolerance and seed.

Basis selectors: sigma1, sigma2, sigma3, computational, bloch:<theta>:<phi>.
Exit codes: 0 ok, 1 invariant violation, 2 IO error, 3 parse error,
4 validation error. The subcommands raise; main alone maps OSError,
ParseError and ValidationError (which every validation error subclasses)
to their codes, printing the message.
A reader that closes stdout early (as `| head` does) is not an error: the
exit code is 0 and nothing is printed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

# sweep_family builds no figure rows but stays importable from here:
# perfbench's figures workload wraps cli.sweep_family.
from .bounds import _sweep, evaluate_all, sweep_family  # noqa: F401
from .checks import CheckRecord, run_checks
from .errors import ParseError, ValidationError
from .measurement import ObservableBasis, bloch_basis, computational_basis, pauli_basis
from .states import load_state_file

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4

# The most grid points a figure sweep takes. A sweep holds at most one chunk of
# reports, so what grows with the grid is the CSV text and its lines. On a
# 2-vCPU host, 10^5 rows took 8.4 s and 60 MB peak RSS for figure 1 (which
# searches) and 4.7 s and 58 MB for figure 2; 10^6 rows of figure 2 took 56 s
# and 263 MB, for 58 MB of CSV. 10^8 would allocate an 800 MB grid and run
# for hours.
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class SweepConfig:
    """Grid and column layout of one figure sweep."""

    family: str
    x_selector: str
    z_selector: str
    columns: tuple[str, ...]
    fields: tuple[str, ...]
    steps: int = 101
    p_min: float = 0.0
    p_max: float = 1.0

    def __post_init__(self) -> None:
        if not 2 <= self.steps <= _MAX_STEPS:
            raise ValidationError(
                f"steps: need between 2 and {_MAX_STEPS} grid points, got {self.steps}"
            )
        if not 0.0 <= self.p_min <= self.p_max <= 1.0:
            raise ValidationError(
                f"grid: need 0 <= pmin <= pmax <= 1, got [{self.p_min}, {self.p_max}]"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.steps)


FIGURES = {
    1: SweepConfig(
        family="xstate",
        x_selector="sigma1",
        z_selector="sigma3",
        columns=("lb_berta_coh", "lb_pati_coh", "lb_adabi_coh"),
        fields=("lb_theorem2", "lb_theorem3", "lb_theorem4"),
    ),
    2: SweepConfig(
        family="bell_diagonal",
        x_selector="sigma1",
        z_selector="sigma3",
        columns=("ub_purity", "ub_holevo", "lhs_coherence"),
        fields=("ub_purity", "ub_holevo", "lhs_coherence"),
    ),
    3: SweepConfig(
        family="bell_diagonal",
        x_selector="sigma1",
        z_selector="sigma2",
        columns=("ub_purity", "ub_holevo", "lhs_coherence"),
        fields=("ub_purity", "ub_holevo", "lhs_coherence"),
    ),
    4: SweepConfig(
        family="werner",
        x_selector="sigma1",
        z_selector="sigma3",
        columns=("lb_coherence", "lb_eur", "cond_entropy"),
        fields=("lb_theorem2", "eur_berta", "cond_entropy"),
    ),
}


def parse_basis(selector: str) -> ObservableBasis:
    """Turn a CLI basis selector into an ObservableBasis."""
    s = selector.strip()
    if s in ("sigma1", "sigma2", "sigma3"):
        return pauli_basis(int(s[-1]))
    if s == "computational":
        return computational_basis(2)
    if s.startswith("bloch:"):
        parts = s.split(":")
        if len(parts) != 3:
            raise ParseError(f"bloch selector needs 'bloch:<theta>:<phi>', got {selector!r}")
        try:
            theta, phi = float(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"bloch angles must be numbers, got {selector!r}") from None
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ParseError(f"bloch angles must be finite, got {selector!r}")
        return bloch_basis(theta, phi)
    raise ParseError(
        f"unknown basis selector {selector!r}; expected sigma1, sigma2, sigma3, "
        "computational, or bloch:<theta>:<phi>"
    )


def format_value(value: float) -> str:
    """Render a finite float with 12 significant digits."""
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value {value!r} in output")
    return f"{value:.12g}"


def render_figure_csv(config: SweepConfig) -> str:
    """The CSV text of one figure sweep.

    bounds decides from config.fields whether the rows need the search for
    J_A. A field it left unsearched is NaN, which format_value rejects. Each
    row is formatted as the sweep yields it, so no more than one chunk of
    reports is held at a time.
    """
    x = parse_basis(config.x_selector)
    z = parse_basis(config.z_selector)
    rows = _sweep(config.family, x, z, config.grid(), config.fields)
    lines = ["p," + ",".join(config.columns)]
    for p, report in rows:
        lines.append(
            ",".join([format_value(p)] + [format_value(getattr(report, f)) for f in config.fields])
        )
    return "\n".join(lines) + "\n"


def cmd_figure(args: argparse.Namespace) -> int:
    # Rendering comes first, so a rejected grid leaves no output file.
    config = replace(FIGURES[args.which], steps=args.steps, p_min=args.pmin, p_max=args.pmax)
    text = render_figure_csv(config)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    x = parse_basis(args.x)
    z = parse_basis(args.z)
    report = evaluate_all(load_state_file(args.state), x, z)
    payload = {key: float(format_value(val)) for key, val in asdict(report).items()}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _where(record: CheckRecord) -> str:
    return f" tol={record.tol:.0e} seed={record.state_seed}"


def cmd_check(args: argparse.Namespace) -> int:
    result = run_checks(args.seed, args.cases)
    for suite in result.suites:
        line = f"{suite.name:<14} {suite.passed}/{suite.total} passed"
        # An identity's margin is -|error|, so the smallest margin over all
        # checks would name an identity at rounding level, never the tightest
        # inequality; the two kinds are shown apart.
        records = sorted(suite.worst.values(), key=lambda record: record.margin)
        tightest = next((r for r in records if not r.identity), None)
        identity = next((r for r in records if r.identity), None)
        if tightest is not None:
            line += f"  tightest {tightest.inequality} margin={tightest.margin:.3e}" + _where(tightest)
        if identity is not None:
            line += f"  identity {identity.inequality} error={-identity.margin:.3e}" + _where(identity)
        print(line)
    if result.ok:
        print(f"ok: all {len(result.suites)} suites passed on {result.cases} cases (seed {result.seed})")
        return EXIT_OK
    shown = 0
    for suite in result.suites:
        for violation in suite.violations:
            if shown >= 10:
                break
            print(f"VIOLATION [{suite.name}] {violation.describe()}", file=sys.stderr)
            shown += 1
    total_bad = sum(len(s.violations) for s in result.suites)
    print(f"error: {total_bad} case-level violations (seed {result.seed})", file=sys.stderr)
    return EXIT_INVARIANT


class CliParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the parse-error code."""

    def error(self, message: str):  # noqa: D102 (argparse override)
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def build_parser() -> CliParser:
    parser = CliParser(prog="coherence-bounds", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write one figure sweep as CSV")
    fig.add_argument("which", type=int, choices=sorted(FIGURES))
    fig.add_argument("--out", required=True, help="output CSV path")
    fig.add_argument("--steps", type=int, default=101, help="grid points (default 101)")
    fig.add_argument("--pmin", type=float, default=0.0, help="grid start (default 0)")
    fig.add_argument("--pmax", type=float, default=1.0, help="grid end (default 1)")
    fig.set_defaults(func=cmd_figure)

    ev = sub.add_parser("eval", help="evaluate all bounds for a state file")
    ev.add_argument("--state", required=True, help="state file path")
    ev.add_argument("--x", required=True, help="X basis selector")
    ev.add_argument("--z", required=True, help="Z basis selector")
    ev.set_defaults(func=cmd_eval)

    chk = sub.add_parser("check", help="run randomized invariant suites")
    chk.add_argument("--seed", type=int, default=42)
    chk.add_argument("--cases", type=int, default=100)
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; on devnull that flush succeeds.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        error, code = exc, EXIT_IO
    except ParseError as exc:
        error, code = exc, EXIT_PARSE
    except ValidationError as exc:
        error, code = exc, EXIT_VALIDATION
    print(f"error: {error}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
