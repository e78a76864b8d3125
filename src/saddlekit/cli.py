"""Command-line entry point.

Two subcommands:

* ``solve``  -- run the bisection driver, the fast local method, or both on
  a named problem, optionally writing a per-iteration trace file.
* ``report`` -- read a trace file back and print the per-iteration value
  gaps, their ratios and the convergence-rate classification.  Level gaps
  are measured against ``--true-value``, else the critical value stored in
  the trace, else an extrapolated limit.

Exit codes: 0 converged, 1 configuration error (including a malformed
command line), 2 not converged, 3 structural failure (unbounded restriction
/ empty slice).
"""

import argparse
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bisection import bisection_solve, default_bracket
from .errors import (
    ConfigError,
    InsufficientData,
    SaddleKitError,
    SliceEmpty,
    TraceParseError,
    Unbounded,
)
from .geometry import AffineSubspace, TrustRegion
from .linalg import Frame
from .local import fast_local_solve, measure_convergence_rate
from .objectives import problem_from_name
from .trace import SolverTrace

__all__ = ["main", "RunConfig", "run"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_STRUCTURAL = 3


@dataclass
class RunConfig:
    problem: str
    morse_index: int
    algorithm: str = "both"
    center: Optional[np.ndarray] = None
    radius: float = 2.0
    lower: Optional[float] = None
    upper: Optional[float] = None
    tol: float = 1e-8
    max_iter: int = 50
    seed: int = 0
    trace_out: Optional[str] = None
    format: str = "csv"
    naive_subspace: bool = False

    def validate(self, dim):
        if self.algorithm not in ("bisection", "fast-local", "both"):
            raise ConfigError("algorithm", f"unknown algorithm {self.algorithm!r}")
        if not (1 <= self.morse_index <= dim):
            raise ConfigError(
                "morse-index", f"must satisfy 1 <= m <= {dim}, got {self.morse_index}"
            )
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ConfigError("radius", "must be positive and finite")
        if self.center is not None:
            if len(self.center) != dim:
                raise ConfigError(
                    "center", f"expected {dim} coordinates, got {len(self.center)}"
                )
            if not np.all(np.isfinite(self.center)):
                raise ConfigError("center", "coordinates must be finite")
        for name in ("lower", "upper", "tol"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ConfigError(name, "must be finite")
        if not self.tol > 0.0:
            raise ConfigError("tol", "must be positive")
        if self.lower is not None and self.upper is not None and not self.lower < self.upper:
            raise ConfigError("lower", "lower bound must be below the upper bound")
        if self.max_iter < 1:
            raise ConfigError("max-iter", "must be at least 1")
        if self.format not in ("csv", "json"):
            raise ConfigError("format", f"unknown trace format {self.format!r}")


def _parse_point(text):
    return np.array([float(t) for t in text.replace(";", ",").split(",") if t.strip()])


def _classify(trace):
    return measure_convergence_rate(trace) if len(trace) >= 4 else None


def run(config):
    """Execute a run configuration; returns (exit_code, summary_lines)."""
    lines = []
    try:
        problem = problem_from_name(config.problem)
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None
    f = problem.objective
    config.validate(f.dim)
    center = config.center if config.center is not None else np.zeros(f.dim)
    region = TrustRegion(center, config.radius)
    m = config.morse_index
    naive = None
    if (config.naive_subspace and config.algorithm != "bisection"
            and problem.naive_subspace is not None):
        base, cols = problem.naive_subspace
        naive = AffineSubspace(base, Frame(cols))
        if naive.dim != m:
            raise ConfigError(
                "naive-subspace", f"the problem's subspace has dimension {naive.dim}, not {m}"
            )
        if region.boundary_distance(naive.project(center)) <= 0.0:
            raise ConfigError("naive-subspace", "the problem's subspace misses the trust region")

    lower, upper = config.lower, config.upper
    if lower is None or upper is None:
        l_auto, u_auto = default_bracket(f, region, rng=np.random.default_rng(config.seed))
        lower = l_auto if lower is None else lower
        upper = u_auto if upper is None else upper

    trace = None
    exit_code = EXIT_OK
    s_hint = None
    lines.append(f"problem          {problem.name}")
    lines.append(f"algorithm        {config.algorithm}")

    if config.algorithm in ("bisection", "both"):
        bracket, triple, btrace = bisection_solve(
            f, region, m, lower, upper, tol=config.tol, max_iter=config.max_iter
        )
        btrace.critical_value = problem.known_critical_value
        trace = btrace
        z = triple.midpoint
        gn = float(np.linalg.norm(f.gradient(z)))
        rate = _classify(btrace)
        lines.append(f"bracket          [{bracket[0]:.17g}, {bracket[1]:.17g}]")
        lines.append(f"bracket width    {bracket[1] - bracket[0]:.17g}")
        lines.append(f"point estimate   {';'.join('%.17g' % c for c in z)}")
        lines.append(f"gradient norm    {gn:.17g}")
        if rate is not None:
            lines.append(f"rate             {rate.classification} (mean ratio {rate.mean_ratio:.4g})")
        lower = bracket[0]
        s_hint = triple.subspace if not triple.empty else None

    if config.algorithm in ("fast-local", "both"):
        if naive is not None:
            s_hint = naive
        result = fast_local_solve(
            f, region, m, lower,
            max_iter=config.max_iter, tol=config.tol,
            naive_subspace=config.naive_subspace, S0=s_hint,
            critical_value=problem.known_critical_value,
        )
        trace = result.trace
        gn = float(np.linalg.norm(f.gradient(result.point_estimate)))
        rate = result.rate
        lines.append(f"level estimate   {result.value_estimate:.17g}")
        lines.append(
            f"point estimate   {';'.join('%.17g' % c for c in result.point_estimate)}"
        )
        lines.append(f"gradient norm    {gn:.17g}")
        lines.append(f"iterations       {result.iterations}")
        if rate is not None:
            lines.append(f"rate             {rate.classification}")
        if not result.converged:
            exit_code = EXIT_NOT_CONVERGED

    if config.trace_out is not None and trace is not None:
        try:
            trace.write(config.trace_out, fmt=config.format)
        except OSError as exc:
            raise ConfigError("trace-out", str(exc)) from None
        lines.append(f"trace written    {config.trace_out}")
    return exit_code, lines


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the configuration-error code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# options whose value may be a negative number or a comma-separated point
_NUMERIC_OPTIONS = ("--center", "--radius", "--lower", "--upper", "--tol", "--true-value")


def _join_negative_values(argv):
    """``--center -1,2`` -> ``--center=-1,2``, ``--lower -1e-3`` -> ``--lower=-1e-3``.

    argparse reads a value that starts with ``-`` as an option unless it is
    a plain decimal, so a point or an exponent form would be rejected.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _NUMERIC_OPTIONS and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _build_parser():
    parser = _Parser(
        prog="saddlekit",
        description="Locate saddle points of prescribed Morse index by "
        "level-set min-max bisection and a fast local method.",
    )
    sub = parser.add_subparsers(dest="command")

    ps = sub.add_parser("solve", help="run a solver on a named problem")
    ps.add_argument("--problem", help="quadratic-diag:a1,a2,... | failure-3d | four-lines | cubic-saddle")
    ps.add_argument("--morse-index", type=int, default=None)
    ps.add_argument("--algorithm", default="both",
                    choices=["bisection", "fast-local", "both"])
    ps.add_argument("--center", default=None, help="comma-separated coordinates")
    ps.add_argument("--radius", type=float, default=2.0)
    ps.add_argument("--lower", type=float, default=None)
    ps.add_argument("--upper", type=float, default=None)
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--max-iter", type=int, default=50)
    ps.add_argument("--seed", type=int, default=0,
                    help="seeds the default bracket, used when --lower or --upper is omitted")
    ps.add_argument("--trace-out", default=None)
    ps.add_argument("--format", default="csv", choices=["csv", "json"])
    ps.add_argument("--naive-subspace", action="store_true",
                    help="skip the eigenspace estimation in the local method "
                    "(reproduces the documented failure mode)")

    pr = sub.add_parser("report", help="rate table from a trace file")
    pr.add_argument("trace", help="path to a trace file")
    pr.add_argument("--format", default=None, choices=["csv", "json"])
    pr.add_argument("--true-value", type=float, default=None,
                    help="reference critical value for the level gaps; "
                    "overrides the value stored in the trace")
    return parser


def _cmd_solve(args):
    if args.problem is None:
        print("config error: problem: a problem name is required", file=sys.stderr)
        return EXIT_CONFIG
    if args.morse_index is None:
        print("config error: morse-index: a Morse index is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = RunConfig(
            problem=args.problem,
            morse_index=args.morse_index,
            algorithm=args.algorithm,
            center=_parse_point(args.center) if args.center is not None else None,
            radius=args.radius,
            lower=args.lower,
            upper=args.upper,
            tol=args.tol,
            max_iter=args.max_iter,
            seed=args.seed,
            trace_out=args.trace_out,
            format=args.format,
            naive_subspace=args.naive_subspace,
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code, lines = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (Unbounded, SliceEmpty) as exc:
        print(f"structural failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except SaddleKitError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    for line in lines:
        print(line)
    return code


def _cmd_report(args):
    try:
        trace = SolverTrace.read(args.trace, fmt=args.format)
    except TraceParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rate = measure_convergence_rate(trace, true_value=args.true_value)
    except InsufficientData as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    use_widths = trace.has_brackets()
    print("iter  " + ("width" if use_widths else "gap").rjust(24) + "  ratio")
    gaps = trace.widths() if use_widths else np.abs(trace.levels() - rate.reference)
    prev = None
    for rec, gap in zip(trace, gaps):
        ratio = "" if prev in (None, 0.0) else f"{gap / prev:.6e}"
        print(f"{rec.iter:4d}  {gap:24.17g}  {ratio}")
        prev = gap
    print(f"classification: {rate.classification}")
    if rate.ratios.size:
        print(f"final ratio:    {rate.final_ratio:.6e}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_values(argv))
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.print_help()
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
