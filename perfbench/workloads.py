"""Workload inputs, the solves that run them, and the checks on their outputs.

A solve is one top-level call into ``saddlekit``: a ``cli.run``, a driver
call or an oracle call.  Each solve seeds its own solver RNG, so repeating
it repeats its work exactly.  See ``build`` for what the workload seed
draws.

Functions are looked up on their module at call time (``cli.run``, not a
name bound at import), so the span wrappers of ``spans.installed`` see the
calls the benchmark makes as well as those the package makes.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from saddlekit import bisection, cli, geometry, local
from saddlekit.geometry import AffineSubspace, TrustRegion
from saddlekit.linalg import Frame
from saddlekit.objectives import (
    cubic_saddle_problem,
    make_diagonal_quadratic,
    make_quadratic,
    problem_from_name,
)

# Accuracy each driver states; a solve that misses it counts as failed.
LOCAL_LEVEL_TOL = 1e-8  # |l - l*| <= LOCAL_LEVEL_TOL * (1 + |l*|)
LOCAL_GRAD_TOL = 1e-6
BISECT_TOL = 1e-6
EMPTY_TOL = 1e-9  # bisection_solve's default classification of an empty level

# The README fast-local command, solved once per CLI seed.  The set is the
# prefix 0..2 of the seeds, not a filtered sample: seed 3 takes about 129 s
# and seed 7 over 25 s on 2 CPUs, which no run of this benchmark can hold.
F3D_CLI_SEEDS = (0, 1, 2)

# Keys of the random streams that generate the inputs (see build()).
ND_STREAM, BISECT_STREAM, ORACLE_STREAM, ORDER_STREAM = 1, 2, 3, 4


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    level_error: Optional[float] = None  # None: the solve estimates no level
    grad_norm: Optional[float] = None  # None: the solve estimates no point
    iterations: Optional[int] = None  # local driver iterations
    levels: Optional[int] = None  # bisection levels probed
    empty_levels: Optional[int] = None


@dataclass
class Solve:
    label: str
    run: Callable[[Callable], Any]  # run(wrap) -> output; wrap maps an objective to the one solved
    check: Callable[[Any], Outcome]
    min_reps: int = 1


def _seq(*key):
    return np.random.default_rng(list(key))


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _symmetric(a):
    return 0.5 * (a + a.T)


def _local_outcome(f, level, l_star, z, converged, iterations):
    err = abs(level - l_star)
    gn = float(np.linalg.norm(f.gradient(z)))
    reasons = []
    if not converged:
        reasons.append("not converged")
    if not err <= LOCAL_LEVEL_TOL * (1.0 + abs(l_star)):
        reasons.append(f"level error {err:.3e}")
    if not gn <= LOCAL_GRAD_TOL:
        reasons.append(f"gradient norm {gn:.3e}")
    return Outcome(not reasons, "; ".join(reasons), err, gn, iterations=iterations)


# --------------------------------------------------------------- local-f3d


def _parse_summary(lines):
    fields = {}
    for line in lines:
        key, _, value = line.partition("  ")
        fields[key.strip()] = value.strip()
    return fields


def _f3d_solve(cli_seed, trace_path):
    problem = problem_from_name("failure-3d")
    first_bytes = {}

    def run(wrap):
        config = cli.RunConfig(
            problem="failure-3d", morse_index=2, algorithm="fast-local",
            lower=-1.0, max_iter=8, seed=cli_seed, trace_out=str(trace_path),
        )
        return cli.run(config)

    def check(output):
        code, lines = output
        data = Path(trace_path).read_bytes()
        first_bytes.setdefault("trace", data)
        fields = _parse_summary(lines)
        z = np.array([float(t) for t in fields["point estimate"].split(";")])
        out = _local_outcome(
            problem.objective, float(fields["level estimate"]),
            problem.known_critical_value, z, code == 0, int(fields["iterations"]),
        )
        if data != first_bytes["trace"]:
            out.ok = False
            out.reason = "; ".join(filter(None, [out.reason, "trace bytes differ between runs"]))
        return out

    # one seed's trace is written at least twice, so its bytes get compared
    return Solve(f"cli-seed{cli_seed}", run, check,
                 min_reps=2 if cli_seed == F3D_CLI_SEEDS[0] else 1)


def local_f3d(seed, workdir):
    return [_f3d_solve(s, Path(workdir) / f"f3d-seed{s}.csv") for s in F3D_CLI_SEEDS]


# ---------------------------------------------------------------- local-nd


def _nd_solve(n):
    rng = _seq(ND_STREAM, n)
    q = _orthogonal(rng, n)
    lam = np.ones(n)
    lam[-2:] = -1.0
    f = make_quadratic(_symmetric(2.0 * (q * lam) @ q.T))  # x^T Q diag(lam) Q^T x
    region = TrustRegion(np.zeros(n), 4.0)
    solver_seed = int(rng.integers(2**31))

    def run(wrap):
        return local.fast_local_solve(
            wrap(f), region, 2, -0.5, tol=1e-9, rng=np.random.default_rng(solver_seed)
        )

    def check(result):
        return _local_outcome(
            f, result.value_estimate, 0.0, result.point_estimate,
            result.converged, result.iterations,
        )

    return Solve(f"n{n}", run, check)


def local_nd(seed, workdir):
    return [_nd_solve(n) for n in (8, 16)]


# ------------------------------------------------------------------ bisect


def _bisect_outcome(f, l_star, output):
    (lo, hi), triple, trace = output
    width = hi - lo
    reasons = []
    if not lo <= l_star <= hi:
        reasons.append(f"critical value {l_star!r} outside [{lo!r}, {hi!r}]")
    if not width <= BISECT_TOL:
        reasons.append(f"bracket width {width:.3e}")
    return Outcome(
        not reasons, "; ".join(reasons),
        # the bracket is the certificate: its midpoint is within half a
        # width of l*, wherever l* happens to fall inside it
        level_error=0.5 * width,
        grad_norm=float(np.linalg.norm(f.gradient(triple.midpoint))),
        levels=len(trace),
        empty_levels=sum(1 for r in trace if r.diameter <= EMPTY_TOL),
    )


def _bisect_solve(label, f, region, m, l_star, rng):
    # offsets keep every midpoint off l* (the README example hits l = 0 at
    # its first midpoint)
    lo = l_star - 1.0 - rng.uniform(0.05, 0.25)
    hi = l_star + 1.0 + rng.uniform(0.05, 0.25)
    solver_seed = int(rng.integers(2**31))

    def run(wrap):
        return bisection.bisection_solve(
            wrap(f), region, m, lo, hi, tol=BISECT_TOL, max_iter=60,
            rng=np.random.default_rng(solver_seed),
        )

    return Solve(label, run, lambda out: _bisect_outcome(f, l_star, out))


def _shifted_quadratic(rng, n, m):
    """(x - c)^T Q diag(lam) Q^T (x - c) + v with m negative eigenvalues."""
    lam = np.concatenate([-np.linspace(1.0, 2.0, m), np.linspace(0.5, 2.0, n - m)])
    q = _orthogonal(rng, n)
    a = _symmetric(2.0 * (q * lam) @ q.T)
    c = rng.uniform(-1.0, 1.0, n)
    v = float(rng.uniform(-1.0, 1.0))
    return make_quadratic(a, -a @ c, 0.5 * float(c @ a @ c) + v), c, v


def bisect(seed, workdir):
    solves = []
    for n, m in ((4, 1), (4, 2)):
        rng = _seq(BISECT_STREAM, n, m)
        f, c, v = _shifted_quadratic(rng, n, m)
        solves.append(_bisect_solve(f"quad-n{n}-m{m}", f, TrustRegion(c, 2.0), m, v, rng))
    problem = cubic_saddle_problem()
    solves.append(_bisect_solve(
        "cubic-saddle", problem.objective, TrustRegion(np.zeros(2), 1.0),
        problem.morse_index, problem.known_critical_value, _seq(BISECT_STREAM, 0),
    ))
    return solves


# ------------------------------------------------------------------ oracle


def _oracle_outcome(f, S, level, U, res, solver_seed, triple):
    # the cross-validation the paper describes: the grid oracle against the
    # continuous slice solver on the same slice
    ref = geometry.inner_max_diameter(f, S, level, U, rng=np.random.default_rng(solver_seed))
    if triple.empty or ref.empty:
        ok = triple.empty and ref.empty
        return Outcome(ok, "" if ok else f"emptiness differs (grid {triple.empty}, inner {ref.empty})")
    reasons = []
    slack = 1e-12 * (1.0 + abs(level))
    for point in (triple.x, triple.y):
        if f.value(point) < level - slack or not U.contains(point, tol=1e-9) or not S.contains(point):
            reasons.append("infeasible pair point")
            break
    d = S.base - U.center
    perp = d - S.frame.columns @ (S.frame.columns.T @ d)
    rloc = math.sqrt(U.radius**2 - float(perp @ perp))
    grid_error = 2.0 * math.sqrt(S.dim) * (2.0 * rloc / (res - 1))
    gap = abs(triple.diameter - ref.diameter)
    if not gap <= grid_error:
        reasons.append(f"grid {triple.diameter:.6g} vs inner {ref.diameter:.6g} (grid error {grid_error:.3g})")
    return Outcome(not reasons, "; ".join(reasons))


def _oracle_solve(label, f, S, level, U, res, solver_seed):
    def run(wrap):
        return geometry.brute_force_diameter(wrap(f), S, level, U, grid_resolution=res)

    return Solve(label, run, lambda t: _oracle_outcome(f, S, level, U, res, solver_seed, t))


def _tilted_frame(rng, n, k):
    """Random orthonormal k-frame within a small angle of span(e_{n-k+1}..e_n).

    The last k axes carry the negative curvature of the oracle objectives,
    so the restriction to the slice stays concave.
    """
    skew = rng.standard_normal((n, n))
    skew = rng.uniform(0.01, 0.03) * (skew - skew.T) / np.linalg.norm(skew - skew.T, 2)
    eye = np.eye(n)
    tilt = np.linalg.solve(eye - skew, eye + skew)  # Cayley transform: orthogonal
    return tilt[:, n - k:] @ _orthogonal(rng, k)


def _slice_max(f, S):
    """Maximum over the whole affine slice of a quadratic f, concave on S."""
    v, b = S.frame.columns, S.base
    h = v.T @ f.hessian(b) @ v
    w = np.linalg.solve(h, -(v.T @ f.gradient(b)))
    return f.value(b + v @ w)


def oracle(seed, workdir):
    """Slices near the negative eigenspace at high and low levels.

    These are the slices the drivers solve: the objective is concave on
    them, so every superlevel slice is convex.  At a high level (just below
    the slice maximum) few grid points are feasible and the cost is the
    per-point value calls; at a low level most are, and the cost is the
    O(N^2) pair scan.  Level offsets are narrow bands, so the feasible share,
    and with it the cost, barely depends on the seed.
    """
    rng = _seq(ORACLE_STREAM, seed)
    solves = []
    for f, k, res in (
        (make_diagonal_quadratic([1.0, -1.0, -3.0]), 2, 64),  # failure-3d
        (make_diagonal_quadratic([1.0, -1.0, -2.0, -3.0]), 3, 48),
    ):
        n = f.dim
        region = TrustRegion(np.zeros(n), 1.0)
        # level offsets below the slice maximum, in units of radius^2
        for kind, offset in (("high", 0.06), ("low", 0.85)):
            frame = _tilted_frame(rng, n, k)
            normal = np.linalg.svd(frame)[0][:, k:]
            base = normal @ rng.uniform(-0.02, 0.02, n - k)
            S = AffineSubspace(base, Frame(frame))
            level = _slice_max(f, S) - offset * rng.uniform(0.995, 1.005)
            solves.append(_oracle_solve(
                f"{k}d-{kind}{len(solves)}", f, S, level, region, res, int(rng.integers(2**31))
            ))
    return solves


def build(workload, seed, workdir):
    """The workload's solves in the order the seed draws.

    The seed draws the oracle's slices and levels; their cost barely moves
    with the draw.  The instances of the three driver workloads are fixed:
    their cost swings with the instance (local-f3d from 1.6 s to 129 s over
    CLI seeds 0-9, local-nd at n=8 from 6 s to over 40 s over rotations,
    bisect by a factor of 2 over rotations and offsets), and a sample that
    changed with the seed would turn that swing into run-to-run spread.
    """
    solves = BUILDERS[workload](seed, workdir)
    return [solves[i] for i in _seq(ORDER_STREAM, seed).permutation(len(solves))]


BUILDERS = {
    "local-f3d": local_f3d,
    "local-nd": local_nd,
    "bisect": bisect,
    "oracle": oracle,
}
