#!/usr/bin/env python3
"""Layered benchmark of the saddlekit solvers.

    python3 perfbench/run.py --workload local-f3d --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One process runs the workload's solves in a closed loop, one
after another and round robin: every solve runs at least once, and further
repetitions run while they fit in ``--seconds``.  Each output is checked
against the accuracy its driver states; a miss counts as a failed solve and
the run goes on.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run, whose spans are written to
``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import os

# small dense matrices: one BLAS thread per process avoids oversubscribing
# the cores and keeps timings steady; it must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # fresh interpreters timed besides this one; setup_s is the median
DIGITS_CAP = 16.0
WORKLOADS = ("local-f3d", "local-nd", "bisect", "oracle")

E2E_UNITS = {
    "wall_s": "s",
    "solve_s_p50": "s",
    "solve_s_max": "s",
    "ok_frac": "share",
    "level_digits_min": "digits",
    "grad_digits_min": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "objectives.value_calls": "calls/solve",
    "objectives.gradient_calls": "calls/solve",
    "objectives.hessian_calls": "calls/solve",
    "objectives.busy_s": "s",
    "geometry.inner_calls": "calls/solve",
    "geometry.inner_s": "s",
    "geometry.inner_self_s": "s",
    "geometry.inner_value_evals_per_call": "evals/call",
    "geometry.inner_grad_evals_per_call": "evals/call",
    "geometry.inner_empty_share": "share",
    "geometry.closest_s": "s",
    "outer.calls": "calls/solve",
    "outer.sweep_s": "s",
    "outer.final_s": "s",
    "outer.inner_per_call": "calls/call",
    "outer.self_s": "s",
    "local.iterations": "iters/solve",
    "local.eig_s": "s",
    "local.lower_bound_s": "s",
    "local.self_s": "s",
    "bisection.levels": "levels/solve",
    "bisection.empty_levels": "levels/solve",
    "bisection.self_s": "s",
    "newton.calls": "calls/solve",
    "newton.busy_s": "s",
    "linalg.complete_frame_calls": "calls/solve",
    "linalg.complete_frame_s": "s",
    "kernels.scan_s": "s",
    "kernels.pairs_scanned": "pairs/solve",
    "geometry.oracle_s": "s",
    "geometry.oracle_points": "points/solve",
    "geometry.oracle_feasible_points": "points/solve",
    "cli.self_s": "s",
    "trace.write_s": "s",
    "trace.bytes": "bytes/solve",
    "trace_overhead_s": "s",
}

# Counts that must repeat exactly on every repetition of a solve.
EXACT_COUNTS = (
    "objectives.value_calls",
    "objectives.gradient_calls",
    "objectives.hessian_calls",
    "geometry.inner_calls",
    "kernels.pairs_scanned",
    "bisection.levels",
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload, seed, workdir):
    """Import the package and build the workload's solves; returns (seconds, solves)."""
    t0 = time.perf_counter()
    import saddlekit  # noqa: F401
    from workloads import build

    solves = build(workload, seed, workdir)
    return time.perf_counter() - t0, solves


def _probe_setup(args):
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- measurement


def _measure(solves, seconds, tracer=None):
    """Closed loop over the solves; returns per solve a list of (seconds, outcome, layers)."""
    from workloads import Outcome

    reps = [[] for _ in solves]
    wrap = tracer.objective if tracer is not None else (lambda f: f)
    wrapped = {}

    def wrap_once(f):  # one counted copy per objective, reused across repetitions
        key = id(f)
        if key not in wrapped:
            wrapped[key] = (f, wrap(f))
        return wrapped[key][1]

    n = len(solves)
    start = time.perf_counter()
    k = -1
    while True:
        pending = [i for i, s in enumerate(solves) if len(reps[i]) < s.min_reps]
        if pending:
            k = pending[0]
        else:
            # round robin over the solves whose last run still fits in the
            # budget, so the run ends near ``seconds`` without a long overrun
            elapsed = time.perf_counter() - start
            fits = [i for i in range(n) if elapsed + reps[i][-1][0] <= seconds]
            if not fits:
                break
            k = min(fits, key=lambda i: (i - k - 1) % n)
        solve = solves[k]
        if tracer is not None:
            snap = tracer.snapshot()
            tracer.solve = solve.label
            tracer.on = True
        t0 = time.perf_counter()
        try:
            output = solve.run(wrap_once)
            error = None
        except Exception as exc:  # a raising solve is a failed solve, not a failed run
            output, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
        if error is None:
            try:
                outcome = solve.check(output)
            except Exception as exc:
                outcome = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
        else:
            outcome = Outcome(False, error)
        layers = _layer_numbers(tracer, snap, outcome) if tracer is not None else None
        reps[k].append((dt, outcome, layers))
    return reps


def _layer_numbers(tracer, snap, outcome):
    """Raw per-solve sums from one traced solve; ratios are formed later."""
    i0, calls0, busy0 = snap
    recs = tracer.records[i0:]
    names = {r[0]: r[2] for r in recs}
    agg = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])  # calls, total_s, self_s, values, gradients
    inner_empty = inner_in_outer = pairs = feasible = trace_bytes = 0
    for sid, parent, name, _solve, t0, t1, self_s, nv, ng, _nh, extra in recs:
        a = agg[name]
        a[0] += 1
        a[1] += t1 - t0
        a[2] += self_s
        a[3] += nv
        a[4] += ng
        if name == "geometry.inner":
            inner_empty += extra["empty"]
            inner_in_outer += names.get(parent, "").startswith("outer.")
        elif name == "kernels.scan":
            p = extra["points"]
            pairs += p * (p - 1) // 2
            if names.get(parent) == "geometry.oracle":
                feasible += p
        elif name == "trace.write":
            trace_bytes += extra["bytes"]
    calls = {k: tracer.objective_calls[k] - calls0[k] for k in calls0}
    sweep, full = agg["outer.sweep"], agg["outer.full"]
    inner = agg["geometry.inner"]
    return {
        "objectives.value_calls": calls["value"],
        "objectives.gradient_calls": calls["gradient"],
        "objectives.hessian_calls": calls["hessian"],
        "objectives.busy_s": tracer.objective_s - busy0,
        "geometry.inner_calls": inner[0],
        "geometry.inner_s": inner[1],
        "geometry.inner_self_s": inner[2],
        "_inner_values": inner[3],
        "_inner_gradients": inner[4],
        "_inner_empty": inner_empty,
        "_inner_in_outer": inner_in_outer,
        "geometry.closest_s": agg["geometry.closest"][1],
        "outer.calls": sweep[0] + full[0],
        "outer.sweep_s": sweep[1],
        "outer.final_s": full[1],
        "outer.self_s": sweep[2] + full[2],
        "local.iterations": outcome.iterations or 0,
        "local.eig_s": agg["local.eig"][1],
        "local.lower_bound_s": agg["local.lower_bound"][1],
        "local.self_s": agg["local.solve"][2],
        "bisection.levels": outcome.levels or 0,
        "bisection.empty_levels": outcome.empty_levels or 0,
        "bisection.self_s": agg["bisection.solve"][2],
        "newton.calls": agg["newton"][0],
        "newton.busy_s": agg["newton"][1],
        "linalg.complete_frame_calls": agg["linalg.complete_frame"][0],
        "linalg.complete_frame_s": agg["linalg.complete_frame"][1],
        "kernels.scan_s": agg["kernels.scan"][1],
        "kernels.pairs_scanned": pairs,
        "geometry.oracle_s": agg["geometry.oracle"][1],
        "geometry.oracle_points": agg["geometry.oracle"][3],
        "geometry.oracle_feasible_points": feasible,
        "cli.self_s": agg["cli.run"][2],
        "trace.write_s": agg["trace.write"][1],
        "trace.bytes": trace_bytes,
    }


# ----------------------------------------------------------------- metrics


def _per_solve_seconds(reps):
    return [statistics.median(dt for dt, _, _ in r) for r in reps]


def _digits(err):
    if err is None:
        return None
    return DIGITS_CAP if err == 0.0 else min(DIGITS_CAP, -math.log10(err))


def _e2e_metrics(reps, setup_s):
    per_solve = _per_solve_seconds(reps)
    attempted = sum(len(r) for r in reps)
    failed = sum(not o.ok for r in reps for _, o, _ in r)
    firsts = [r[0][1] for r in reps]
    level = [d for d in (_digits(o.level_error) for o in firsts) if d is not None]
    grad = [d for d in (_digits(o.grad_norm) for o in firsts) if d is not None]
    return {
        "wall_s": sum(per_solve),
        "solve_s_p50": statistics.median(per_solve),
        "solve_s_max": max(per_solve),
        "ok_frac": (attempted - failed) / attempted,
        # the oracle estimates no level and no point: its digits read the cap
        "level_digits_min": min(level, default=DIGITS_CAP),
        "grad_digits_min": min(grad, default=DIGITS_CAP),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_metrics(traced, untraced):
    """Times: per-solve medians summed over the set.  Counts: per solve."""
    n = len(traced)
    layer_reps = [[layers for _, _, layers in r] for r in traced]
    out = {}
    for name in layer_reps[0][0]:
        if name.endswith("_s"):
            out[name] = sum(statistics.median(rep[name] for rep in r) for r in layer_reps)
        else:
            out[name] = sum(r[0][name] for r in layer_reps) / n

    def ratio(num, den):
        return num / den if den else 0.0

    inner_calls = out["geometry.inner_calls"]
    out["geometry.inner_value_evals_per_call"] = ratio(out.pop("_inner_values"), inner_calls)
    out["geometry.inner_grad_evals_per_call"] = ratio(out.pop("_inner_gradients"), inner_calls)
    out["geometry.inner_empty_share"] = ratio(out.pop("_inner_empty"), inner_calls)
    out["outer.inner_per_call"] = ratio(out.pop("_inner_in_outer"), out["outer.calls"])
    out["trace_overhead_s"] = sum(_per_solve_seconds(traced)) - sum(_per_solve_seconds(untraced))
    return {name: out[name] for name in LAYER_UNITS}


def _fail_count_mismatches(traced):
    """Fail every repetition of a solve whose exact counts differ between repetitions."""
    for r in traced:
        first = r[0][2]
        if any(layers[k] != first[k] for _, _, layers in r[1:] for k in EXACT_COUNTS):
            for _, outcome, _ in r:
                outcome.ok = False
                outcome.reason = "exact counts differ between repetitions"


def _print_hot_layers(tracer, solves, traced):
    """Per solve, the three layers with the most self time per traced run."""
    print("hot layers (self seconds per traced run):")
    for solve, r in zip(solves, traced):
        self_s = defaultdict(float)
        for rec in tracer.records:
            if rec[3] == solve.label:
                self_s[rec[2]] += rec[6]
        self_s["objectives"] = sum(layers["objectives.busy_s"] for _, _, layers in r)
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:3]
        print(f"  {solve.label:14s} " + "  ".join(f"{name} {s / len(r):.4f}" for name, s in top))


def _environment():
    import numpy
    import scipy

    from saddlekit import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_compiled": bool(kernels.HAVE_COMPILED),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _print_solves(title, solves, reps):
    print(f"{title}:")
    for solve, r in zip(solves, reps):
        dts = [dt for dt, _, _ in r]
        bad = [o.reason for _, o, _ in r if not o.ok]
        status = "ok" if not bad else f"FAILED {len(bad)}/{len(r)}: {bad[0]}"
        print(f"  {solve.label:14s} reps {len(r):3d}  median {statistics.median(dts):10.4f} s  {status}")


def main(argv=None):
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "saddlekit" / "__init__.py").is_file():
        print(f"perfbench: no saddlekit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        print(repr(_setup(args.workload, args.seed, OUT_DIR / "probe")[0]))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        setup_here, solves = _setup(args.workload, args.seed, workdir)
        env = _environment()
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload}  seed {args.seed}  solves {len(solves)}  "
              f"seconds {args.seconds:g}  trace {args.trace}")
        if args.trace:
            import spans

            untraced = _measure(solves, 0.5 * args.seconds)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced = _measure(solves, 0.5 * args.seconds, tracer)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
            _fail_count_mismatches(traced)
            _print_solves("untraced", solves, untraced)
            _print_solves("traced", solves, traced)
            _print_hot_layers(tracer, solves, traced)
            all_reps = untraced + traced
            metrics = _layer_metrics(traced, untraced)
            units = LAYER_UNITS
        else:
            setup_s = statistics.median(
                [setup_here] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
            )
            reps = _measure(solves, args.seconds)
            _print_solves("solves", solves, reps)
            all_reps = reps
            metrics = _e2e_metrics(reps, setup_s)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r) for r in all_reps)
    failed = sum(not o.ok for r in all_reps for _, o, _ in r)
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
