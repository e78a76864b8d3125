"""Spans and counters recorded from outside ``saddlekit``.

Nothing in the package is edited.  While :func:`installed` is active, the
public functions of each layer are replaced, at the module that imported
them, by wrappers that open a span; objective callables are wrapped by
:meth:`Tracer.objective` in closures that count calls and time them.

A span record is the tuple ``(id, parent, name, solve, t0, t1, self_s,
values, gradients, hessians, extra)``: ``self_s`` is the duration minus the
time covered by child spans, the three counts are the objective calls made
inside the span (children included) and ``extra`` holds what the wrapper
read from the call's arguments or result.  Objective calls are children
too, but there are millions of them, so they are summed into their parent
span instead of being recorded one by one.
"""

import contextlib
import dataclasses
import functools
import inspect
import json
import os
import time

_PERF = time.perf_counter

OBJECTIVE_KINDS = ("value", "gradient", "hessian")


class Tracer:
    """In-memory span recorder; ``on`` gates every wrapper."""

    def __init__(self):
        self.records = []
        self.on = False
        self.solve = None
        self.objective_calls = dict.fromkeys(OBJECTIVE_KINDS, 0)
        self.objective_s = 0.0
        self._stack = []  # open spans: [id, name, t0, child_s, v0, g0, h0]
        self._next_id = 0

    # ----------------------------------------------------------- spans

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        c = self.objective_calls
        frame = [sid, name, 0.0, 0.0, c["value"], c["gradient"], c["hessian"]]
        self._stack.append(frame)
        frame[2] = _PERF()
        return frame

    def _close(self, frame, extra=None):
        t1 = _PERF()
        self._stack.pop()
        if callable(extra):
            extra = extra()
        sid, name, t0, child_s, v0, g0, h0 = frame
        dur = t1 - t0
        if self._stack:
            self._stack[-1][3] += dur
        parent = self._stack[-1][0] if self._stack else None
        c = self.objective_calls
        self.records.append((
            sid, parent, name, self.solve, t0, t1, dur - child_s,
            c["value"] - v0, c["gradient"] - g0, c["hessian"] - h0, extra,
        ))

    def span(self, name, fn, namer=None, note=None):
        """``fn`` wrapped in a span named ``name`` (or ``namer(args, kwargs)``).

        ``note(args, kwargs, result)`` returns the span's ``extra`` field.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame)
                raise
            tracer._close(frame, (lambda: note(args, kwargs, result)) if note else None)
            return result

        return traced

    # ------------------------------------------------------ objectives

    def _counted(self, kind, fn):
        tracer = self
        calls = self.objective_calls

        def counted(x):
            if not tracer.on:
                return fn(x)
            calls[kind] += 1
            t0 = _PERF()
            try:
                return fn(x)
            finally:
                dt = _PERF() - t0
                tracer.objective_s += dt
                if tracer._stack:
                    tracer._stack[-1][3] += dt

        return counted

    def objective(self, f):
        """Copy of an ``ObjectiveFunction`` whose callables are counted."""
        return dataclasses.replace(
            f,
            f=self._counted("value", f.f),
            grad=None if f.grad is None else self._counted("gradient", f.grad),
            hess=None if f.hess is None else self._counted("hessian", f.hess),
        )

    def snapshot(self):
        return (len(self.records), dict(self.objective_calls), self.objective_s)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "solve", "t0", "t1", "self_s",
                               "values", "gradients", "hessians", "extra"],
                    "spans": self.records,
                },
                fh,
            )
            fh.write("\n")


def _outer_namer(outer_min_subspace):
    """Span name of an outer call, told apart by its rotation schedule.

    The local driver's per-iteration search sets ``rot_step_min`` to
    ``rot_step0``: a single sweep.  Every other call halves the step down to
    ``rot_step_min``: the full schedule.
    """
    params = inspect.signature(outer_min_subspace).parameters
    step0, step_min = params["rot_step0"].default, params["rot_step_min"].default

    def namer(args, kwargs):
        single = kwargs.get("rot_step_min", step_min) >= kwargs.get("rot_step0", step0)
        return "outer.sweep" if single else "outer.full"

    return namer


def _inner_note(args, kwargs, result):
    return {"empty": bool(result.empty)}


def _scan_note(args, kwargs, result):
    return {"points": int(len(args[0]))}


def _trace_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


@contextlib.contextmanager
def installed(tracer):
    """Replace each layer's public functions by span wrappers, then restore.

    Names are patched where the calling module imported them, so calls
    inside ``saddlekit`` see the wrappers too.  The objective of a CLI run is
    swapped for a counted copy through ``cli.problem_from_name``.
    """
    from saddlekit import bisection, cli, geometry, local, outer, trace

    def counted_problem(fn):
        @functools.wraps(fn)
        def wrapper(name):
            problem = fn(name)
            return dataclasses.replace(problem, objective=tracer.objective(problem.objective))

        return wrapper

    outer_name = _outer_namer(outer.outer_min_subspace)
    table = [
        (cli, "run", "cli.run", {}),
        (trace.SolverTrace, "write", "trace.write", {"note": _trace_note}),
        (cli, "fast_local_solve", "local.solve", {}),
        (local, "fast_local_solve", "local.solve", {}),
        (local, "estimate_negative_eigenspace", "local.eig", {}),
        (local, "orthogonal_space_lower_bound", "local.lower_bound", {}),
        (cli, "bisection_solve", "bisection.solve", {}),
        (bisection, "bisection_solve", "bisection.solve", {}),
        (local, "outer_min_subspace", None, {"namer": outer_name}),
        (bisection, "outer_min_subspace", None, {"namer": outer_name}),
        (outer, "inner_max_diameter", "geometry.inner", {"note": _inner_note}),
        (local, "inner_max_diameter", "geometry.inner", {"note": _inner_note}),
        (local, "closest_point_on_slice", "geometry.closest", {}),
        (geometry, "brute_force_diameter", "geometry.oracle", {}),
        (geometry, "trust_region_minimize", "newton", {}),
        (local, "trust_region_minimize", "newton", {}),
        (outer, "complete_frame", "linalg.complete_frame", {}),
        (local, "complete_frame", "linalg.complete_frame", {}),
        (geometry, "max_separation_pair", "kernels.scan", {"note": _scan_note}),
    ]
    saved = []
    try:
        for owner, attr, name, opts in table:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.span(name, original, **opts))
        saved.append((cli, "problem_from_name", cli.problem_from_name))
        cli.problem_from_name = counted_problem(cli.problem_from_name)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
