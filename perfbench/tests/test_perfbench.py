"""Tests of the benchmark itself: exact counts, neutral wrappers, result format.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import BUILDERS  # noqa: E402


def _pick(workload, labels, tmp_path):
    solves = [s for s in BUILDERS[workload](0, tmp_path) if s.label in labels]
    assert [s.label for s in solves] == list(labels)
    for s in solves:
        s.min_reps = 1
    return solves


def _traced(solves):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        return run._measure(solves, 0.0, tracer), tracer


CASES = [
    ("bisect", ("cubic-saddle",)),
    ("oracle", ("2d-high0", "2d-low1")),
    ("local-f3d", ("cli-seed2",)),
]


@pytest.mark.parametrize("workload,labels", CASES)
def test_exact_counts_repeat_between_traced_runs(workload, labels, tmp_path):
    solves = _pick(workload, labels, tmp_path)
    first, _ = _traced(solves)
    second, _ = _traced(solves)
    for a, b in zip(first, second):
        counts_a = {k: a[0][2][k] for k in run.EXACT_COUNTS}
        counts_b = {k: b[0][2][k] for k in run.EXACT_COUNTS}
        assert counts_a == counts_b
        assert a[0][1].ok and b[0][1].ok


def test_counts_reach_every_layer_of_a_cli_run(tmp_path):
    solves = _pick("local-f3d", ("cli-seed2",), tmp_path)
    reps, tracer = _traced(solves)
    layers = reps[0][0][2]
    assert layers["objectives.value_calls"] > 0
    assert layers["objectives.gradient_calls"] > 0
    assert layers["geometry.inner_calls"] > 0
    assert layers["outer.calls"] > 0
    assert layers["local.iterations"] >= 1
    assert layers["trace.bytes"] > 0
    names = {r[2] for r in tracer.records}
    assert {"cli.run", "trace.write", "local.solve", "local.eig", "local.lower_bound",
            "outer.sweep", "outer.full", "geometry.inner", "geometry.closest", "newton",
            "linalg.complete_frame"} <= names
    for rec in tracer.records:  # self time never exceeds the span
        assert 0.0 <= rec[6] <= rec[5] - rec[4] + 1e-9


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, k), getattr(b, k)) for k in a.__dataclass_fields__)
    return a == b or (a != a and b != b)  # nan == nan here


@pytest.mark.parametrize("workload,labels", CASES)
def test_counting_wrap_leaves_outputs_unchanged(workload, labels, tmp_path):
    solve = _pick(workload, labels[:1], tmp_path)[0]
    plain = solve.run(lambda f: f)
    plain_files = {p.name: p.read_bytes() for p in Path(tmp_path).glob("*")}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.on = True
        counted = solve.run(tracer.objective)
        tracer.on = False
    assert tracer.records, "the wrappers recorded nothing"
    assert _same(plain, counted)
    assert plain_files == {p.name: p.read_bytes() for p in Path(tmp_path).glob("*")}


def test_wrappers_are_removed_after_a_traced_run():
    from saddlekit import cli, geometry, outer

    before = (cli.run, outer.inner_max_diameter, geometry.max_separation_pair)
    with spans.installed(spans.Tracer()):
        assert outer.inner_max_diameter is not before[1]
    assert (cli.run, outer.inner_max_diameter, geometry.max_separation_pair) == before


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,units", [("0", run.E2E_UNITS), ("1", run.LAYER_UNITS)])
def test_result_line_has_the_contract_keys(trace, units):
    proc = _bench(ROOT, "--workload", "oracle", "--seed", "5", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == units


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "oracle", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
