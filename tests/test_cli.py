import os
import subprocess
import sys
from pathlib import Path

import pytest

from saddlekit.cli import main
from saddlekit.trace import SolverTrace


def run_cli(*argv):
    return main(list(argv))


class TestSolveCommand:
    def test_bisection_run_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli(
            "solve", "--problem", "quadratic-diag:1,-1", "--morse-index", "1",
            "--algorithm", "bisection", "--center", "0,0", "--radius", "2",
            "--lower", "-1", "--upper", "1", "--max-iter", "20",
            "--trace-out", str(out),
        )
        assert code == 0
        trace = SolverTrace.read(out)
        assert len(trace) == 20
        width = trace[-1].u - trace[-1].l
        assert width <= 2.0 * 2.0**-19
        text = capsys.readouterr().out
        assert "bracket" in text

    def test_naive_subspace_structural_failure(self, capsys):
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2",
            "--algorithm", "fast-local", "--naive-subspace",
            "--lower", "-1",
        )
        assert code == 3
        assert "Unbounded" in capsys.readouterr().err

    @pytest.mark.filterwarnings("always::saddlekit.errors.NonUniqueWarning")
    def test_solver_warning_prints_as_one_plain_line(self, capsys):
        # the README command: the warning names no source file or code line
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2",
            "--algorithm", "fast-local", "--naive-subspace",
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "structural failure: Unbounded" in err
        assert err.count("warning: slice has multiple separation-realizing pairs\n") == 1
        assert ".py:" not in err

    def test_fast_local_converges(self, tmp_path):
        out = tmp_path / "t.json"
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2",
            "--algorithm", "fast-local", "--lower", "-1",
            "--tol", "1e-30", "--max-iter", "10",
            "--trace-out", str(out), "--format", "json",
        )
        assert code == 0
        trace = SolverTrace.read(out)
        assert len(trace) >= 4
        assert abs(trace[-1].l) < 1e-10
        assert trace.critical_value == 0.0

    def test_naive_subspace_missing_the_region_is_a_config_error(self, capsys):
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2",
            "--algorithm", "fast-local", "--naive-subspace",
            "--center", "5,0,0", "--radius", "1",
        )
        assert code == 1
        assert "naive-subspace" in capsys.readouterr().err

    def test_naive_subspace_of_another_index_is_a_config_error(self, capsys):
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "1",
            "--naive-subspace", "--lower", "-1",
        )
        assert code == 1
        assert "naive-subspace" in capsys.readouterr().err

    def test_nonpositive_tol_is_a_config_error(self, capsys):
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2", "--tol", "-1",
        )
        assert code == 1
        assert "tol" in capsys.readouterr().err

    def test_lower_bound_violation_prints_plain_floats(self, capsys):
        code = run_cli("solve", "--problem", "quadratic-diag:1,1", "--morse-index", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "LowerBoundViolated" in err
        assert "np.float64" not in err

    def test_iteration_cap_exits_not_converged(self, capsys):
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2",
            "--algorithm", "fast-local", "--lower", "-1", "--max-iter", "1",
        )
        assert code == 2
        assert "level estimate" in capsys.readouterr().out

    def test_domain_violation_exits_not_converged(self, capsys):
        code = run_cli(
            "solve", "--problem", "four-lines", "--morse-index", "2",
            "--algorithm", "fast-local", "--lower", "-1", "--max-iter", "3",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "solver failure: DomainViolation" in err
        assert "Traceback" not in err

    def test_empty_first_slice_is_a_structural_failure(self, capsys):
        # l* = 0 lies below the given lower bound 0.5
        code = run_cli(
            "solve", "--problem", "cubic-saddle", "--morse-index", "1",
            "--algorithm", "fast-local", "--lower", "0.5",
        )
        assert code == 3
        assert "structural failure: SliceEmpty" in capsys.readouterr().err

    @pytest.mark.parametrize("coeffs", ["1,nan", "1,inf", "1e308,-1e308"])
    def test_non_finite_coefficients_are_a_config_error(self, coeffs, capsys):
        code = run_cli("solve", "--problem", "quadratic-diag:" + coeffs, "--morse-index", "1")
        assert code == 1
        assert "config error: problem:" in capsys.readouterr().err

    def test_radius_with_an_overflowing_square_is_a_config_error(self, capsys):
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2",
            "--algorithm", "bisection", "--lower", "-1", "--upper", "1",
            "--radius", "1e155",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: radius: ")
        assert "Traceback" not in err

    def test_missing_morse_index(self, capsys):
        code = run_cli("solve", "--problem", "quadratic-diag:1,-1")
        assert code == 1
        assert "morse-index" in capsys.readouterr().err

    def test_missing_problem(self, capsys):
        code = run_cli("solve", "--morse-index", "1")
        assert code == 1
        assert "problem" in capsys.readouterr().err

    def test_unknown_problem(self, capsys):
        code = run_cli("solve", "--problem", "nope", "--morse-index", "1")
        assert code == 1
        assert "problem" in capsys.readouterr().err

    def test_bad_morse_index(self, capsys):
        code = run_cli("solve", "--problem", "quadratic-diag:1,-1", "--morse-index", "5")
        assert code == 1
        assert "morse-index" in capsys.readouterr().err

    def test_bad_center_length(self, capsys):
        code = run_cli(
            "solve", "--problem", "quadratic-diag:1,-1", "--morse-index", "1",
            "--center", "0,0,0",
        )
        assert code == 1
        assert "center" in capsys.readouterr().err

    def test_both_algorithms(self, capsys):
        code = run_cli(
            "solve", "--problem", "cubic-saddle", "--morse-index", "1",
            "--radius", "1.5", "--lower", "-0.5", "--upper", "0.5",
            "--max-iter", "12",
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "bracket" in text and "level estimate" in text

    def test_both_default_bracket_contains_critical_value(self, capsys):
        # the bisection stops at --tol under "both" too, before levels so
        # close to l* = 0 that their classification is unreliable
        code = run_cli("solve", "--problem", "failure-3d", "--morse-index", "2")
        assert code == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("bracket ")
        )
        lo, hi = (float(v) for v in line.split(None, 1)[1].strip("[]").split(","))
        assert lo <= 0.0 <= hi
        assert hi - lo <= 1e-8

    def test_both_local_start_at_the_critical_value(self, capsys):
        # the bisection's first midpoint is l* = 0 itself, so the local
        # method starts at the critical value and must still converge
        code = run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2",
            "--algorithm", "both", "--lower", "-1", "--upper", "1", "--max-iter", "20",
        )
        assert code == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("level estimate")
        )
        assert abs(float(line.split()[-1])) <= 1e-12

    def test_both_hands_off_centre_bracket_to_local(self, tmp_path, capsys):
        # bisection's subspace seeds the local method around a centre that
        # is off the saddle
        texts, paths = [], []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = run_cli(
                "solve", "--problem", "cubic-saddle", "--morse-index", "1",
                "--center", "0.05,-0.05", "--radius", "1",
                "--lower", "-1", "--upper", "1", "--max-iter", "12",
                "--trace-out", str(out),
            )
            assert code == 0
            texts.append(capsys.readouterr().out)
            paths.append(out)
        level = next(
            line.split()[-1] for line in texts[0].splitlines()
            if line.startswith("level estimate")
        )
        assert abs(float(level)) <= 1e-12
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_index_equal_to_dimension(self, capsys):
        # m = n: a local maximum, whose orthogonal space is a single point
        code = run_cli(
            "solve", "--problem", "quadratic-diag:-1,-2", "--morse-index", "2",
            "--algorithm", "fast-local", "--lower", "-1",
        )
        assert code == 0
        level = next(
            line.split()[-1] for line in capsys.readouterr().out.splitlines()
            if line.startswith("level estimate")
        )
        assert abs(float(level)) <= 1e-12

    def test_negative_values_in_spaced_form(self, tmp_path):
        # a value that starts with "-" and is not a plain decimal used to be
        # read as an option ("expected one argument")
        outs = []
        for argv in (
            ("--center", "-0.05,0.05", "--lower", "-1e0"),
            ("--center=-0.05,0.05", "--lower=-1e0"),
            ("--lower", "-1"),
        ):
            out = tmp_path / f"t{len(outs)}.csv"
            code = run_cli(
                "solve", "--problem", "quadratic-diag:1,-1", "--morse-index", "1",
                "--algorithm", "bisection", *argv, "--upper", "1", "--max-iter", "6",
                "--trace-out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]  # the centre was applied

    @pytest.mark.parametrize("argv", [
        ("solve", "--bogus"),
        ("solve", "--radius", "wide"),
        ("solve", "--algorithm", "newton"),
        ("solve", "--center"),
        ("frobnicate",),
    ])
    def test_usage_errors_exit_as_config_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--help")
        assert exc.value.code == 0
        assert "--center" in capsys.readouterr().out

    def test_unwritable_trace_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        code = run_cli(
            "solve", "--problem", "quadratic-diag:1,-1", "--morse-index", "1",
            "--algorithm", "bisection", "--lower", "-1", "--upper", "1",
            "--max-iter", "4", "--trace-out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: trace-out: ")
        assert not out.exists()

    def test_determinism(self, tmp_path):
        # with both bracket ends given, --seed reaches no computation: a
        # repeated run and every seed write the same trace bytes
        traces = set()
        for run, seed in enumerate([3, *range(10)]):
            out = tmp_path / f"run{run}.csv"
            code = run_cli(
                "solve", "--problem", "failure-3d", "--morse-index", "2",
                "--algorithm", "fast-local", "--lower", "-1", "--seed", str(seed),
                "--max-iter", "8", "--trace-out", str(out),
            )
            assert code == 0
            traces.add(out.read_bytes())
        assert len(traces) == 1


class TestReportCommand:
    def test_bisection_trace_is_linear(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run_cli(
            "solve", "--problem", "quadratic-diag:1,-1", "--morse-index", "1",
            "--algorithm", "bisection", "--lower", "-1", "--upper", "1",
            "--max-iter", "12", "--trace-out", str(out),
        )
        capsys.readouterr()
        code = run_cli("report", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "Linear" in text

    def test_fast_local_trace_is_superlinear(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run_cli(
            "solve", "--problem", "failure-3d", "--morse-index", "2",
            "--algorithm", "fast-local", "--lower", "-1",
            "--tol", "1e-30", "--max-iter", "10", "--trace-out", str(out),
        )
        capsys.readouterr()
        code = run_cli("report", str(out))
        assert code == 0
        assert "Superlinear" in capsys.readouterr().out

    def test_short_trace_insufficient(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run_cli(
            "solve", "--problem", "quadratic-diag:1,-1", "--morse-index", "1",
            "--algorithm", "bisection", "--lower", "-1", "--upper", "1",
            "--max-iter", "2", "--trace-out", str(out),
        )
        capsys.readouterr()
        code = run_cli("report", str(out))
        assert code == 1
        assert "insufficient" in capsys.readouterr().err.lower()

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        code = run_cli("report", str(bad))
        assert code == 1
        assert "parse error" in capsys.readouterr().err


def test_module_entry_point_runs_without_install():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [
            sys.executable, "-m", "saddlekit", "solve", "--problem", "failure-3d",
            "--morse-index", "2", "--algorithm", "fast-local", "--lower", "-1",
        ],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "level estimate" in out.stdout
