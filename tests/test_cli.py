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
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = run_cli(
                "solve", "--problem", "failure-3d", "--morse-index", "2",
                "--algorithm", "fast-local", "--lower", "-1", "--seed", "3",
                "--max-iter", "8", "--trace-out", str(out),
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


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
