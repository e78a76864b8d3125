import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlekit.errors import TraceParseError
from saddlekit.trace import SolverTrace, TraceRecord


def sample_trace(rng, n=6, with_u=True):
    t = SolverTrace()
    for i in range(n):
        t.append(TraceRecord(
            iter=i,
            l=float(rng.standard_normal()) * 10.0 ** rng.integers(-12, 3),
            u=(float(rng.standard_normal()) if with_u else None),
            diameter=abs(float(rng.standard_normal())),
            kkt_residual=float("nan") if i == 2 else abs(float(rng.standard_normal())),
            z=rng.standard_normal(3) * 10.0 ** rng.integers(-10, 2),
            grad_norm=abs(float(rng.standard_normal())),
            ratio=None if i == 0 else float(rng.random()),
        ))
    return t


def records_equal(a, b):
    if a.iter != b.iter:
        return False
    for name in ("l", "u", "diameter", "kkt_residual", "grad_norm", "ratio"):
        va, vb = getattr(a, name), getattr(b, name)
        if va is None or vb is None:
            if va is not vb:
                return False
        elif np.isnan(va) or np.isnan(vb):
            if not (np.isnan(va) and np.isnan(vb)):
                return False
        elif va != vb:
            return False
    return np.array_equal(a.z, b.z)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bit_exact(self, rng, tmp_path, fmt):
        t = sample_trace(rng)
        path = tmp_path / f"trace.{fmt}"
        t.write(path, fmt=fmt)
        back = SolverTrace.read(path)
        assert len(back) == len(t)
        for a, b in zip(t, back):
            assert records_equal(a, b)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blank_u_round_trips(self, rng, tmp_path, fmt):
        t = sample_trace(rng, with_u=False)
        path = tmp_path / f"trace.{fmt}"
        t.write(path, fmt=fmt)
        back = SolverTrace.read(path)
        assert all(r.u is None for r in back)

    def test_format_sniffing(self, rng, tmp_path):
        t = sample_trace(rng)
        t.write(tmp_path / "a.json", fmt="json")
        back = SolverTrace.read(tmp_path / "a.json")
        assert len(back) == len(t)

    def test_deterministic_bytes(self, tmp_path):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        sample_trace(rng1).write_csv(p1)
        sample_trace(rng2).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCriticalValue:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trips_bit_exact(self, rng, tmp_path, fmt):
        t = sample_trace(rng, with_u=False)
        t.critical_value = -1.2345678901234567e-7 / 3.0
        path = tmp_path / f"trace.{fmt}"
        t.write(path, fmt=fmt)
        back = SolverTrace.read(path)
        assert back.critical_value.hex() == t.critical_value.hex()
        assert len(back) == len(t)
        for a, b in zip(t, back):
            assert records_equal(a, b)

    def test_csv_preamble_line(self, rng, tmp_path):
        t = sample_trace(rng)
        t.critical_value = 0.0
        path = tmp_path / "trace.csv"
        t.write_csv(path)
        first, second = path.read_text().splitlines()[:2]
        assert first == "# critical_value=0"
        assert second.startswith("iter,l,u,")

    def test_absent_value_keeps_plain_format(self, rng, tmp_path):
        t = sample_trace(rng)
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        t.write_csv(csv_path)
        t.write_json(json_path)
        assert csv_path.read_text().splitlines()[0] == ",".join(
            ["iter", "l", "u", "diameter", "kkt_residual", "z", "grad_norm", "ratio"]
        )
        assert isinstance(json.loads(json_path.read_text()), list)
        for path in (csv_path, json_path):
            assert SolverTrace.read(path).critical_value is None


# any finite double, besides signed zeros, subnormals and the exponent extremes
_num = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300]
) | st.floats(allow_nan=False, allow_infinity=False)
# l, u, diameter, kkt_residual, z, grad_norm, ratio
_fields = st.tuples(_num, st.none() | _num, _num, st.just(float("nan")) | _num,
                    st.lists(_num, max_size=5), _num, st.none() | _num)


class TestFuzzRoundTrip:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(rows=st.lists(_fields, max_size=6), critical_value=st.none() | _num,
           fmt=st.sampled_from(["csv", "json"]))
    def test_bit_exact(self, rows, critical_value, fmt):
        t = SolverTrace(critical_value=critical_value)
        for i, (l, u, diameter, kkt, z, grad_norm, ratio) in enumerate(rows):
            t.append(TraceRecord(i, l, u, diameter, kkt, np.array(z, dtype=float), grad_norm, ratio))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"trace.{fmt}"
            t.write(path, fmt=fmt)
            back = SolverTrace.read(path)

        def bits(v):
            return None if v is None else float(v).hex()

        assert bits(back.critical_value) == bits(t.critical_value) and len(back) == len(t)
        for a, b in zip(t, back):
            for name in ("iter", "l", "u", "diameter", "kkt_residual", "grad_norm", "ratio"):
                assert bits(getattr(b, name)) == bits(getattr(a, name)), name
            assert b.z.dtype == np.float64 and b.z.tobytes() == a.z.tobytes()


class TestValidation:
    def test_iter_strictly_increasing(self):
        t = SolverTrace()
        rec = TraceRecord(0, -1.0, None, 1.0, 0.0, np.zeros(1), 0.0, None)
        t.append(rec)
        with pytest.raises(ValueError):
            t.append(rec)

    def test_parse_error_on_garbage(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("not,a,trace\n1,2,3\n")
        with pytest.raises(TraceParseError):
            SolverTrace.read(p)

    def test_parse_error_on_missing_file(self, tmp_path):
        with pytest.raises(TraceParseError):
            SolverTrace.read(tmp_path / "nope.csv")

    def test_widths_and_levels(self, rng):
        t = sample_trace(rng, with_u=True)
        assert t.has_brackets()
        assert t.widths().shape == (len(t),)
        assert t.levels().shape == (len(t),)
