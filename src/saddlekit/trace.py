"""Per-iteration solver records and their CSV / JSON persistence.

Trace files use the column layout

    iter,l,u,diameter,kkt_residual,z,grad_norm,ratio

with floats printed to 17 significant digits (lossless for doubles), the
``z`` field holding semicolon-separated coordinates, and ``u``/``ratio``
left blank (CSV) or null (JSON) when absent.  Writing then reading a trace
reproduces every value bit-for-bit.

A trace may carry the known critical value of its problem, the reference
against which rate measurement forms level gaps.  When it is set, the CSV
file starts with one line ``# critical_value=<value>`` before the header and
the JSON file is an object ``{"critical_value": v, "records": [...]}``.
When it is unset the CSV file starts with the header and the JSON file is a
bare array of records, so such traces keep their earlier bytes.  Readers
accept both forms.
"""

import csv
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import TraceParseError

__all__ = ["TraceRecord", "SolverTrace"]

_FIELDS = ["iter", "l", "u", "diameter", "kkt_residual", "z", "grad_norm", "ratio"]
_OPTIONAL = ("u", "ratio")
_CRITICAL_VALUE_LINE = "# critical_value="


def _fmt(v):
    return "%.17g" % float(v)


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    l: float
    u: Optional[float]
    diameter: float
    kkt_residual: float
    z: np.ndarray
    grad_norm: float
    ratio: Optional[float]

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))


def _values(r):
    """The record's values by name, in ``_FIELDS`` order, ``z`` as a list of floats."""
    return {**{name: getattr(r, name) for name in _FIELDS}, "z": [float(c) for c in r.z]}


def _record(v):
    """The record of the values ``v`` (numbers or their text) by name."""

    def num(name):  # only u and ratio may be absent
        return None if name in _OPTIONAL and v[name] is None else float(v[name])

    return TraceRecord(int(v["iter"]), num("l"), num("u"), num("diameter"),
                       num("kkt_residual"), np.array([float(c) for c in v["z"]]),
                       num("grad_norm"), num("ratio"))


def _csv_cell(name, v):
    if v is None:
        return ""
    if name == "z":
        return ";".join(_fmt(c) for c in v)
    return v if name == "iter" else _fmt(v)


def _csv_value(name, cell):
    if name == "z":
        return [t for t in cell.split(";") if t != ""]
    return None if cell == "" and name in _OPTIONAL else cell


@dataclass
class SolverTrace:
    records: list = field(default_factory=list)
    critical_value: Optional[float] = None

    def append(self, record):
        if self.records and record.iter <= self.records[-1].iter:
            raise ValueError("iteration numbers must be strictly increasing")
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def levels(self):
        return np.array([r.l for r in self.records])

    def widths(self):
        """Bracket widths u - l; nan where u is absent."""
        return np.array([
            (r.u - r.l) if r.u is not None else np.nan for r in self.records
        ])

    def has_brackets(self):
        return bool(self.records) and all(r.u is not None for r in self.records)

    # ------------------------------------------------------------------ io

    def write(self, path, fmt="csv"):
        if fmt == "csv":
            self.write_csv(path)
        elif fmt == "json":
            self.write_json(path)
        else:
            raise ValueError(f"unknown trace format {fmt!r}")

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.critical_value is not None:
                fh.write(_CRITICAL_VALUE_LINE + _fmt(self.critical_value))
                fh.write(writer.dialect.lineterminator)
            writer.writerow(_FIELDS)
            for r in self.records:
                writer.writerow(_csv_cell(*item) for item in _values(r).items())

    def write_json(self, path):
        payload = [_values(r) for r in self.records]
        if self.critical_value is not None:
            payload = {"critical_value": self.critical_value, "records": payload}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    @classmethod
    def read(cls, path, fmt=None):
        if fmt is None:
            fmt = "json" if str(path).endswith(".json") else "csv"
        if fmt == "csv":
            return cls.read_csv(path)
        if fmt == "json":
            return cls.read_json(path)
        raise ValueError(f"unknown trace format {fmt!r}")

    @classmethod
    def read_csv(cls, path):
        trace = cls()
        try:
            with open(path, newline="") as fh:
                lines = fh.readlines()
            if lines and lines[0].startswith(_CRITICAL_VALUE_LINE):
                trace.critical_value = float(lines.pop(0)[len(_CRITICAL_VALUE_LINE):])
            reader = csv.reader(lines)
            header = next(reader, None)
            if header != _FIELDS:
                raise TraceParseError(f"unexpected header {header!r}")
            for row in reader:
                if len(row) != len(_FIELDS):
                    raise TraceParseError(f"bad row {row!r}")
                trace.append(_record({n: _csv_value(n, c) for n, c in zip(_FIELDS, row)}))
        except (OSError, ValueError) as exc:
            raise TraceParseError(str(exc)) from exc
        return trace

    @classmethod
    def read_json(cls, path):
        trace = cls()
        try:
            with open(path) as fh:
                payload = json.load(fh)
            if isinstance(payload, dict):
                trace.critical_value = float(payload["critical_value"])
                payload = payload["records"]
            for row in payload:
                trace.append(_record(row))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise TraceParseError(str(exc)) from exc
        return trace
