"""CSV iterate logs and key=value summary files.

The CSV schema is fixed: one line per record given, in order.  Float cells
use shortest round-trip formatting so reruns with the same seed are
byte-identical in single-thread mode (the wall-clock column is exempt from
that guarantee).
"""

from __future__ import annotations

from pathlib import Path

CSV_HEADER = "k,samples_cum,grad_evals_cum,fval,gap,grad_norm,step_norm,wall_ms"


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_csv(path, records) -> None:
    """Write an iterable of records (a run's ``IterateLog`` holds only the
    rows it kept), one line each."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.k),
            str(r.samples_cum),
            str(r.grad_evals_cum),
            _fmt(r.f_value),
            _fmt(r.gap),
            _fmt(r.grad_norm),
            _fmt(r.step_norm),
            _fmt(r.wall_time * 1000.0),
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path):
    """Parse a log back into a list of dicts (floats; k and counters int)."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    names = CSV_HEADER.split(",")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"{path}: malformed row {line!r}")
        row = dict(zip(names, cells))
        for key in ("k", "samples_cum", "grad_evals_cum"):
            row[key] = int(row[key])
        for key in ("fval", "gap", "grad_norm", "step_norm", "wall_ms"):
            row[key] = float(row[key])
        out.append(row)
    return out


def write_summary(path, entries: dict) -> None:
    lines = [f"{key} = {_fmt_summary(value)}" for key, value in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_summary(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _fmt_summary(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
