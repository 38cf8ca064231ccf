"""CSV iterate logs and key=value summary files.

The CSV schema is fixed: one line per record given, in order.  Float cells
use shortest round-trip formatting so reruns with the same seed are
byte-identical at any CPU count (the wall-clock column is exempt from that
guarantee), as long as the BLAS runs its matrix products on as many
threads each time.
"""

from __future__ import annotations

from pathlib import Path

CSV_HEADER = "k,samples_cum,grad_evals_cum,fval,gap,grad_norm,step_norm,wall_ms"


def write_csv(path, records) -> None:
    """Write a run's ``IterateLog`` (it holds only the rows it kept), one
    line a row; a None field is NaN, written "nan"."""
    lines = [CSV_HEADER]
    lines += [f"{k},{samples_cum},{grad_evals_cum},{f_value!r},{gap!r},"
              f"{grad_norm!r},{step_norm!r},{wall_time * 1000.0!r}"
              for (k, samples_cum, grad_evals_cum, f_value, gap, grad_norm,
                   step_norm, wall_time) in records.csv_fields()]
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
