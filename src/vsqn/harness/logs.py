"""CSV iterate logs and key=value summary files.

The CSV schema is fixed; float cells use shortest round-trip formatting so
reruns with the same seed are byte-identical in single-thread mode (the
wall-clock column is exempt from that guarantee).  Every iteration is
logged up to 10^4 records, after which records thin geometrically; the
final record is always kept.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

CSV_HEADER = "k,samples_cum,grad_evals_cum,fval,gap,grad_norm,step_norm,wall_ms"

FULL_FIDELITY_ROWS = 10_000
THIN_FACTOR = 1.05


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def thin_indices(count: int) -> list[int]:
    """Indices kept by the logging cadence for ``count`` records."""
    if count <= FULL_FIDELITY_ROWS:
        return list(range(count))
    kept = list(range(FULL_FIDELITY_ROWS))
    mark = float(FULL_FIDELITY_ROWS)
    while True:
        mark = mark * THIN_FACTOR
        idx = int(math.ceil(mark))
        if idx >= count - 1:
            break
        kept.append(idx)
    kept.append(count - 1)
    return kept


def write_csv(path, records) -> None:
    """Write the kept rows of a sequence of records (``thin_indices``): the
    full-fidelity head in one pass over it, which an ``IterateLog`` unpacks
    with ``struct.iter_unpack``, and the thinned tail by index."""
    kept = thin_indices(len(records))
    lines = [CSV_HEADER]
    for r in itertools.chain(itertools.islice(records, FULL_FIDELITY_ROWS),
                             map(records.__getitem__, kept[FULL_FIDELITY_ROWS:])):
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
