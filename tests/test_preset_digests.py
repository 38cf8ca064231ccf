"""Every preset's outputs at seed 1 against their committed SHA-256 digests.

Each preset runs in-process, as ``vsqn run --preset P --seed 1`` does, into
a temporary directory.  Every CSV is hashed without its wall-clock column
and every summary whole.  numpy picks its float kernels by its version and
by the SIMD extensions the CPU offers, so the digests are pinned to both;
on another numpy or SIMD set the test skips and names what differs.  After
a change that moves a trajectory on purpose, rewrite the manifest with

    PYTHONPATH=src python tests/test_preset_digests.py

which first prints each output whose digest differs from the committed
manifest's (changed, added or gone), so the rewrite shows what it moves.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from vsqn import problems
from vsqn.harness.cli import main
from vsqn.harness.presets import PRESET_NAMES

MANIFEST = Path(__file__).parent / "data" / "preset_digests.json"
SEED = 1


def _simd_found() -> Optional[list]:
    """The SIMD extensions numpy dispatches to here (``np.show_runtime()``'s
    "found" list), or None where numpy does not expose them there."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return None
    return [f for f in __cpu_dispatch__ if __cpu_features__[f]]


def runtime() -> dict:
    return {"numpy": np.__version__, "simd_found": _simd_found()}


def preset_digests(out_dir: Path, names=PRESET_NAMES) -> dict:
    """File name -> SHA-256 of every output of the presets ``names`` at seed
    ``SEED``."""
    for name in names:
        assert main(["run", "--preset", name, "--out", str(out_dir),
                     "--seed", str(SEED)]) == 0
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".csv":  # drop wall_ms, the last column
            data = b"".join(line.rsplit(b",", 1)[0] + b"\n"
                            for line in data.splitlines())
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_preset_outputs_match_their_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    here = runtime()
    differs = [f"{key} {manifest[key]} there, {here[key]} here"
               for key in here if manifest[key] != here[key]]
    if differs:
        pytest.skip("digests taken on another runtime: " + "; ".join(differs))
    digests = preset_digests(tmp_path)
    assert sorted(digests) == sorted(manifest["digests"])
    changed = [name for name, d in digests.items() if manifest["digests"][name] != d]
    assert not changed, f"outputs differ from their digests: {changed}"


@pytest.mark.parametrize("cpus", [1, 2])
def test_split_and_serial_draws_match_the_digests(tmp_path, monkeypatch, cpus):
    # illcond_sweep is the one preset with quadratic draws large enough to
    # split; the test above takes the branch of this host's CPU count, this
    # one both: serial on one CPU, two spans on two
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if runtime() != {key: manifest[key] for key in runtime()}:
        pytest.skip("digests taken on another runtime")
    monkeypatch.setattr(problems, "_CPUS", cpus)
    # an empty stream memo, or a draw made before is recalled, not drawn
    monkeypatch.setattr(problems, "_STREAM_MEMO", problems._StreamMemo())
    spans, calls = problems._two_span_sums, []
    monkeypatch.setattr(problems, "_two_span_sums",
                        lambda *args: calls.append(1) or spans(*args))
    digests = preset_digests(tmp_path, ["illcond_sweep"])
    assert bool(calls) == (cpus == 2)
    assert digests == {name: manifest["digests"][name] for name in digests}


def digest_changes(old: dict, new: dict) -> list:
    """``changed``, ``added`` or ``gone`` and the file name, per output whose
    digest differs between the manifests' ``digests`` maps old and new."""
    return [("changed" if name in old and name in new
             else "added" if name in new else "gone", name)
            for name in sorted(old.keys() | new.keys())
            if old.get(name) != new.get(name)]


def test_digest_changes_names_each_changed_added_and_gone_output():
    old = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}
    new = {"a.csv": "1", "b.csv": "9", "d.csv": "4"}
    assert digest_changes(old, new) == [("changed", "b.csv"), ("gone", "c.csv"),
                                        ("added", "d.csv")]
    assert digest_changes(new, new) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = {**runtime(), "seed": SEED, "digests": preset_digests(Path(tmp))}
    old = (json.loads(MANIFEST.read_text(encoding="utf-8"))["digests"]
           if MANIFEST.exists() else {})
    for change, name in digest_changes(old, manifest["digests"]):
        print(f"{change}: {name}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['digests'])} digests to {MANIFEST}")
