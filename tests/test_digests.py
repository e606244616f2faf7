"""Every command's outputs, pinned by digest.

Each case runs one command in-process through ``cli.main`` on one frozen
ensemble at small sizes and seed 2301, and hashes every CSV and JSON output
except ``manifest.json`` (timings and versions).  The digests and exit codes
must equal those in ``digests.json``, which also records the environment
they were taken on: Python, numpy and the CPU model.  Round-off may differ
on another environment, so there every mismatch names the environment's
difference, and a separate test reports that difference even when every
digest still matches.

A change that moves an output on purpose rewrites the file with

    PYTHONPATH=src python tests/test_digests.py

and pastes ``tests/drift_report.py``'s report of the moved numbers into
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from matspec import ensembles
from matspec.cli import main
from matspec.ensemble import save_ensemble

DIGESTS = Path(__file__).with_name("digests.json")
SEED = 2301
ENSEMBLES = ("kesten_affine_1d", "ip_affine_2d", "ip_shear_affine_2d", "affine_3d")
COMMANDS = ("validate", "spectrum", "tails", "renewal", "cramer", "dualwalk")
CONFIG = {
    "seed": SEED,
    "grid_resolution": 128,
    "s_grid": {"min": 0.0, "max": 2.0, "count": 3},
    "mc": {"paths": 1000, "steps": 300, "samples": 20_000},
    "options": {"directions": 2},
}
CASES = [f"{command}-{name}" for name in ENSEMBLES for command in COMMANDS]


def environment() -> dict[str, str]:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu_model": cpu}


def run_case(case: str, work: Path) -> dict:
    """Run one case in work; its exit code and the sha256 of each output."""
    command, name = case.split("-", 1)
    save_ensemble(getattr(ensembles, name)(), work / "ensemble.json")
    out = work / "out"
    (work / "config.json").write_text(
        json.dumps({**CONFIG, "ensemble": "ensemble.json", "out": str(out)}))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", str(work / "config.json")])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())
             if p.suffix in (".csv", ".json") and p.name != "manifest.json"}
    return {"exit": code, "files": files}


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _environment_difference(recorded: dict) -> str:
    now = environment()
    return "; ".join(f"{key} {recorded[key]!r} recorded, {now[key]!r} here"
                     for key in now if recorded.get(key) != now[key])


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_digests(case, tmp_path):
    recorded = _recorded()
    got = run_case(case, tmp_path)
    want = recorded["runs"][case]
    if got != want:
        moved = sorted(set(got["files"]) | set(want["files"]))
        moved = [f for f in moved if got["files"].get(f) != want["files"].get(f)]
        where = _environment_difference(recorded["environment"])
        pytest.fail(f"{case}: exit {got['exit']} (recorded {want['exit']}), "
                    f"outputs that differ: {moved or 'none'}; "
                    + (f"environment: {where}" if where else "same environment as recorded"))


def test_digests_cover_every_case():
    recorded = _recorded()
    assert (recorded["seed"], recorded["config"]) == (SEED, CONFIG)
    assert sorted(recorded["runs"]) == sorted(CASES)


def test_environment_is_the_recorded_one():
    # a digest taken elsewhere may differ by round-off; report, never skip
    where = _environment_difference(_recorded()["environment"])
    if where:
        warnings.warn(f"digests were recorded on another environment: {where}")


def write_digests(work: Path) -> dict:
    runs = {}
    for case in CASES:
        (work / case).mkdir()
        runs[case] = run_case(case, work / case)
    doc = {"environment": environment(), "seed": SEED, "config": CONFIG, "runs": runs}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return doc


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = write_digests(Path(tmp))
    print(f"wrote {len(doc['runs'])} runs to {DIGESTS}", file=sys.stderr)
