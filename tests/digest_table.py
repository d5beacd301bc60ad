"""Recompute the CSV digest table that CHANGES.md quotes for each change.

Runs twelve CLI configurations of this checkout, each in a fresh interpreter
with ``src/`` on ``PYTHONPATH``, into a temporary directory, and prints one
line per run: its digest, its CSV count and its arguments.  The digest is the first 16 hex digits of the SHA-256 of
what ``sha256sum`` prints for the run's CSVs in C-locale name order, that is
of ``cd OUT && sha256sum *.csv | sha256sum``.

    python tests/digest_table.py
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = [
    ["fundamental-diagram"],
    ["single-lane"],
    ["stability"],
    ["tau-curve"],
    ["load-balance"],
    ["aggressive", "--workers", "2"],
    ["single-lane", "--set", "t_end=100", "--set", "perturb_displacement=0"],
    ["single-lane", "--set", "delay=0.75"],
    ["two-lane", "--set", "n_lane0=30", "--set", "n_lane1=20", "--set", "dt=0.05"],
    ["aggressive", "--set", "t_end=100", "--replicas", "4"],
    ["load-balance", "--set", "record_stride=3", "--set", "delta_flow=5.03"],
    ["two-lane", "--set", "delay=0.75", "--set", "dt=0.05", "--set", "n_lane0=30", "--set", "n_lane1=20"],
]


def digest(out: Path) -> tuple[str, int]:
    """The digest of the CSVs in ``out`` and their count."""
    names = sorted((p.name for p in out.glob("*.csv")), key=os.fsencode)
    listing = "".join(f"{hashlib.sha256((out / n).read_bytes()).hexdigest()}  {n}\n" for n in names)
    return hashlib.sha256(listing.encode()).hexdigest()[:16], len(names)


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(RUNS):
            out = Path(tmp) / str(i)
            cmd = [sys.executable, "-m", "ringtraffic.cli", *args, "--out", str(out), "--quiet"]
            subprocess.run(cmd, env=env, check=True)
            value, count = digest(out)
            print(f"{value}  ({count} CSV)  {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
