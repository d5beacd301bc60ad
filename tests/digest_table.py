"""Recompute the CSV digest table that CHANGES.md quotes for each change,
and check it against the recorded values.

Runs fourteen CLI configurations of this checkout, each in a fresh
interpreter with ``src/`` on ``PYTHONPATH``, into a temporary directory, and
prints one line per run: its digest, its CSV count and its arguments.  The
digest is the first 16 hex digits of the SHA-256 of what ``sha256sum`` prints
for the run's CSVs in C-locale name order, that is of
``cd OUT && sha256sum *.csv | sha256sum``.  Exits 1 if any run's digest or
exit status differs from the one recorded in ``RUNS``; a change that alters
an artifact byte updates the value here and says why in CHANGES.md.

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

# (arguments, digest, exit status) of each run.
RUNS = [
    ("fundamental-diagram", "bf1c1ab4dfe9b8f9", 0),
    ("single-lane", "0a7fa05f08c72444", 0),
    ("stability", "58254c4fa01fdbdc", 0),
    ("tau-curve", "b76f2ab243447a88", 0),
    ("load-balance", "e7fbd4d40f33acbd", 0),
    ("aggressive --workers 2", "913cc9f7b6e4d1d0", 0),
    ("single-lane --set t_end=100 --set perturb_displacement=0", "c450d1a45ea809f5", 0),
    ("single-lane --set delay=0.75", "b433b3596dddc65e", 0),
    ("two-lane --set n_lane0=30 --set n_lane1=20 --set dt=0.05", "985b97c0fcec95e2", 0),
    ("aggressive --set t_end=100 --replicas 4", "196f22bf858c76b5", 0),
    ("load-balance --set record_stride=3 --set delta_flow=5.03", "420d4ed5a2c1e050", 0),
    (
        "two-lane --set delay=0.75 --set dt=0.05 --set n_lane0=30 --set n_lane1=20",
        "c070e10cf715e0ab",
        0,
    ),
    # Collides at 11.95 s.
    (
        "two-lane --set delay=0.7 --set dt=0.05 --set n_lane0=35 --set n_lane1=15 --set p=0.2 "
        "--seed 100",
        "d2773c0f95d1019b",
        0,
    ),
    # Seed 6 collides at 36.95 s, between two sampled steps of its survivors.
    (
        "load-balance --set delay=0.5 --set t_end=60 --replicas 4 --seed 5 --set record_stride=3 "
        "--set delta_flow=2.03",
        "4d69abd3ae13bb8f",
        4,
    ),
]


def digest(out: Path) -> tuple[str, int]:
    """The digest of the CSVs in ``out`` and their count."""
    names = sorted((p.name for p in out.glob("*.csv")), key=os.fsencode)
    listing = "".join(f"{hashlib.sha256((out / n).read_bytes()).hexdigest()}  {n}\n" for n in names)
    return hashlib.sha256(listing.encode()).hexdigest()[:16], len(names)


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (args, expected, expected_status) in enumerate(RUNS):
            out = Path(tmp) / str(i)
            cmd = [sys.executable, "-m", "ringtraffic.cli", *args.split(), "--out", str(out), "--quiet"]
            status = subprocess.run(cmd, env=env).returncode
            value, count = digest(out)
            print(f"{value}  ({count} CSV)  {args}", flush=True)
            if (value, status) != (expected, expected_status):
                mismatches += 1
                print(
                    f"MISMATCH {args}: expected {expected} with exit {expected_status}, "
                    f"got {value} with exit {status}",
                    file=sys.stderr,
                    flush=True,
                )
    if mismatches:
        print(f"{mismatches} of {len(RUNS)} runs differ from the recorded table", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
