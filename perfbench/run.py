"""Benchmark of ringtraffic: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every execution of a CLI workload runs in a fresh interpreter
(perfbench/child.py) against the package sources under src/.  A run makes
round(S / W) executions (at least two), W being the mean workload time of
those made so far, so that it measures about S seconds of workload time.  The
stability scan runs SETUP_SAMPLES fresh interpreters instead, each running
whole rounds for S / SETUP_SAMPLES seconds.  Extra interpreters that only
import the package and resolve the config bring the set-up samples up to
SETUP_SAMPLES.  The outputs of the first execution are checked against
computations made here; later executions must reproduce its artifacts byte
for byte.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics untraced, the per-layer metrics with --trace 1).
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import LAYER_METRICS
from workloads import SINGLE_LANE_N, WORKLOADS, cli_config, stability_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0  # every child is stopped before the run's 180 s limit
CHILD_TIMEOUT_S = 150.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment without config overrides, BLAS pinned to one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RINGTRAFFIC_")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Fresh imports read cached bytecode, as those of an installed package do.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(request: dict, stem: Path, env: dict, deadline: float) -> dict:
    """Run one fresh interpreter; return its measurements."""
    req_path, res_path = stem.with_suffix(".request.json"), stem.with_suffix(".result.json")
    req_path.write_text(json.dumps(request), encoding="utf-8")
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(req_path), str(res_path)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{stem.name}: timed out after {timeout:.0f} s")
    except BaseException:  # the harness is being stopped: stop the child too
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{stem.name}: exit {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(res_path.read_text(encoding="utf-8"))


def artifact_digests(out: Path) -> dict:
    """sha256 of every artifact except the manifest, which records wall time."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def check_outputs(workload: str, seed: int, out: Path, rows) -> tuple[list[int], list[str]]:
    """(failed call indices, problems) of one execution's outputs."""
    try:
        if workload == "stability_scan":
            return checks.classify_stability(rows)
        return [], check_artifacts(workload, seed, out)
    except Exception as exc:  # a malformed artifact is a failed check, not a crash
        return [], [f"outputs could not be checked: {type(exc).__name__}: {exc}"]


def check_artifacts(workload: str, seed: int, out: Path) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    problems = [
        f"manifest lists missing artifact {name}"
        for name in manifest["artifacts"]
        if not (out / name).is_file()
    ]
    if workload == "single_lane_cli":
        problems += checks.check_single_lane(out, seed % SINGLE_LANE_N)
    else:
        problems += checks.check_load_balance(out, len(manifest["seeds"]))
        problems += [
            f"replica {t['replica']} ended with {t['reason']}"
            for t in manifest["terminations"]
            if t["reason"] != "completed"
        ]
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    work = OUT_ROOT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kind, overrides = cli_config(workload, seed)
    plan = stability_plan(seed) if workload == "stability_scan" else None
    ops = 1 if plan is None else len(plan["tau_c_fleets"]) + len(plan["growth_points"])

    def execute(name, with_trace=False, setup_only=False):
        request = {
            "kind": kind,
            "overrides": overrides,
            "out": str(work / name),
            "plan": plan,
            # A stability child runs whole rounds for its share of the run
            # (one round when traced, so that layer counts are per round).
            "round_seconds": 0.0 if with_trace else seconds / SETUP_SAMPLES,
            "trace": with_trace,
            "setup_only": setup_only,
        }
        return run_child(request, work / name, env, deadline)

    untraced, traced, samples, setup, problems = [], [], [], [], []
    failed_per_execution = 0
    reference = None  # artifact digests (or returned values) of the first child
    measured = 0.0
    crashed = False
    try:
        for i in itertools.count():
            with_trace = trace and i % 2 == 1
            out = work / f"run{i:02d}"
            res = execute(out.name, with_trace=with_trace)
            (traced if with_trace else untraced).append(res)
            if not with_trace:
                samples += res["samples"]
            setup.append(res["setup_s"])
            measured += sum(s["wall_s"] for s in res["samples"])
            outputs = res["rows"] if plan is not None else artifact_digests(out)
            if reference is None:
                failed, found = check_outputs(workload, seed, out, res["rows"])
                failed_per_execution = len(failed)
                problems += found
                reference = outputs
            if outputs != reference or not res["reproduced"]:
                problems.append(f"execution {i} does not reproduce the first one's outputs")
            if plan is None and i > 0:
                shutil.rmtree(out)
            if plan is not None:
                # SETUP_SAMPLES children, each running rounds for its share.
                if i + 1 >= SETUP_SAMPLES:
                    break
            # At least two executions, so that a run's median is never one
            # sample; then about round(S / W): stop when less than half of
            # one more execution would fit in S.
            elif i >= 1 and measured * (1.0 + 0.5 / (i + 1)) > seconds:
                break
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(execute(f"setup{len(setup):02d}", setup_only=True)["setup_s"])
    except ChildFailed as exc:
        problems.append(str(exc))
        crashed = True

    executions = sum(len(r["samples"]) for r in untraced + traced)
    report = {
        "correct": not problems,
        "attempted": ops * (executions + crashed),
        "failed": failed_per_execution * executions + ops * crashed,
        "problems": problems,
        "counts": f"{len(samples)} untraced + {len(traced)} traced executions, "
        f"{len(setup)} set-up samples",
        "metrics": {},
    }
    if not untraced or (trace and not traced):
        return report
    if trace:
        for name, unit in LAYER_METRICS:
            value = statistics.median(r["layers"].get(name, 0.0) for r in traced)
            report["metrics"][name] = {"value": value, "unit": unit}
        overhead = statistics.median(
            r["samples"][0]["wall_s"] for r in traced
        ) - statistics.median(s["wall_s"] for s in samples)
        report["metrics"]["trace.overhead_s"]["value"] = overhead
    else:
        values = {
            "wall_s": [s["wall_s"] for s in samples],
            "cpu_s": [s["cpu_s"] for s in samples],
            "setup_s": setup,
            "peak_rss_mib": [r["peak_rss_mib"] for r in untraced],
        }
        for name, unit in END_TO_END:
            report["metrics"][name] = {"value": statistics.median(values[name]), "unit": unit}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "ringtraffic" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated harness still stops its running child and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in report.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {report.pop('counts')}; medians:")
    for name, metric in report["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
