"""One execution of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py REQUEST.json RESULT.json``.  The request
gives the CLI kind and its overrides, the output directory, the stability
plan (or null) with the seconds of rounds to run, whether to trace and
whether to stop after set-up.  The child times the package import plus
config resolution (set-up), then the workload from the resolved config to its
last artifact (or each stability round), and writes its measurements (and,
for the stability scan, the values each call of its first round returned) to
RESULT.json.
"""
import json
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _stability_round(rt, params, plan) -> list:
    """Every call of the round through the public functions, in order."""
    from ringtraffic.errors import TrafficError

    rows = []
    for n in plan["tau_c_fleets"]:
        try:
            rows.append(["tau_c", n, None, rt.critical_reaction_time(n, params), None])
        except TrafficError as exc:
            rows.append(["tau_c", n, None, None, type(exc).__name__])
    for n, tau in plan["growth_points"]:
        try:
            verdict = rt.max_growth_rate(n, tau, params)
            rows.append(["growth", n, tau, verdict.max_real_part, None])
        except TrafficError as exc:
            rows.append(["growth", n, tau, None, type(exc).__name__])
    return rows


def main(request_path: str, result_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    trace = req["trace"]
    spans = {}

    start = time.perf_counter()
    if trace:
        import scipy.signal  # noqa: F401  (the package's heaviest dependency)

        spans["import.scipy_signal.s"] = time.perf_counter() - start
    import ringtraffic as rt
    import ringtraffic.cli as cli
    from ringtraffic.config import load_config

    imported = time.perf_counter()
    cfg = load_config(kind=req["kind"], overrides=req["overrides"])
    resolved = time.perf_counter()
    if req["setup_only"]:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": resolved - start}, fh)
        return
    if trace:
        spans["import.ringtraffic.s"] = imported - start - spans["import.scipy_signal.s"]
        spans["config.load_config.s"] = resolved - imported
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    samples, rows, reproduced = [], None, True
    while True:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if req["plan"] is None:
            cli.run_scenario(cfg, req["out"], workers=1)
        else:
            round_rows = _stability_round(rt, cfg.params, req["plan"])
        samples.append({"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - cpu0})
        if req["plan"] is None:
            break
        if rows is None:
            rows = round_rows
        reproduced = reproduced and json.dumps(round_rows) == json.dumps(rows)
        # Whole rounds: stop when less than half of one more would fit.
        spent = sum(s["wall_s"] for s in samples)
        if spent * (1.0 + 0.5 / len(samples)) > req["round_seconds"]:
            break

    result = {
        "setup_s": resolved - start,
        "samples": samples,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
        "reproduced": reproduced,
    }
    if trace:
        result["layers"] = {**tracer.metrics(), **spans}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
