"""One benchmark process: set up one workload, measure it, print JSON.

`run.py` starts this file in a fresh interpreter for every workload, so
`setup_s` (measured from the moment the parent started this process) and
`peak_rss_mb` (this process's `ru_maxrss`) belong to that workload alone.
`setup_s`, `wall_s` and `trace.overhead_s` are scaled to a reference
host speed (`hostspeed.py`). The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import fvlrp  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLI_STAGE_LAYERS = tuple(f"cli.{stage}" for stage in workloads.CLI_STAGES)


def environment() -> dict:
    """What the timings depend on besides the code."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_rounds(wl, budget: float, tally, tracer=None):
    """Closed loop, one caller: rounds back to back while the next round,
    taking as long as the last, still ends within `budget` seconds (at
    least one round). Returns [(start, wall_s, Round, summary)], with
    start in time.monotonic()."""
    out = []
    start = time.monotonic()
    while True:
        rec = workloads.Round()
        if tracer is not None:
            tracer.reset()
        t0 = time.monotonic()
        try:
            wl.run_round(tally, rec, tracer)
        except Exception:  # a failed round is counted, not fatal
            tally.error(f"round of {type(wl).__name__}")
        wall = time.monotonic() - t0
        summary = None
        if tracer is not None:
            if out:  # keep the spans of the latest round only
                out[-1][3][2] = None
            summary = [spans.summarize(tracer.spans), dict(tracer.counts),
                       tracer.spans]
        out.append((t0, wall, rec, summary))
        if time.monotonic() - start + wall > budget:
            return out


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (exclusive method) of the values."""
    return statistics.quantiles(values, n=100)[q - 1]


def workload_info(rounds) -> dict:
    """Workload-specific end-to-end figures, pooled over the rounds."""
    info = {"round_s_median": _metric(
        statistics.median(wall for _, wall, _, _ in rounds), "s")}
    pooled: dict[str, list[float]] = {}
    for _, _, rec, _ in rounds:
        for name, values in rec.samples.items():
            pooled.setdefault(name, []).extend(values)
    if "explain_ms" in pooled:
        values = pooled["explain_ms"]
        info["explain_ms_p50"] = _metric(statistics.median(values), "ms")
        if len(values) >= 10 * workloads.TAIL_SAMPLES:
            info["explain_ms_p90"] = _metric(_quantile(values, 90), "ms")
        info["explain_samples"] = _metric(len(values), "count")
    for name, unit in (("context_s", "s"), ("morf_ms_per_trace", "ms")):
        if name in pooled:
            info[name] = _metric(statistics.median(pooled[name]), unit)
    return info


def _median(values):
    """Median, as an int when it is a whole number (for counts)."""
    value = statistics.median(values)
    return int(value) if isinstance(value, float) and value.is_integer() else value


def median_scaled(rounds, scaled) -> float:
    """Median round time, each round scaled to the reference host speed."""
    return statistics.median(scaled(t0, t0 + wall) for t0, wall, _, _ in rounds)


def layer_metrics(untraced, traced, scaled) -> dict:
    """Per-layer metrics: medians over traced rounds of per-round values."""
    def per_round(fn):
        return _median(fn(summary) for _, _, _, summary in traced)

    metrics = {}
    for name, stats in spans.LAYERS:
        for stat in stats:
            if stat == "calls":
                value = per_round(lambda s: s[0].get(name, (0, 0.0))[0])
            elif stat in ("s", "ms"):
                scale = 1e3 if stat == "ms" else 1.0
                value = per_round(lambda s: s[0].get(name, (0, 0.0))[1] * scale)
            else:
                value = per_round(lambda s: s[1].get((name, stat), 0))
            metrics[f"{name}.{stat}"] = _metric(value, spans.UNITS[stat])
    for name in CLI_STAGE_LAYERS:
        metrics[f"{name}.s"] = _metric(
            per_round(lambda s: s[0].get(name, (0, 0.0))[1]), "s")
    metrics["cli.bytes_written"] = _metric(_median(
        rec.counts.get("cli.bytes_written", 0) for _, _, rec, _ in traced),
        "bytes")
    metrics["trace.overhead_s"] = _metric(
        median_scaled(traced, scaled) - median_scaled(untraced, scaled), "s")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            spawned_at: float | None = None, setup_only: bool = False,
            speed: hostspeed.SpeedProbe | None = None) -> dict:
    """Set up and measure one workload; the result of one benchmark process.

    With a started `speed` probe, `setup_s`, `wall_s` and
    `trace.overhead_s` are scaled to its reference speed; without, they
    are wall times as they ran.
    """
    if spawned_at is None:
        spawned_at = time.monotonic()
    scaled = speed.scaled if speed else (lambda start, end: end - start)
    wl = workloads.WORKLOADS[name](seed, size)
    result = {"setup_s": scaled(spawned_at, time.monotonic())}
    if setup_only:
        wl.close()
        return result
    tally = workloads.Tally()
    try:
        # Tracing off for the end-to-end figures; the traced run repeats
        # the same rounds with tracing on, and the difference is its overhead.
        untraced = run_rounds(wl, seconds / 2 if trace else seconds, tally)
        if trace:
            tracer = spans.Tracer()
            absent = tracer.install()
            try:
                traced = run_rounds(wl, seconds / 2, tally, tracer)
            finally:
                tracer.uninstall()
    finally:
        wl.close()
    result.update(attempted=tally.attempted, failed=tally.failed,
                  rounds=len(untraced), info=workload_info(untraced))
    if trace:
        result["metrics"] = layer_metrics(untraced, traced, scaled)
        result["absent"] = absent
        result["spans"] = traced[-1][3][2]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {"wall_s": _metric(median_scaled(untraced, scaled), "s"),
                             "peak_rss_mb": _metric(rss_kb / 1024.0, "MiB")}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent when it started "
                             "this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    src_pkg = os.path.join(SRC, "fvlrp")
    if os.path.dirname(os.path.abspath(fvlrp.__file__)) != src_pkg:
        print(f"fvlrp imported from {fvlrp.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    speed = hostspeed.SpeedProbe()
    speed.start()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, args.spawned_at, args.setup_only, speed)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        speed.stop()
    result.pop("spans", None)
    result["env"] = environment()
    result["env"]["speed_probe"] = {
        "interval_s": hostspeed.INTERVAL_S, "ref_s": hostspeed.REF_S,
        "samples": len(speed.samples), "median_s": speed.median_probe_s()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
