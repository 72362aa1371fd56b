"""fvlrp benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload {train,explain,morf,cli} \
        [--seed N] [--seconds 25] [--trace 0|1]

Run from anywhere inside a checkout that has `src/fvlrp`. Each workload
runs in fresh worker processes (`worker.py`), so set-up time and peak
memory belong to that workload alone. With `--trace 0` it reports the
end-to-end metrics; `setup_s` is the median over SETUP_REPEATS processes,
each timed from its start until the workload is ready. Both `setup_s` and
`wall_s` are scaled to a reference speed of the host's CPU, which other
tenants' load moves (`hostspeed.py`). With `--trace 1`
it reports self time and call counts per layer, from spans recorded
around the calls into each module, and the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The same names as workloads.WORKLOADS; this process does not import
# fvlrp or numpy, so that its own cost stays out of the measurements.
WORKLOADS = ("train", "explain", "morf", "cli")
SETUP_REPEATS = 3
# Every invocation must end within 180 s; leave room to report.
DEADLINE_S = 170.0


def run_worker(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # subprocess.run kills the worker and waits for it on timeout.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fvlrp benchmark: one workload, metrics as JSON")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the fixed workload")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead of end-to-end")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal corpus for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "fvlrp", "__init__.py")):
        print(f"no src/fvlrp under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [
            run_worker(args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)]
        result = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {args.size} rounds {result['rounds']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    if result.get("absent"):
        print("absent " + " ".join(result["absent"]))
    for name, m in {**metrics, **result["info"]}.items():
        print(f"{name} {m['value']} {m['unit']}")
    # Every round makes at least one check or counts its failure, so
    # attempted >= 1.
    print(f"error_rate {failed / attempted} ({failed} failed of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
