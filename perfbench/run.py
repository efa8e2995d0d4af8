"""Benchmark entry point.

    python3 perfbench/run.py --workload exact-identities --seed 1 --seconds 22 --trace 0

Run from the repository root.  Every process it starts runs one pass of one
workload with ``PYTHONPATH=src``, single-threaded, one after another: passes
go on until the next one would end after ``--seconds`` (at least MIN_PASSES).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` one
traced pass follows and the per-layer metrics are printed instead.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
RUN_BUDGET_S = 170
END_TO_END = ("batch_s", "job_ms_p50", "job_ms_p90", "cli_ms_p50", "peak_rss_mb", "setup_s")


def _units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _worker(args: list[str], env: dict, deadline: float) -> tuple[float, float, dict]:
    """Run one pass in a fresh worker: (process wall, setup seconds, its JSON line).

    Set-up is interpreter start-up and `import orbiform`, raw, plus the rest of
    set-up scaled as library work (see speed.py)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args,
                             "--deadline", repr(deadline)],
                            stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {code}")
    r = json.loads(lines[-1])
    setup_s = (r["imported"] - t0) + speed.scaled(r["ready"] - r["imported"], r["setup_kernel"])
    return wall, setup_s, r


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "orbiform" / "__init__.py").is_file():
        print("perfbench: src/orbiform not found; run from the repository root",
              file=sys.stderr)
        return 2
    units = _units()
    deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    walls, setups, passes = [], [], []
    try:
        while True:
            wall, setup_s, r = _worker(common + ["--trace", "0"], env, deadline)
            walls.append(wall)
            setups.append(setup_s)
            passes.append(r)
            if len(walls) >= MIN_PASSES and sum(walls) + walls[-1] > args.seconds:
                break
            if time.monotonic() + 2 * wall > deadline:
                if len(walls) < MIN_PASSES:
                    raise RuntimeError(f"{len(walls)} passes fit into the time budget")
                break
        if args.trace:
            _wall, _setup, traced = _worker(common + ["--trace", "1"], env, deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # each job's median scaled time over the passes; a pass is a process of its own
    job_s = [statistics.median(t) for t in zip(*(r["times"] for r in passes))]
    batch = sum(job_s)
    if args.trace:
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_frac"] = sum(traced["times"]) / batch - 1.0
        passes.append(traced)
    else:
        cli_ms = [ms for r in passes for ms in r["cli_ms"]]
        if not cli_ms:
            print("perfbench: no command-line run finished", file=sys.stderr)
            return 1
        job_ms = [1000 * t for t in job_s]
        metrics = {
            "batch_s": batch,
            "job_ms_p50": statistics.median(job_ms),
            "job_ms_p90": nearest_rank(job_ms, 0.9),
            "cli_ms_p50": statistics.median(cli_ms),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "setup_s": statistics.median(setups),
        }
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    print(f"perfbench {args.workload} seed {args.seed}: {len(job_s)} jobs x "
          f"{len(walls)} passes, process walls {[round(w, 2) for w in walls]}, "
          f"pass walls {[round(r['pass_wall'], 2) for r in passes]}, "
          f"{failed}/{attempted} failed", file=sys.stderr)
    for r in passes:
        for err in r["errors"]:
            print("  " + err, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
