"""Record the digest of every exact output the benchmark can produce.

    PYTHONPATH=src python3 perfbench/record.py [--validate]

Writes perfbench/fingerprints.json.  Every job is also run through its own
independent check first (divisor-sum oracle, zero ODE residuals, Moonshine
constants), so a digest is recorded only for an output that passed it.  Then
every residue-identity job a seed can draw is run, to show that none fails.
"""

from __future__ import annotations

import json
import sys
import time

import workloads as W
from fingerprint import digest
from worker import FINGERPRINTS, Raised, check_job, run_job


def _digest_of(job, out):
    if job.kind == "qk":
        return digest(out[0], W.qk_conductor(job.args[1], job.args[2]))
    if job.kind == "weight4":
        return digest(out[:2])
    if job.kind in ("frob_suite", "ode"):
        return digest(out[0])
    return digest(out)


def record() -> dict:
    table = {}
    ctx = W.Context(table)
    for job in W.fingerprinted_jobs():
        out = run_job(job, ctx)
        if isinstance(out, Raised):
            raise SystemExit(f"{job.key} raised {out.exc!r}")
        table[job.key] = _digest_of(job, out)
        error = check_job(job, out, ctx)
        if error is not None:
            raise SystemExit(f"{job.key}: {error}")
    for spec in W.prebuilt_space():
        table[W.prebuilt_key(spec)] = digest(W.build_series(spec), W.prebuilt_conductor(spec))
    return dict(sorted(table.items()))


def validate_prop48() -> None:
    ctx = W.Context({})
    for job in W.prop48_job_space():
        error = check_job(job, run_job(job, ctx), ctx)
        if error is not None:
            raise SystemExit(f"{job.key}: {error}")


def main() -> int:
    t0 = time.perf_counter()
    table = record()
    FINGERPRINTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} digests in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    validate_prop48()
    print(f"residue-identity jobs validated in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
