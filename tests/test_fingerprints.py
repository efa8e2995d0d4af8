"""Exact outputs recomputed and compared, read-only, with the digests the
benchmark recorded in ``perfbench/fingerprints.json``.

A digest lifts every coefficient to the job's conductor, so a wrong root of
unity, lift or reduction anywhere in the engine changes it.  Each job runs
through the benchmark's own ``worker.run_job`` and is digested by
``record._digest_of``, so these keys are computed exactly as recorded.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import record  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

JOBS = {job.key: job for job in W.fingerprinted_jobs()}

# one cheap key of each kind, then every Q_k of conductor 12
KEYS = [
    "qk:3:1/2:1/3:4",
    "delta:20",
    "weight4:10",
    "twisted4:2B:20",
    "haupt:2B:20",
    "theta:3B:20",
    "frob_suite:0:10",
    "ode:inhom:0:2:-1",
] + sorted(
    key for key, job in JOBS.items()
    if job.kind == "qk" and W.qk_conductor(job.args[1], job.args[2]) == 12
)


@pytest.fixture(scope="module")
def recorded():
    return worker.load_fingerprints()


@pytest.mark.parametrize("key", KEYS)
def test_digest_matches_the_recorded_one(key, recorded):
    job = JOBS[key]
    out = worker.run_job(job, W.Context(recorded))
    assert not isinstance(out, worker.Raised), out.exc
    assert record._digest_of(job, out) == recorded[key]
