"""Exact outputs recomputed and compared, read-only, with the digests the
benchmark recorded in ``perfbench/fingerprints.json``.

A digest lifts every coefficient to the job's conductor, so a wrong root of
unity, lift or reduction anywhere in the engine changes it.  Every recorded
digest is checked, as ``record.record()`` computes it: each fingerprinted job
runs through the benchmark's own ``worker.run_job``, in one shared
``Context``, and is digested by ``record._digest_of``; each prebuilt series is
built by ``workloads.build_series`` and digested at its conductor.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import record  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from fingerprint import digest  # noqa: E402

JOBS = {job.key: job for job in W.fingerprinted_jobs()}
PREBUILT = {W.prebuilt_key(spec): spec for spec in W.prebuilt_space()}


@pytest.fixture(scope="module")
def recorded():
    return worker.load_fingerprints()


@pytest.fixture(scope="module")
def ctx(recorded):
    return W.Context(recorded)


def test_every_recorded_digest_is_checked(recorded):
    assert sorted(recorded) == sorted([*JOBS, *PREBUILT])


@pytest.mark.parametrize("key", list(JOBS))
def test_digest_matches_the_recorded_one(key, recorded, ctx):
    job = JOBS[key]
    out = worker.run_job(job, ctx)
    assert not isinstance(out, worker.Raised), out.exc
    assert record._digest_of(job, out) == recorded[key]


@pytest.mark.parametrize("key", list(PREBUILT))
def test_prebuilt_series_digest_matches_the_recorded_one(key, recorded):
    spec = PREBUILT[key]
    assert digest(W.build_series(spec), W.prebuilt_conductor(spec)) == recorded[key]
