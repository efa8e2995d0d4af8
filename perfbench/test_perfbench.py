"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run
import speed
import workloads as W
import worker
from fingerprint import digest
from tracer import Tracer, orbiform_namespaces

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _checked(jobs, ctx) -> worker.Failures:
    failures = worker.Failures()
    _times, outputs = worker.run_pass(jobs, ctx)
    worker.check_pass(jobs, outputs, ctx, failures)
    return failures


def _ctx(specs=None) -> W.Context:
    ctx = W.Context(worker.load_fingerprints())
    ctx.prepare([], specs)
    return ctx


def _bindings() -> dict:
    import orbiform.cli  # noqa: F401

    return {(id(space), name): value
            for space in orbiform_namespaces() for name, value in vars(space).items()}


# -- tracer ---------------------------------------------------------------------------

def test_tracer_patches_reimported_names_and_restores_every_binding():
    import orbiform
    from orbiform import cyclotomic, forms, series, verify
    from orbiform.modular import TorsionPair

    before = _bindings()
    original_eval = series.eval_at_tau
    tracer = Tracer()
    with tracer:
        assert verify.eval_at_tau is series.eval_at_tau is not original_eval
        assert verify.qk_series is forms.qk_series is orbiform.qk_series
        assert forms.qk_series.__wrapped__ is before[(id(forms), "qk_series")]
        assert series.Puiseux.__rmul__ is series.Puiseux.__mul__
        assert series.Puiseux.__mul__.__wrapped__ is before[(id(series.Puiseux), "__mul__")]
        assert cyclotomic.CycQ.__rmul__ is cyclotomic.CycQ.__mul__
        q = forms.qk_series(2, TorsionPair(Fraction(1, 2), Fraction(1, 3)), 3)
        verify.eval_at_tau(q * q, 1j)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items()), "a binding stayed patched"
    names = {rec[0] for rec in tracer.spans}
    assert {"forms.qk_series", "series.mul", "series.eval"} <= names
    counts = tracer.counts()
    assert counts["cyc.mul"] > 0 and counts["series.mul"] == 1
    assert counts["series.slot_pairs"] >= counts["series.useful_pairs"] > 0


def test_tracer_counts_frobenius_recursion_steps():
    from orbiform import frobenius

    real = frobenius._recurse
    ode, _ = W.build_ode(("resonant", "0", 1, 1))
    tracer = Tracer()
    with tracer:
        frobenius.frobenius_solve(ode, 5)
    assert frobenius._recurse is real
    # one recursion of 5 steps per solution of the second-order ODE
    counts = tracer.counts()
    assert counts["frobenius.steps"] == 10 and counts["frobenius.log_power_max"] == 1


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
        sum(range(20000))
    outer, inner = tracer.spans
    st = tracer.self_times()
    assert abs(st["outer"] + st["inner"] - (outer[2] - outer[1])) < 1e-9
    assert 0 < st["inner"] <= inner[2] - inner[1]


def test_sampler_scales_by_the_samples_in_and_around_an_interval():
    sampler = speed.Sampler(1.0)
    # (start, end, kernel seconds): one sample before, two inside, one after
    sampler.samples = [(0.0, 0.001, 0.001), (1.0, 1.001, 0.0005),
                       (2.0, 2.001, 0.00025), (3.0, 3.001, 0.001)]
    mean_kernel = (0.001 + 0.0005 + 0.00025 + 0.001) / 4
    want = (2.0 - 0.002) * speed.REFERENCE_S / mean_kernel  # less the sampling inside
    assert abs(sampler.scaled(0.5, 2.5) - want) < 1e-12


# -- checks ---------------------------------------------------------------------------

def test_wrong_exact_output_raises_failures(monkeypatch):
    from orbiform import forms, moonshine

    ctx = _ctx()
    qk, tw = W.Job("qk", (3, "1/2", "1/3", 40)), W.Job("twisted4", ("2B", 20))
    assert _checked([qk, tw], ctx).failed == 0

    real_qk, real_tw = forms.qk_series, moonshine.twisted_weight4

    def qk_off(k, pair, trunc):
        s = real_qk(k, pair, trunc)
        s.coeffs[1] = s.coeffs[1] + 1
        return s

    def tw_off(label, trunc):
        return real_tw(label, trunc) + Fraction(1, 10**9)

    monkeypatch.setattr(forms, "qk_series", qk_off)
    monkeypatch.setattr(moonshine, "twisted_weight4", tw_off)
    assert _checked([qk, tw], ctx).failed == 2


def test_digest_ignores_representation(monkeypatch):
    from orbiform import forms
    from orbiform.frobenius import rebranch_log

    ctx = _ctx()
    job = W.Job("qk", (4, "1/4", "2/3", 40))
    real = forms.qk_series

    def refined(k, pair, trunc):
        s = real(k, pair, trunc).with_branching(2 * pair.M)
        s.coeffs = [c.lift(12) for c in s.coeffs]
        return s

    monkeypatch.setattr(forms, "qk_series", refined)
    assert _checked([job], ctx).failed == 0

    ode, _ = W.build_ode(("double", "1/2", 1))
    sols = W._solve(ode, None, 5)[0]
    assert digest([rebranch_log(s, 3 * s.T) for s in sols]) == digest(sols)


def test_wrong_numeric_value_raises_failures(monkeypatch):
    from orbiform import forms, series

    ctx = _ctx({"J60": ("J", 60)})
    ev = W.Job("eval", ("J60", 1j))
    pk = W.Job("pk", (2, "1/2", "1/3", 0.1 + 0.3j, 1.2j))
    assert _checked([ev, pk], ctx).failed == 0

    real_eval, real_pk = series.eval_at_tau, forms.pk_eval

    def eval_off(s, tau, precision=53):
        r = real_eval(s, tau, precision)
        return series.EvalResult(r.value * (1 + 1e-7), r.tail)

    def pk_off(*args, **kwargs):
        value, tail = real_pk(*args, **kwargs)
        return value + 1e-8, tail

    monkeypatch.setattr(series, "eval_at_tau", eval_off)
    monkeypatch.setattr(forms, "pk_eval", pk_off)
    assert _checked([ev, pk], ctx).failed == 2


def test_known_tail_case_is_counted_not_failed():
    ctx = _ctx({"J10": ("J", 10)})
    job = W.Job("eval", W.KNOWN_TAIL_CASE)
    assert _checked([job], ctx).failed == 0
    assert ctx.tail_violations == {job.key}


def test_known_overflow_case_is_counted_not_failed():
    # pk_eval still overflows here; when it no longer does, the job is checked
    # like any other law job, and the seeded P_invariance range can widen
    ctx = _ctx()
    job = W.KNOWN_OVERFLOW_CASE
    assert _checked([job], ctx).failed == 0
    assert ctx.pk_overflows == {job.key}
    assert job in W.numeric_jobs(W.rng_for("numeric-laws", 0))


# -- job lists and the benchmark contract -----------------------------------------

def test_job_lists_are_seeded_and_fingerprinted():
    table = worker.load_fingerprints()
    digest_kinds = {"qk", "delta", "weight4", "twisted4", "haupt", "theta", "frob_suite", "ode"}
    for workload in W.WORKLOADS:
        lists = []
        warmups = {j.key for j in W.WARMUPS[workload]}
        for seed in (0, 1, 2):
            rng = W.rng_for(workload, seed)
            jobs = W.GENERATORS[workload](rng)
            assert len(jobs) >= 100
            # no result cache can serve a timed job from an earlier call
            keys = {j.key for j in jobs}
            assert len(keys) == len(jobs) and not keys & warmups
            assert jobs == W.GENERATORS[workload](W.rng_for(workload, seed))
            lists.append([j.key for j in jobs])
            for job in list(jobs) + list(W.WARMUPS[workload]):
                if job.kind in digest_kinds:
                    assert job.key in table, job.key
            for spec in W.prebuilt_specs(rng).values():
                assert W.prebuilt_key(spec) in table
        assert lists[0] != lists[1] != lists[2]


def test_metric_names_match_benchmark_json():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    reported = worker.layer_metrics(Tracer(), W.Context({}), [])
    assert set(reported) | {"trace.overhead_frac"} == per_layer
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert set(bounds) == set(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-identities",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
