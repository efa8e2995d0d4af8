"""One pass of a workload's job list in one fresh, single-threaded process.

Run by run.py with ``PYTHONPATH=src`` from the repository root.  The process
sets up (imports orbiform, builds inputs and prebuilt series, runs checked
warm-up jobs), runs the job list once with the command-line runs
spread between its jobs, checks every output, and prints one JSON line.
run.py starts one process per pass, so no pass can be served from a result
cache that an earlier pass filled.  With ``--trace 1`` the pass is traced,
each command runs once in-process after it, and the per-layer metrics are
reported instead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import speed
import workloads as W
from fingerprint import digest, series_json_digest

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
CLI_ROUNDS = 2
SAMPLE_EVERY_S = 0.1  # how often the host's speed is sampled during a pass
CLI_TIMEOUT_S = 60
OUT_DIR = ".perfbench_out"  # spans and temporary files, under the checkout
CHARS_STDOUT = '{"chi": [1, 196883, 21296876]}\n'


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text())


class Failures:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")


def run_job(job, ctx):
    try:
        return W.RUN[job.kind](job, ctx)
    except Exception as exc:  # a job that raises is a failed job, not a crashed run
        return Raised(exc)


class Raised:
    def __init__(self, exc):
        self.exc = exc


def check_job(job, out, ctx):
    if isinstance(out, Raised):
        if job == W.KNOWN_OVERFLOW_CASE and isinstance(out.exc, OverflowError):
            ctx.pk_overflows.add(job.key)  # the known defect: counted, not failed
            return None
        return f"raised {type(out.exc).__name__}: {out.exc}"
    try:
        return W.CHECK[job.kind](job, out, ctx)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def run_pass(jobs, ctx, tracer=None, interludes=None):
    """Per-job scaled wall times (see speed.py) and outputs; checks run afterwards.

    interludes maps a job index to a callable run, untimed, before that job."""
    clock = time.perf_counter
    spans, outputs = [], []
    with speed.Sampler(SAMPLE_EVERY_S) as sampler:
        for i, job in enumerate(jobs):
            if interludes and i in interludes:
                with sampler.paused():
                    interludes[i]()
            if tracer is None:
                t0 = clock()
                out = run_job(job, ctx)
                t1 = clock()
            else:
                tracer.job = f"{i}:{job.key}"
                with tracer.span("job." + job.kind):
                    t0 = clock()
                    out = run_job(job, ctx)
                    t1 = clock()
            spans.append((t0, t1))
            outputs.append(out)
    return [sampler.scaled(t0, t1) for t0, t1 in spans], outputs


def check_pass(jobs, outputs, ctx, failures: Failures) -> None:
    for job, out in zip(jobs, outputs):
        failures.record(job.key, check_job(job, out, ctx))


# -- command-line leg -------------------------------------------------------------

def cli_commands(workload: str, rng, tmpdir: Path, ctx) -> list:
    """(argv, check) pairs; check(returncode, stdout) returns an error or None."""
    cmds = []
    if workload == "exact-identities":
        for k, dens in ((3, (2, 3)), (4, (3, 4)), (5, (4, 3))):
            a, b = W.conjugate_pair(rng, dens)
            trunc = str(Fraction(W.QK_TRUNC_TERMS, W.den(a)))
            key = W.Job("qk", (k, a, b, W.QK_TRUNC_TERMS)).key
            cmds.append((["qk", str(k), a, b, "--trunc", trunc],
                         _series_check(ctx, key, W.qk_conductor(a, b))))
    elif workload == "rational-series":
        spec = rng.choice(W.ODE_POOL["resonant"])
        ode, _ = W.build_ode(spec)
        path = tmpdir / "ode.json"
        path.write_text(json.dumps(ode.to_json()))
        cmds.append((["moonshine", "chars"], _exact_stdout(CHARS_STDOUT)))
        cmds.append((["moonshine", "J", "--trunc", "100"], _series_check(ctx, "delta:100", 1, 2)))
        cmds.append((["frobenius", "--ode", os.path.relpath(path),
                      "--trunc", str(W.ode_trunc(spec))],
                     _frobenius_check(ctx, W.Job("ode", spec).key)))
    else:
        a, b = W.slot_pair(rng, 0)
        k = 2
        z, tau = W.pk_point(rng)
        cmds.append((["pk-eval", str(k), a, b, f"--z={_cx(z)}", f"--tau={_cx(tau)}"],
                     _pk_check(ctx, (k, a, b, z, tau))))
        qa, qb = W.slot_pair(rng, 1)
        cmds.append((["verify", "Q_modularity", "--k", "3",
                      "--pair", f"{qa},{qb}", "--gamma", "S", "--terms", "200"], _reports_check))
        cmds.append((["verify", "--suite", "all"], _reports_check))
    return cmds


def _cx(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}i"


def _series_check(ctx, key, conductor, index=None):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        got = series_json_digest(json.loads(out), conductor)
        want = ctx.fingerprints.get(key)
        if index is not None and want is not None:
            want = want[index]
        return None if got == want else f"series differs from the recorded {key}"
    return check


def _frobenius_check(ctx, key):
    from orbiform.series import LogQSeries

    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        obj = json.loads(out)
        if obj.get("numeric"):
            return "numeric basis where an exact one is expected"
        sols = [LogQSeries.from_json(s) for s in obj["solutions"]]
        return ctx.compare(key, digest(sols))
    return check


def _exact_stdout(expected):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        return None if out == expected else f"stdout {out!r} differs from {expected!r}"
    return check


def _pk_check(ctx, args):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        re_, im_ = json.loads(out)["value"]
        want = ctx.cached(("cli-pk",) + args, lambda: W.pk_oracle(*args))
        err = abs(complex(re_, im_) - want)
        return None if err < W.PK_TOL else f"pk-eval off the oracle by {err:.3g}"
    return check


def _reports_check(code, out):
    if code != 0:
        return f"exit code {code}"
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    if not reports or not all(r["pass"] for r in reports):
        return "a law failed"
    return None


def cli_interludes(cmds, n_jobs: int, failures: Failures, deadline: float, ms: list) -> dict:
    """CLI_ROUNDS fresh processes per command, spread evenly over a pass of n_jobs
    jobs, so that their samples see the host at many times; the scaled wall
    time of each in ms (see speed.py) is appended to ms."""
    def run(argv, check):
        timeout = max(1.0, min(CLI_TIMEOUT_S, deadline - time.monotonic()))
        before = speed.sample()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "orbiform.cli", *argv],
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            failures.record(" ".join(argv), "timed out")
            return
        wall = time.perf_counter() - t0
        ms.append(1000 * speed.scaled(wall, (before + speed.sample()) / 2))
        failures.record(" ".join(argv), check(proc.returncode, proc.stdout))

    runs = list(cmds) * CLI_ROUNDS
    step = n_jobs / len(runs)
    return {int((r + 0.5) * step): functools.partial(run, *cmd) for r, cmd in enumerate(runs)}


def run_cli_in_process(cmds):
    """(returncode, stdout) per command, through orbiform.cli.run as patched."""
    from orbiform import cli

    results = []
    for argv, _check in cmds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv))
        results.append((code, out.getvalue()))
    return results


# -- main ---------------------------------------------------------------------------

def setup(workload: str, seed: int, samples: list):
    """Everything counted in setup_s after `import orbiform`, with a speed sample
    after each step; warm-up outputs are checked after it."""
    rng = W.rng_for(workload, seed)
    jobs = W.GENERATORS[workload](rng)
    specs = W.prebuilt_specs(rng) if workload == "numeric-laws" else {}
    ctx = W.Context(load_fingerprints())
    warmups = W.WARMUPS[workload]
    ctx.prepare(list(jobs) + list(warmups), specs)
    samples.append(speed.sample())
    warm = [(job, run_job(job, ctx)) for job in warmups]
    samples.append(speed.sample())
    return rng, jobs, specs, ctx, warm


def check_prebuilt(specs, ctx, failures: Failures) -> None:
    for name, spec in specs.items():
        key = W.prebuilt_key(spec)
        failures.record(key, ctx.compare(key, digest(ctx.series[name], W.prebuilt_conductor(spec))))


def layer_metrics(tracer, ctx, cli_runs: list) -> dict:
    """Every per-layer metric but trace.overhead_frac, which run.py adds."""
    st = tracer.self_times()
    c = tracer.counts()

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "cyclotomic.mul_calls": c["cyc.mul"],
        "cyclotomic.is_zero_calls": c["cyc.is_zero"],
        "cyclotomic.inverse_calls": c["cyc.inverse"],
        "cyclotomic.lift_calls": c["cyc.lift"],
        "cyclotomic.max_conductor": c["cyc.conductor_max"],
        "cyclotomic.mul_rational_frac": frac(c["cyc.mul_rational"], c["cyc.mul"]),
        "cyclotomic.mul_lift_frac": frac(c["cyc.mul_lift"], c["cyc.mul"]),
        "series.mul_calls": c["series.mul"],
        "series.mul_s": st["series.mul"],
        "series.mul_slot_pairs": c["series.slot_pairs"],
        "series.mul_useful_frac": frac(c["series.useful_pairs"], c["series.slot_pairs"]),
        "series.bimul_s": st["series.bimul"],
        "series.add_s": st["series.add"],
        "series.inverse_calls": c["series.inverse"],
        "series.inverse_s": st["series.inverse"],
        "series.inverse_slots_max": c["series.inverse_slots_max"],
        "series.eval_calls": c["series.eval"],
        "series.eval_s": st["series.eval"],
        "series.product_expand_s": st["series.product_expand"],
        "series.tail_bound_violations": len(ctx.tail_violations),
        "forms.qk_series_s": st["forms.qk_series"],
        "forms.oracle_s": st["forms.oracle"],
        "forms.pbar_series_s": st["forms.pbar_series"],
        "forms.klein_hecke_s": st["forms.klein_hecke"],
        "forms.prop48_s": st["forms.prop48"],
        "forms.prop46_s": st["forms.prop46"],
        "forms.eisenstein_s": st["forms.eisenstein"],
        "forms.pk_eval_s": st["forms.pk_eval"],
        "forms.pk_eval_overflows": len(ctx.pk_overflows),
        "frobenius.solve_s": st["frobenius.solve"],
        "frobenius.inhomogeneous_s": st["frobenius.inhomogeneous"],
        "frobenius.apply_ode_s": st["frobenius.apply_ode"],
        "frobenius.steps": c["frobenius.steps"],
        "frobenius.max_log_power": c["frobenius.log_power_max"],
        "moonshine.delta_j_J_s": st["moonshine.delta_j_J"],
        "moonshine.weight4_s": st["moonshine.weight4"],
        "moonshine.twisted4_s": st["moonshine.twisted4"],
        "moonshine.hauptmodul_s": st["moonshine.hauptmodul"],
        "verify.law_s": st["verify.law"],
        "verify.suite_s": st["verify.suite"],
        "verify.max_error_over_tol": c["verify.error_over_tol_max"],
        "cli.run_s": statistics.median(cli_runs) if cli_runs else 0.0,
    }
    return {k: float(v) for k, v in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, required=True,
                    help="time.monotonic() at which the run's budget ends")
    args = ap.parse_args(argv)
    # the host slows each CPU on its own; keep the speed samples, the jobs and
    # the command-line processes on one
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import orbiform  # noqa: F401

    imported = time.perf_counter()
    samples = [speed.sample()]
    rng, jobs, specs, ctx, warm = setup(args.workload, args.seed, samples)
    # perf_counter is the system-wide monotonic clock, so run.py can subtract:
    # start-up ends at `imported`, library work at `ready`
    ready = time.perf_counter()
    setup_kernel = statistics.fmean(samples)
    failures = Failures()
    for job, out in warm:
        failures.record("warm-up " + job.key, check_job(job, out, ctx))
    check_prebuilt(specs, ctx, failures)

    out_dir = Path(OUT_DIR)
    out_dir.mkdir(exist_ok=True)
    result = {"imported": imported, "ready": ready, "setup_kernel": setup_kernel,
              "jobs": len(jobs)}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        cmds = cli_commands(args.workload, rng, Path(tmp), ctx)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            t0 = time.perf_counter()
            with tracer:
                times, outputs = run_pass(jobs, ctx, tracer)
                tracer.job = "cli"
                cli_out = run_cli_in_process(cmds)
            result["pass_wall"] = time.perf_counter() - t0
            check_pass(jobs, outputs, ctx, failures)
            for (argv_, check), (code, out) in zip(cmds, cli_out):
                failures.record("cli.run " + " ".join(argv_), check(code, out))
            result["metrics"] = layer_metrics(tracer, ctx, tracer.inclusive_times("cli.run"))
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        else:
            cli_ms = []
            interludes = cli_interludes(cmds, len(jobs), failures, args.deadline, cli_ms)
            t0 = time.perf_counter()
            times, outputs = run_pass(jobs, ctx, interludes=interludes)
            result["pass_wall"] = time.perf_counter() - t0
            check_pass(jobs, outputs, ctx, failures)
            result["cli_ms"] = cli_ms
        result["times"] = times
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=failures.attempted, failed=failures.failed, errors=failures.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
