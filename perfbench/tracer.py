"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces every binding of each wrapped public function in
the ``orbiform`` modules and classes (names re-imported by another module and
aliases such as ``__rmul__`` included) and ``uninstall`` puts the originals
back.  Spans (name, start, end, parent, job) stay in memory until ``write``.
A span's self time is its duration minus the union of its children and minus
the tracer's own bookkeeping inside it.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import threading
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute path, span name); every binding of the same object is patched
SPANNED = (
    ("orbiform.forms", "qk_series", "forms.qk_series"),
    ("orbiform.forms", "qk_series_divisor_oracle", "forms.oracle"),
    ("orbiform.forms", "pbar_series", "forms.pbar_series"),
    ("orbiform.forms", "klein_hecke_series", "forms.klein_hecke"),
    ("orbiform.forms", "prop48_check", "forms.prop48"),
    ("orbiform.forms", "prop46_exact_checks", "forms.prop46"),
    ("orbiform.forms", "eisenstein", "forms.eisenstein"),
    ("orbiform.forms", "pk_eval", "forms.pk_eval"),
    ("orbiform.series", "Puiseux.__mul__", "series.mul"),
    ("orbiform.series", "Puiseux.__add__", "series.add"),
    ("orbiform.series", "Puiseux.inverse", "series.inverse"),
    ("orbiform.series", "BiSeries.__mul__", "series.bimul"),
    ("orbiform.series", "eval_at_tau", "series.eval"),
    ("orbiform.series", "product_expand", "series.product_expand"),
    ("orbiform.frobenius", "frobenius_solve", "frobenius.solve"),
    ("orbiform.frobenius", "solve_inhomogeneous", "frobenius.inhomogeneous"),
    ("orbiform.frobenius", "apply_ode", "frobenius.apply_ode"),
    ("orbiform.moonshine", "delta_j_J", "moonshine.delta_j_J"),
    ("orbiform.moonshine", "weight4_onepoint", "moonshine.weight4"),
    ("orbiform.moonshine", "twisted_weight4", "moonshine.twisted4"),
    ("orbiform.moonshine", "hauptmodul", "moonshine.hauptmodul"),
    ("orbiform.verify", "verify_law", "verify.law"),
    ("orbiform.verify", "verify_suite", "verify.suite"),
    ("orbiform.cli", "run", "cli.run"),
)

# CycQ methods are counted, not timed: a span per field operation would
# cost more than the operation.  The Frobenius recursion is counted by the
# steps each call of it runs.
COUNTED = (
    ("orbiform.cyclotomic", "CycQ.__mul__", "mul"),
    ("orbiform.cyclotomic", "CycQ.is_zero", "is_zero"),
    ("orbiform.cyclotomic", "CycQ.inverse", "inverse"),
    ("orbiform.cyclotomic", "CycQ.lift", "lift"),
    ("orbiform.frobenius", "_recurse", "recurse"),
)


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def orbiform_namespaces():
    """Every orbiform module and every class defined in one."""
    spaces = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "orbiform" or name.startswith("orbiform.")):
            continue
        spaces.append(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == name:
                spaces.append(value)
    return spaces


def _nonzero_slots(coeffs, step: int) -> list[int]:
    return [i * step for i, c in enumerate(coeffs) if any(c.coeffs)]


def _nterms(lead, trunc, t: int) -> int:
    return max(0, math.ceil((trunc - lead) * t))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent record, job, overhead]
        self.job = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[dict] = []
        self._main_stack: list = []
        self._patches: list[tuple] = []

    # -- per-thread state ------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            main = threading.current_thread() is threading.main_thread()
            st = self._main_stack if main else []
            self._local.stack = st
        return st

    def _counts(self) -> dict:
        c = getattr(self._local, "counts", None)
        if c is None:
            c = defaultdict(int)
            with self._lock:
                self._thread_counts.append(c)
            self._local.counts = c
        return c

    def counts(self) -> dict:
        """Counters merged over threads; keys ending in '_max' take the maximum."""
        out: dict = defaultdict(int)
        with self._lock:
            for c in self._thread_counts:
                for k, v in c.items():
                    out[k] = max(out[k], v) if k.endswith("_max") else out[k] + v
        return out

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stack()
            # a pool thread's first span hangs under the main thread's open span
            parent = st[-1] if st else (
                tracer._main_stack[-1]
                if st is not tracer._main_stack and tracer._main_stack else None
            )
            rec = [name, 0.0, 0.0, parent, tracer.job, 0.0]
            tracer.spans.append(rec)
            st.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                st.pop()
                rec[2] = perf_counter()
            if after is not None:
                after(tracer._counts(), args, kwargs, result)
                end = perf_counter()
                rec[5] = end - rec[2]
                rec[2] = end
            return result

        return wrapper

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _OpenSpan(self, name)

    def _count_wrapper(self, fn, what: str):
        tracer = self
        if what == "mul":
            def wrapper(a, b):
                n1 = a.conductor
                if isinstance(b, (int, Fraction)):
                    n2 = n1  # a rational scalar needs no lift
                elif hasattr(b, "conductor"):
                    n2 = b.conductor
                else:
                    return fn(a, b)  # NotImplemented: the other operand's turn
                c = tracer._counts()
                c["cyc.mul"] += 1
                if n1 == 1 and n2 == 1:
                    c["cyc.mul_rational"] += 1
                elif n1 != n2:
                    c["cyc.mul_lift"] += 1
                n = n1 if n1 > n2 else n2
                if n > c["cyc.conductor_max"]:
                    c["cyc.conductor_max"] = n
                return fn(a, b)
        elif what == "lift":
            def wrapper(a, n):
                if n != a.conductor:
                    c = tracer._counts()
                    c["cyc.lift"] += 1
                    if n > c["cyc.conductor_max"]:
                        c["cyc.conductor_max"] = n
                return fn(a, n)
        elif what == "recurse":
            def wrapper(indicial, rtable, mu, seed_power, steps, *args, **kwargs):
                tracer._counts()["frobenius.steps"] += steps
                return fn(indicial, rtable, mu, seed_power, steps, *args, **kwargs)
        else:
            key = "cyc." + what

            def wrapper(*args, **kwargs):
                tracer._counts()[key] += 1
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        import orbiform.cli  # noqa: F401  (with the package, every module a span targets)

        if self._patches:
            raise RuntimeError("tracer already installed")
        spaces = orbiform_namespaces()
        plans = []
        for module, path, name in SPANNED:
            fn = _resolve(module, path)
            plans.append((fn, self._span_wrapper(fn, name, _AFTER.get(name))))
        for module, path, what in COUNTED:
            fn = _resolve(module, path)
            plans.append((fn, self._count_wrapper(fn, what)))
        for fn, wrapper in plans:
            for space in spaces:
                for attr, value in list(vars(space).items()):
                    if value is fn:
                        self._patches.append((space, attr, fn))
                        setattr(space, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            space, attr, fn = self._patches.pop()
            setattr(space, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time summed per span name."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        totals: dict = defaultdict(float)
        for rec in self.spans:
            start, end = rec[1], rec[2]
            covered = 0.0
            cur_s = cur_e = None
            for s, e in sorted(children.get(id(rec), ())):
                s, e = max(s, start), min(e, end)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            totals[rec[0]] += (end - start) - covered - rec[5]
        return totals

    def inclusive_times(self, name: str) -> list[float]:
        return [rec[2] - rec[1] for rec in self.spans if rec[0] == name]

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [id, name, start, end, parent id, job]."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = min((rec[1] for rec in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for i, rec in enumerate(self.spans):
                parent = ids.get(id(rec[3])) if rec[3] is not None else None
                row = [i, rec[0], round(rec[1] - t0, 9), round(rec[2] - t0, 9), parent, rec[4]]
                fh.write(json.dumps(row) + "\n")


class _OpenSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, None, None, 0.0]

    def __enter__(self):
        st = self.tracer._stack()
        self.rec[3] = st[-1] if st else None
        self.rec[4] = self.tracer.job
        self.tracer.spans.append(self.rec)
        st.append(self.rec)
        self.rec[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._stack().pop()
        self.rec[2] = perf_counter()
        return False


# -- per-call counters recorded after a span closes ------------------------------

def _after_mul(c, args, kwargs, result):
    a, b = args[0], args[1]
    c["series.mul"] += 1
    if not hasattr(b, "coeffs") or not hasattr(b, "lead"):
        return
    t = result.T
    sa, sb = t // a.T, t // b.T
    n = _nterms(result.lead, result.trunc, t)
    la = _nterms(a.lead, a.trunc, t)
    lb = _nterms(b.lead, b.trunc, t)
    # slot pairs the dense convolution visits, and those with both factors nonzero
    c["series.slot_pairs"] += sum(min(lb, n - i) for i in range(min(la, n)))
    nb = _nonzero_slots(b.coeffs, sb)
    useful = 0
    for i in _nonzero_slots(a.coeffs, sa):
        if i >= n:
            break
        useful += bisect_left(nb, n - i)
    c["series.useful_pairs"] += useful


def _after_inverse(c, args, kwargs, result):
    c["series.inverse"] += 1
    slots = len(args[0].coeffs)
    if slots > c["series.inverse_slots_max"]:
        c["series.inverse_slots_max"] = slots


def _after_eval(c, args, kwargs, result):
    c["series.eval"] += 1


def _after_solve(c, args, kwargs, result):
    if result.max_log_power > c["frobenius.log_power_max"]:
        c["frobenius.log_power_max"] = result.max_log_power


def _after_law(c, args, kwargs, result):
    tol = kwargs.get("tol", args[3] if len(args) > 3 else 1e-8)
    ratio = result.error / tol
    if ratio > c["verify.error_over_tol_max"]:
        c["verify.error_over_tol_max"] = ratio


_AFTER = {
    "series.mul": _after_mul,
    "series.inverse": _after_inverse,
    "series.eval": _after_eval,
    "frobenius.solve": _after_solve,
    "frobenius.inhomogeneous": _after_solve,
    "verify.law": _after_law,
}
