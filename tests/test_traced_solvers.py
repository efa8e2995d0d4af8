"""The benchmark tracer's hooks on the Frobenius solvers.

``perfbench/tracer.py`` wraps ``frobenius._recurse`` by its first five
parameters and reads ``max_log_power`` off the result of ``frobenius_solve``
and ``solve_inhomogeneous``; a library change that breaks either hook fails
the traced benchmark, so each solver runs once under the tracer here.
"""

import sys
from pathlib import Path

from orbiform import frobenius
from orbiform.frobenius import RegularSingularODE
from orbiform.series import LogQSeries, Puiseux

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def _traced(name: str, *args) -> dict:
    # looked up while traced: the tracer patches the module's own bindings
    tracer = Tracer()
    with tracer:
        getattr(frobenius, name)(*args)
    return tracer.counts()


def test_tracer_counts_steps_and_log_power_of_both_solvers():
    # theta^2 S + q S = 0: a double root 0, so the basis is 1 + ... and
    # l + ...; f = 1 makes theta^2 s = -1 + ... and the solution -l^2/2 + ...
    ode = RegularSingularODE(2, 1, [Puiseux.from_terms([(1, 1)], 6), Puiseux.zero(6)])
    counts = _traced("frobenius_solve", ode, 5)
    assert counts["frobenius.steps"] == 10  # two recursions of 5 steps
    assert counts["frobenius.log_power_max"] == 1
    counts = _traced("solve_inhomogeneous", ode, LogQSeries(1, [Puiseux.constant(1, 6)]), 5)
    assert counts["frobenius.steps"] == 5
    assert counts["frobenius.log_power_max"] == 2
