"""orbiform: exact q-series, twisted Eisenstein forms, modular actions,
Frobenius expansions, and Moonshine identities.

The exact layers need only the standard library: numpy and mpmath are
imported inside the numeric functions that use them, so importing orbiform
loads neither."""

from .cyclotomic import CycQ, cyc_root, cyc_root_of
from .forms import (
    bernoulli_number,
    bernoulli_poly,
    eisenstein,
    pk_eval,
    prop44_check,
    prop48_check,
    qk_series,
    zhu_coeff,
)
from .frobenius import (
    FrobeniusBasis,
    RegularSingularODE,
    apply_ode,
    frobenius_solve,
    solve_inhomogeneous,
)
from .modular import GammaMat, TorsionPair, pair_act, reduce_cyclic_pair, slash_eval
from .moonshine import (
    char_solve,
    delta_j_J,
    hauptmodul,
    theta_trace,
    twisted_weight4,
    weight4_onepoint,
)
from .report import CheckReport
from .series import BiSeries, LogQSeries, Puiseux, eval_at_tau, product_expand, theta
from .verify import verify_law, verify_suite

__all__ = [
    "BiSeries",
    "CheckReport",
    "CycQ",
    "FrobeniusBasis",
    "GammaMat",
    "LogQSeries",
    "Puiseux",
    "RegularSingularODE",
    "TorsionPair",
    "apply_ode",
    "bernoulli_number",
    "bernoulli_poly",
    "char_solve",
    "cyc_root",
    "cyc_root_of",
    "delta_j_J",
    "eisenstein",
    "eval_at_tau",
    "frobenius_solve",
    "hauptmodul",
    "pair_act",
    "pk_eval",
    "product_expand",
    "prop44_check",
    "prop48_check",
    "qk_series",
    "reduce_cyclic_pair",
    "slash_eval",
    "solve_inhomogeneous",
    "theta",
    "theta_trace",
    "twisted_weight4",
    "verify_law",
    "verify_suite",
    "weight4_onepoint",
    "zhu_coeff",
]

__version__ = "0.1.0"
