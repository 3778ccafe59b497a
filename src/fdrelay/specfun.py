"""Special functions and tail quadrature backing the analytic outage formulas.

Everything in this module is a pure function of its arguments.  The gamma
family delegates to the cephes routines in :mod:`scipy.special`, whose
relative error (~1e-14) sits well below the 1e-12 budget the outage
integrals need.

This is the only module that imports scipy, and it imports
:mod:`scipy.special` on first use; the batched CDFs in ``outage`` call its
array ufuncs through this module's ``special``.  Loading it takes a few
tenths of a second and about 26 MB, which Monte Carlo runs and the
precoders, needing numpy alone, would otherwise pay at every start.  Until
then the global ``special`` holds a stand-in whose first attribute access
imports the real module and rebinds the global to it, so later calls reach
scipy with no per-call check.

The tail quadrature is numpy alone: one exp-sinh rule (Takahasi and Mori,
Publ. RIMS 9, 1974) on a fixed node set, applied to every row of a batch
at once, with two error estimates that cost no extra integrand call.
"""

from __future__ import annotations

import importlib
import math
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConvergenceError",
    "ln_gamma",
    "reg_gamma_p",
    "reg_gamma_q",
    "digamma",
    "exp1",
    "meijer_special_cdf",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
]


# Tolerances of the tail quadrature, deliberately tighter than any Monte Carlo
# resolution used for validation, so quadrature error never dominates a
# comparison.
_ABS_TOL = 1e-10
_REL_TOL = 1e-8

# Exp-sinh nodes x - lower = exp(pi/2 sinh t) at t = k/64.  From k = -352
# (t = -5.5, 3.5e-84 above the endpoint) to k = 138, the first node past
# 745, where e^-x underflows to 0: further nodes would add nothing to an
# integrand with an e^-x envelope, and a scalar integrand such as
# u**4 * exp(-u) would overflow on them before multiplying by 0.  Both ends
# are even k, so every other node from the first is the rule at step 1/32.
_T = np.arange(-352, 139) / 64.0
_OFFSETS = np.exp(0.5 * np.pi * np.sinh(_T))
_WEIGHTS = np.pi / 128.0 * np.cosh(_T) * _OFFSETS


class _ImportOnFirstUse:
    """Stand-in for the scipy module bound to global ``name`` until first use."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        module = importlib.import_module(f"scipy.{self._name}")
        globals()[self._name] = module
        return getattr(module, attr)


special = _ImportOnFirstUse("special")


class QuadratureConvergenceError(RuntimeError):
    """Quadrature failed to meet tolerance; ``estimate`` holds the best value."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def ln_gamma(x: float) -> float:
    """Natural logarithm of the Gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    return float(special.gammaln(x))


def _check_gamma_args(a: float, x: float) -> None:
    if not a > 0.0:
        raise ValueError(f"shape parameter must be positive, got {a!r}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x!r}")


def reg_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = Gamma(a, x)/Gamma(a)."""
    _check_gamma_args(a, x)
    return float(special.gammaincc(a, x))


def reg_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x) = 1 - Q(a, x)."""
    _check_gamma_args(a, x)
    return float(special.gammainc(a, x))


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    return float(special.psi(x))


def exp1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^-t / t dt for x > 0."""
    if not x > 0.0:
        raise ValueError(f"exp1 requires x > 0, got {x!r}")
    return float(special.exp1(x))


def meijer_special_cdf(t: float, m_r: int) -> float:
    """CDF of the loop-channel power seen through a matched unit combiner.

    The random variable is ``X = Z * U`` with ``Z ~ Beta(1, m_r - 1)`` (the
    squared cosine between two independent isotropic ``m_r``-dimensional
    directions) and ``U ~ Gamma(m_r, 1)`` (the squared norm of the
    unit-variance loop vector); for ``m_r == 1`` the Beta factor is the
    constant 1.  By the beta-gamma algebra, Beta(1, m_r - 1) x Gamma(m_r, 1)
    is Gamma(1, 1) for every ``m_r``, so ``X ~ Exp(1)`` and

        F(t) = 1 - exp(-t).
    """
    if t < 0.0:
        raise ValueError(f"negative argument {t!r}")
    if m_r < 1:
        raise ValueError(f"m_r must be a positive integer, got {m_r!r}")
    return -math.expm1(-t)


def integrate_semi_infinite_batch(
    f: Callable[[np.ndarray], np.ndarray], lower: np.ndarray | list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over ``[lower_i, inf)`` for every row i at once.

    ``f`` maps an ``(n, nodes)`` array of abscissae, row i starting just
    above ``lower[i]``, to the integrand at each of them; it must carry an
    ``e^-x`` envelope, as every outage integrand does.  The exp-sinh rule
    puts the nodes at x = lower + exp(pi/2 sinh t), t = k/64, which cluster
    double-exponentially at the endpoint, where a boundary layer of width
    ~lower sits in several outage integrands, and spread as fast into the
    tail.

    Returns each row's value and its error estimate, the difference from
    the same sum over the even nodes (step 1/32).  A second estimate covers
    the truncated tail: the last node's weighted value, which is exactly 0
    for an ``e^-x`` envelope.  Where either exceeds
    max(``_ABS_TOL``, ``_REL_TOL`` * |value|), or is not finite, raises
    :class:`QuadratureConvergenceError` with that row's value as its
    estimate.
    """
    lower = np.asarray(lower, dtype=float)
    terms = f(lower[:, None] + _OFFSETS) * _WEIGHTS
    values = terms.sum(axis=1)
    errors = np.abs(values - 2.0 * terms[:, ::2].sum(axis=1))
    tails = np.abs(terms[:, -1])
    tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(values))
    missed = ~((errors <= tol) & (tails <= tol))
    if missed.any():
        i = int(np.argmax(missed))
        misses = ", ".join(
            f"{name} {value:.3g}"
            for name, value in (("step-halving difference", errors[i]),
                                ("truncated tail", tails[i]))
            if not value <= tol[i]
        )
        raise QuadratureConvergenceError(
            f"quadrature on [{lower[i]}, inf) missed its tolerance {tol[i]:.3g}: {misses}",
            estimate=float(values[i]),
        )
    return values, errors


def integrate_semi_infinite(f: Callable[[float], float], lower: float) -> float:
    """Integrate a scalar ``f`` over ``[lower, inf)``: the n = 1 wrapper of
    :func:`integrate_semi_infinite_batch`, calling ``f`` once per node.
    """
    values, _ = integrate_semi_infinite_batch(np.vectorize(f, otypes=[float]), [lower])
    return float(values[0])
