"""Special functions and tail quadrature backing the analytic outage formulas.

Everything in this module is a pure function of its arguments.  The gamma
family delegates to the cephes routines in :mod:`scipy.special`, whose
relative error (~1e-14) sits well below the 1e-12 budget the outage
integrals need.

This is the only module that uses scipy, and it imports :mod:`scipy.special`
and :mod:`scipy.integrate` on first use.  Loading the two takes a few
tenths of a second and about 47 MB, which Monte Carlo runs and the
precoders, needing numpy alone, would otherwise pay at every start.  Until
then the globals ``special`` and ``integrate`` hold a stand-in whose first
attribute access imports the real module and rebinds the global to it, so
later calls reach scipy with no per-call check.
"""

from __future__ import annotations

import importlib
import math
import warnings
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
]


# Tolerances of the tail quadrature, deliberately tighter than any Monte Carlo
# resolution used for validation, so quadrature error never dominates a
# comparison.
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_MAX_SUBDIVISIONS = 200

# Integrand-to-peak ratio below which the exponential tail is truncated.
_TAIL_EPS = 1e-16


class _ImportOnFirstUse:
    """Stand-in for the scipy module bound to global ``name`` until first use."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        module = importlib.import_module(f"scipy.{self._name}")
        globals()[self._name] = module
        return getattr(module, attr)


special = _ImportOnFirstUse("special")
integrate = _ImportOnFirstUse("integrate")


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


def _tail_cutoff(f: Callable[[float], float], lower: float) -> float | None:
    """Find an upper limit beyond which the integrand is negligible.

    Assumes the integrand carries an exponentially decaying envelope, which
    holds for every integral in the outage analysis.  Returns ``None`` when
    the integrand is zero everywhere it was probed.
    """
    probes = lower + np.concatenate(
        [np.linspace(0.0, 1.0, 9), 2.0 ** np.arange(1, 24)]
    )
    values = np.array([abs(f(x)) for x in probes])
    peak = values.max()
    if peak == 0.0:
        return None
    i_peak = int(values.argmax())
    for i in range(i_peak + 1, len(probes)):
        if values[i] <= _TAIL_EPS * peak:
            return float(probes[i] * 1.5)
    return float(probes[-1])


def _scale_ladder(lower: float, upper: float) -> list[float]:
    """Forced subdivision points covering every decade of the interval.

    Several outage integrands vary on a boundary layer of width ``~lower``
    at the left endpoint of an interval many orders of magnitude wider; a
    plain adaptive pass can step straight over such a layer without its
    error estimate noticing.  Seeding panel boundaries at geometrically
    spaced offsets from the endpoint makes the layer visible at every scale.
    """
    span = upper - lower
    anchor = max(lower, span * 1e-14, 1e-300)
    ladder = np.geomspace(anchor * 1e-2, span, num=32)
    pts = lower + ladder
    return [float(p) for p in pts if lower < p < upper]


def integrate_semi_infinite(f: Callable[[float], float], lower: float) -> float:
    """Integrate ``f`` over ``[lower, inf)`` for exponentially decaying integrands.

    The infinite interval is truncated where the envelope falls below
    ``1e-16`` of the integrand's peak, then handed to adaptive Gauss-Kronrod
    quadrature with forced panel boundaries on a geometric scale ladder.
    Raises :class:`QuadratureConvergenceError` (carrying the best available
    estimate) if the tolerance cannot be met within ``_MAX_SUBDIVISIONS``
    subdivisions.
    """
    upper = _tail_cutoff(f, lower)
    if upper is None:
        return 0.0
    ladder = _scale_ladder(lower, upper)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(
            f,
            lower,
            upper,
            epsabs=_ABS_TOL,
            epsrel=_REL_TOL,
            limit=_MAX_SUBDIVISIONS,
            points=ladder or None,
            full_output=1,
        )
    result, abserr = float(out[0]), float(out[1])
    if len(out) > 3 and abserr > max(_ABS_TOL, _REL_TOL * abs(result)):
        raise QuadratureConvergenceError(
            f"quadrature on [{lower}, {upper}] did not converge: {out[3]}",
            estimate=result,
        )
    return result
