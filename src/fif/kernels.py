"""Saturating sigmoid families and the window functions built from them.

A kernel here is a nondecreasing function ``sigma`` that is exactly 0 for
``x <= -m`` and exactly 1 for ``x >= m``, with the fixed half-width
``m = 1/2``, together with the window

    xi(x) = sigma(x + m) - sigma(x - m)

which is even, supported on ``[-2m, 2m]``, rises on the negative axis,
falls on the positive axis, and satisfies the two-translate identity
``xi(x) + xi(x - 2m) = 1`` on ``[0, 2m]``.  Windows of this shape are the
building blocks of the quasi-interpolation operators in
:mod:`fif.operators`.

Three families are shipped:

    ============  ==========  =======================================
    family        smoothness  profile on the transition band
    ============  ==========  =======================================
    ramp          C^0         linear
    smoothstep k  C^k         odd-degree polynomial, k flat derivatives
                              at both ends (k = 1 gives 3t^2 - 2t^3)
    bump          C^inf       exp(-1/t) glue, all derivatives flat
    ============  ==========  =======================================

Every family is one transition profile ``P`` on [0, 1], rising from 0 to 1,
with ``sigma(x) = P(x + 1/2)``; :func:`transition` evaluates ``P`` and
its derivatives with exact saturation.  The polynomial families differentiate
their coefficients.  The bump profile is the logistic of a rational function,
``P(t) = L(1/(1-t) - 1/t)`` with ``L(z) = 1 / (1 + exp(-z))``, and its
derivatives come in closed form from the Taylor jet of that composition,
using ``L' = L (1 - L)``.

Tabulated or merely continuous profiles are rejected: every family must
supply exact saturation and closed-form derivatives up to its smoothness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidConfig

# Sentinel smoothness order for the C^inf family.
UNBOUNDED_ORDER = 10**6

# Inside (0, 1) but closer to the ends than this, the bump profile is within
# 1e-289 of 0 or 1; the exact saturation value is returned instead.
_BUMP_TAIL = 1.5e-3

_FAMILIES = ("ramp", "smoothstep", "bump")


@dataclass(frozen=True)
class SigmoidalKernel:
    """A saturating sigmoid with exact flat tails beyond ``[-m, m]``.

    ``order`` is the polynomial smoothness index for the smoothstep family
    and must be 0 for the other families.  The half-width ``m`` is fixed at
    1/2: the operators blend two neighbouring nodes through ``P``, so no
    output depends on it.
    """

    family: str
    order: int = 0
    m = 0.5  # unannotated: a class constant, not a dataclass field

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidConfig(f"unknown kernel family: {self.family!r}")
        if self.family != "smoothstep" and self.order != 0:
            raise InvalidConfig("order applies to the smoothstep family only")
        if self.order < 0:
            raise InvalidConfig("order must be nonnegative")

    @property
    def smoothness(self) -> int:
        """Largest derivative order available in closed form."""
        if self.family == "bump":
            return UNBOUNDED_ORDER
        if self.family == "smoothstep":
            return self.order
        return 0


def ramp() -> SigmoidalKernel:
    """Piecewise-linear sigmoid; continuous but not differentiable."""
    return SigmoidalKernel("ramp")


def smoothstep(order: int) -> SigmoidalKernel:
    """Polynomial sigmoid with ``order`` vanishing derivatives at both ends."""
    return SigmoidalKernel("smoothstep", order)


def smooth_bump() -> SigmoidalKernel:
    """Infinitely differentiable sigmoid built from exp(-1/t) glue."""
    return SigmoidalKernel("bump")


def kernel_from_name(name: str) -> SigmoidalKernel:
    """Parse ``ramp``, ``smoothstep:<k>`` or ``bump`` into a kernel."""
    base, _, arg = name.partition(":")
    base = base.strip().lower()
    if base == "ramp":
        return ramp()
    if base == "smoothstep":
        try:
            order = int(arg)
        except ValueError as exc:
            raise InvalidConfig(
                f"smoothstep needs an integer order, e.g. smoothstep:1, got {name!r}"
            ) from exc
        return smoothstep(order)
    if base == "bump":
        return smooth_bump()
    raise InvalidConfig(f"unknown kernel family: {name!r}")


@lru_cache(maxsize=None)
def _transition_poly(order: int, d: int) -> np.ndarray:
    # power-basis coefficients of the d-th derivative of the unique degree
    # 2k+1 polynomial with p(0)=0, p(1)=1 and k flat derivatives at both ends:
    # the normalized integral of t^k (1-t)^k.  Coefficients are assembled
    # exactly in rational arithmetic.  Calling a Polynomial would first map
    # its default domain onto itself, two more passes over the points.
    k = order
    beta = Fraction(math.factorial(k) ** 2, math.factorial(2 * k + 1))
    coeffs = [Fraction(0)] * (2 * k + 2)
    for i in range(k + 1):
        c = Fraction(math.comb(k, i) * (-1) ** i, k + i + 1) / beta
        coeffs[k + i + 1] = c
    return np.polynomial.Polynomial([float(c) for c in coeffs]).deriv(d).coef


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite input")
    return arr


def _shaped(out, like):
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(out)
    return out


def _bump_profile(d: int, t):
    """d-th derivative of the bump profile at ``t`` in (0, 1/2].

    ``P = L(z)`` with the logistic ``L(z) = 1 / (1 + exp(-z))`` and
    ``z = 1/(1-t) - 1/t``.  The Taylor coefficients of ``z`` at ``t`` are
    ``z_k = (1-t)^-(k+1) + (-1/t)^(k+1)``; those of ``Y = L(z(t + e))``
    follow from ``Y' = Y (1 - Y) z'`` one order at a time.
    """
    a, b = 1.0 / (1.0 - t), -1.0 / t
    z = [a + b]
    for _ in range(d):
        a, b = a / (1.0 - t), b * (-1.0 / t)
        z.append(a + b)
    e = np.exp(z[0])  # z <= 0 on this half, so e never overflows
    y = [e / (1.0 + e)]
    w = [y[0] * (1.0 - y[0])]  # coefficients of L'(z) = Y (1 - Y)
    for k in range(1, d + 1):
        y.append(sum(w[i] * (k - i) * z[k - i] for i in range(k)) / k)
        w.append(y[k] - sum(y[i] * y[k - i] for i in range(k + 1)))
    return math.factorial(d) * y[d]


def transition(kernel: SigmoidalKernel, d: int, t):
    """d-th derivative of the kernel's transition profile ``P`` on [0, 1].

    ``P`` rises from 0 to 1 and ``sigma(x) = P(x + 1/2)``.  The value
    saturates exactly (0 at or below the band, 1 at or above it) and every
    derivative is exactly 0 outside the open band.  The band is (0, 1),
    narrowed for ``bump`` by ``_BUMP_TAIL`` at both ends; ``t`` wholly inside skips the mask.
    """
    t = np.asarray(t, dtype=float)
    lo = _BUMP_TAIL if kernel.family == "bump" else 0.0
    if t.size and t.min() > lo and t.max() < 1.0 - lo:
        return _band_profile(kernel, d, t)
    out = np.where(t >= 1.0 - lo, 1.0, 0.0) if d == 0 else np.zeros_like(t)
    inner = (t > lo) & (t < 1.0 - lo)
    if np.any(inner):
        out[inner] = _band_profile(kernel, d, t[inner])
    return out


def _band_profile(kernel: SigmoidalKernel, d: int, t):
    """d-th derivative of the transition profile at ``t`` inside the open band."""
    if kernel.family == "bump":
        # evaluate on the half where P <= 1/2, so that 1 - P does not cancel,
        # and reflect: P(1-t) = 1 - P(t)
        flip = t > 0.5
        vals = _bump_profile(d, np.where(flip, 1.0 - t, t))
        if d == 0:
            return np.where(flip, 1.0 - vals, vals)
        return np.where(flip, -vals, vals) if d % 2 == 0 else vals
    return np.polynomial.polynomial.polyval(t, _transition_poly(kernel.order, d))


def sigma_eval(kernel: SigmoidalKernel, x):
    """Evaluate the sigmoid ``P(x + 1/2)``.  Saturation is exact: 0 below -m,
    1 above m."""
    return _shaped(transition(kernel, 0, _as_array(x) + 0.5), x)


def xi_eval(kernel: SigmoidalKernel, x):
    """Window value sigma(x + m) - sigma(x - m); support is [-2m, 2m] = [-1, 1]."""
    return xi_derivative(kernel, 0, x)


def xi_derivative(kernel: SigmoidalKernel, order: int, x):
    """Closed-form derivative of the window, ``P^(order)(x + 1) - P^(order)(x)``.

    Parameters
    ----------
    kernel : SigmoidalKernel
    order : int
        Derivative order; 0 returns the window itself.  Orders beyond the
        family's smoothness are refused rather than approximated.
    x : scalar or array
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order > kernel.smoothness:
        raise ValueError("insufficient kernel smoothness")
    arr = _as_array(x)
    out = transition(kernel, order, arr + 1.0) - transition(kernel, order, arr)
    return _shaped(out, x)
