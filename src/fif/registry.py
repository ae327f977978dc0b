"""Named target functions for the command line and the demos."""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig
from .kernels import _polyval
from .operators import FunctionInput

_SIN_CYCLE = (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin)
_COS_CYCLE = (lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin, np.cos)


def _horner(coef):
    """Evaluator of the power series ``coef``, bit for bit a ``Polynomial``
    call.  That call first maps its default domain onto itself,
    ``0.0 + 1.0 * x``: two passes over the points whose only effect is
    ``-0.0 -> +0.0``, which can reach the value only through a ``-0.0``
    coefficient."""
    if np.any(np.signbit(coef[coef == 0])):
        return lambda x: _polyval(np.asarray(x, dtype=float) + 0.0, coef)
    return lambda x: _polyval(x, coef)


def _poly_input(coeffs, max_derivative):
    q = np.polynomial.Polynomial(coeffs)
    funcs = [_horner(q.coef)]
    for _ in range(max_derivative):
        # one order at a time: past the degree a derivative is 0 times the
        # last coefficient, which keeps that coefficient's sign
        q = q.deriv()
        funcs.append(_horner(q.coef))
    return FunctionInput.analytic(funcs[0], funcs[1:])


def _weier_like(x):
    # finite rough sum: geometric amplitudes against tripling frequencies
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(16):
        out += 0.55**j * np.cos(3**j * np.pi * x)
    return out


def make_function(name: str, max_derivative: int = 8) -> FunctionInput:
    """Build a FunctionInput from a registry spec string.

    Known forms: ``sin``, ``cos``, ``exp``, ``poly:c0,c1,...`` (ascending
    coefficients), ``abspow:c,mu`` for |x - c|^mu, ``weier`` for a rough
    demonstration sum.  Table files are handled by the CLI, not here.
    """
    base, _, arg = name.strip().partition(":")
    base = base.lower()
    if base == "sin":
        return FunctionInput.analytic(
            np.sin, tuple(_SIN_CYCLE[j % 4] for j in range(max_derivative))
        )
    if base == "cos":
        return FunctionInput.analytic(
            np.cos, tuple(_COS_CYCLE[j % 4] for j in range(max_derivative))
        )
    if base == "exp":
        return FunctionInput.analytic(np.exp, (np.exp,) * max_derivative)
    if base == "poly":
        try:
            coeffs = [float(c) for c in arg.split(",") if c.strip()]
        except ValueError as exc:
            raise InvalidConfig(f"bad poly coefficients: {arg!r}") from exc
        if not coeffs:
            raise InvalidConfig("poly needs coefficients, e.g. poly:0,1,-2")
        return _poly_input(coeffs, max_derivative)
    if base == "abspow":
        parts = arg.split(",")
        if len(parts) != 2:
            raise InvalidConfig("abspow needs two arguments: abspow:c,mu")
        try:
            c, mu = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise InvalidConfig(f"bad abspow arguments: {arg!r}") from exc
        if not 0 < mu <= 1:
            raise InvalidConfig("abspow exponent must lie in (0, 1]")
        return FunctionInput.analytic(lambda x: np.abs(np.asarray(x) - c) ** mu)
    if base == "weier":
        return FunctionInput.analytic(_weier_like)
    raise InvalidConfig(f"unknown function: {name!r}")

