"""Neural-network style quasi-interpolation on uniform nodes.

The zeroth-order operator attaches one translated window to each node
``a_k = a + k h`` and sums ``f(a_k) * xi((2m/h)(x - a_k))``.  Because the
window is supported on ``[-2m, 2m]`` and the argument is rescaled by
``2m / h``, only the two nodes bracketing ``x`` can contribute; the
implementation skips all other terms by index range rather than by testing
values.  The two-translate identity of the window makes the operator
reproduce constants and interpolate ``f`` at every node.

The four-layer variant adds ``r`` derivative channels: node weights
``h^j / ((2m)^j j!) * f_j(a_k)`` against profile ``u^j xi(u)`` for the
``j``-th channel, which reproduces derivative values at the nodes when the
window is flat enough there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidConfig
from .kernels import SigmoidalKernel, xi_derivative, xi_eval

# Relative step used when a derivative has to be approximated from values.
FD_STEP_SCALE = 1e-3


@dataclass(frozen=True)
class OperatorConfig:
    """Node layout and channel count for one operator instance."""

    kernel: SigmoidalKernel
    a: float
    b: float
    n: int
    r: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise InvalidConfig("interval must satisfy a < b and be finite")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InvalidConfig("node count n must be a positive integer")
        if not (isinstance(self.r, int) and self.r >= 0):
            raise InvalidConfig("layer order r must be a nonnegative integer")
        if self.r > self.kernel.smoothness:
            raise InvalidConfig("insufficient kernel smoothness")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n + 1)


class FunctionInput:
    """Target function data: a callable or a table of node values.

    Analytic mode may carry derivative callables ``(f', f'', ...)``.  If it
    carries none and derivatives are needed, central finite differences with
    step ``h * 1e-3`` fill in and a fallback flag is raised; if it carries
    some but not enough, the input is rejected outright.
    """

    __slots__ = ("mode", "func", "derivatives", "values")

    def __init__(self, mode, func=None, derivatives=(), values=None):
        self.mode = mode
        self.func = func
        self.derivatives = tuple(derivatives)
        self.values = values

    @classmethod
    def analytic(cls, func, derivatives=()):
        if not callable(func):
            raise InvalidConfig("analytic input needs a callable")
        for d in derivatives:
            if not callable(d):
                raise InvalidConfig("derivatives must be callables")
        return cls("analytic", func=func, derivatives=derivatives)

    @classmethod
    def tabulated(cls, values):
        # a private read-only copy: the weight table cache keys on this input,
        # so the caller's later edits must not reach it
        arr = np.array(values, dtype=float)
        arr.flags.writeable = False
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidConfig("table must be a 1-d array of at least 2 values")
        if not np.all(np.isfinite(arr)):
            raise InvalidConfig("table contains non-finite values")
        return cls("tabulated", values=arr)

    def __call__(self, x):
        if self.mode != "analytic":
            raise InvalidConfig("tabulated input is not callable off its nodes")
        return _call_vectorized(self.func, x)


def _call_vectorized(func, x):
    arr = np.asarray(x, dtype=float)
    out = np.asarray(func(arr), dtype=float)
    if out.shape != arr.shape:
        out = np.broadcast_to(out, arr.shape).copy()
    return out


def input_derivative(f: FunctionInput, order: int, x, fd_step: float):
    """Evaluate the ``order``-th derivative of the input at ``x``.

    Returns ``(values, fd_used)``.  Uses the supplied callables when
    present, otherwise a central difference stencil of width ``order``.
    """
    if f.mode != "analytic":
        raise InvalidConfig("derivatives unavailable")
    arr = np.asarray(x, dtype=float)
    if order == 0:
        return _call_vectorized(f.func, arr), False
    if f.derivatives:
        if len(f.derivatives) < order:
            raise InvalidConfig("derivatives unavailable")
        return _call_vectorized(f.derivatives[order - 1], arr), False
    s = fd_step
    out = np.zeros_like(arr)
    for i in range(order + 1):
        shift = (order / 2.0 - i) * s
        out += ((-1) ** i * math.comb(order, i)) * _call_vectorized(
            f.func, arr + shift
        )
    return out / s**order, True


@lru_cache(maxsize=128)
def _weight_table(cfg: OperatorConfig, f: FunctionInput, upto: int):
    """Per-channel node weights, shape (upto+1, n+1), plus a fallback flag."""
    nodes = cfg.nodes
    if f.mode == "tabulated":
        if upto >= 1:
            raise InvalidConfig("derivatives unavailable")
        if f.values.size != cfg.n + 1:
            raise InvalidConfig(
                f"table has {f.values.size} values, operator needs {cfg.n + 1}"
            )
        return f.values[np.newaxis, :].copy(), False
    rows = np.empty((upto + 1, cfg.n + 1))
    rows[0] = _call_vectorized(f.func, nodes)
    fd_used = False
    two_m = 2.0 * cfg.kernel.m
    for j in range(1, upto + 1):
        dv, fd = input_derivative(f, j, nodes, cfg.h * FD_STEP_SCALE)
        fd_used = fd_used or fd
        rows[j] = dv * cfg.h**j / (two_m**j * math.factorial(j))
    if fd_used:
        warnings.warn(
            "derivative callables missing; central differences substituted",
            stacklevel=3,
        )
    return rows, fd_used


def _bracket(cfg: OperatorConfig, x):
    """Scaled position u in node units plus the index of the left node."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite input")
    span = cfg.b - cfg.a
    slack = 4e-12 * span
    if np.any(arr < cfg.a - slack) or np.any(arr > cfg.b + slack):
        raise ValueError("outside domain")
    u = (np.clip(arr, cfg.a, cfg.b) - cfg.a) / cfg.h
    near = np.round(u)
    u = np.where(np.abs(u - near) <= 1e-12 * max(1.0, cfg.n), near, u)
    u = np.clip(u, 0.0, float(cfg.n))
    klo = np.minimum(np.floor(u).astype(np.int64), cfg.n - 1)
    return u, klo


def _accumulate(cfg, table, u, klo, deriv_order):
    """Compensated two-node sum over channels, nodes ascending outside."""
    two_m = 2.0 * cfg.kernel.m
    total = np.zeros_like(u)
    carry = np.zeros_like(u)
    channels = table.shape[0]
    for off in (0, 1):
        node = klo + off
        uu = two_m * (u - node)
        for j in range(channels):
            if deriv_order == 0:
                profile = uu**j * xi_eval(cfg.kernel, uu) if j else xi_eval(
                    cfg.kernel, uu
                )
            else:
                profile = _profile_derivative(cfg.kernel, j, deriv_order, uu)
            term = table[j, node] * profile
            y = term - carry
            t = total + y
            carry = (t - total) - y
            total = t
    if deriv_order:
        total = total * (two_m / cfg.h) ** deriv_order
    return total


def _profile_derivative(kernel: SigmoidalKernel, j: int, order: int, u):
    # Leibniz rule for d^order/du^order of u^j * xi(u).
    out = np.zeros_like(u)
    for i in range(min(j, order) + 1):
        c = math.comb(order, i) * math.perm(j, i)
        out += c * u ** (j - i) * xi_derivative(kernel, order - i, u)
    return out


def _shaped(out, like):
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(out)
    return out


def nn_eval(cfg: OperatorConfig, f: FunctionInput, x):
    """Zeroth-order operator value at ``x`` (scalar or array)."""
    table, _ = _weight_table(cfg, f, 0)
    u, klo = _bracket(cfg, x)
    return _shaped(_accumulate(cfg, table, u, klo, 0), x)


def nn_eval_four_layer(cfg: OperatorConfig, f: FunctionInput, x):
    """Operator with ``cfg.r`` derivative channels; equals nn_eval at r=0."""
    table, _ = _weight_table(cfg, f, cfg.r)
    u, klo = _bracket(cfg, x)
    return _shaped(_accumulate(cfg, table, u, klo, 0), x)


def nn_eval_derivative(cfg: OperatorConfig, f: FunctionInput, order: int, x):
    """Closed-form ``order``-th derivative of the four-layer operator."""
    if not (isinstance(order, int) and order >= 1):
        raise InvalidConfig("derivative order must be a positive integer")
    if order > cfg.r:
        raise InvalidConfig("derivative order exceeds the layer order r")
    table, _ = _weight_table(cfg, f, cfg.r)
    u, klo = _bracket(cfg, x)
    return _shaped(_accumulate(cfg, table, u, klo, order), x)


def operator_fd_fallback(cfg: OperatorConfig, f: FunctionInput) -> bool:
    """Whether building the weight table required finite differences."""
    if f.mode == "tabulated" or cfg.r == 0:
        return False
    _, fd = _weight_table(cfg, f, cfg.r)
    return fd
