"""Neural-network style quasi-interpolation on uniform nodes.

The zeroth-order operator attaches one translated window to each node
``a_k = a + k h`` and sums ``f(a_k) * xi((2m/h)(x - a_k))``.  Because the
window is supported on ``[-2m, 2m]`` and the argument is rescaled by
``2m / h``, only the two nodes bracketing ``x`` contribute, and by the
window's two-translate identity their weights are ``1 - P(s)`` and ``P(s)``,
where ``P`` is the kernel's transition profile (:func:`fif.kernels.transition`)
and ``s = (x - a_k) / h`` in [0, 1].  The operator is therefore the blend
``f(a_k) (1 - P(s)) + f(a_{k+1}) P(s)``: it reproduces constants,
interpolates ``f`` at every node, and the half-width ``m`` cancels out.

The four-layer variant adds ``r`` derivative channels: node weights
``h^j / ((2m)^j j!) * f_j(a_k)`` against profile ``u^j xi(u)`` for the
``j``-th channel.  Summed over the channels, each node contributes its
order-``r`` Taylor polynomial ``T_k(x) = sum_j f_j(a_k) (x - a_k)^j / j!``,
so the operator is the blend ``T_k(x) (1 - P(s)) + T_{k+1}(x) P(s)``; its
derivatives follow by the Leibniz rule with ``d^i P(s) / dx^i = P^(i)(s) / h^i``.
It reproduces derivative values at the nodes when the profile is flat
enough there.

Every entry point blends at offsets ``s`` in node cells ``klo``, and writes
its output in tiles of ``_TILE`` points, so the temporaries of a blend stay
a few MiB however many points are asked for.  On the render grid
``linspace(a, b, n M + 1)`` every node cell holds the same offsets
``s = j / M``, so ``P^(i)(s)`` and the Taylor steps are computed once per
tile of offsets and broadcast against the node cells of the table.  The
caller says when its input is that grid (``grid=True``), and may ask for
every ``stride``-th point alone, as the fractal update does for the
pre-images it reads; nothing is inferred from the values.  Any other input
is bracketed point by point, one tile at a time, into scratch allocated
once per call and the output tile.  Each point goes through the same
arithmetic whatever the tiling or the stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import MAX_SIZE_EXP
from .errors import InvalidConfig
from .kernels import SigmoidalKernel, _shaped, transition
# not called here: the benchmark's tracer (bench/spans.py) wraps these two by
# name as attributes of this module
from .kernels import xi_derivative, xi_eval  # noqa: F401

# Points an evaluation blends at a time, so that its temporaries and its
# per-call scratch take a few MiB whatever the input size.
_TILE = 2**15


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
        if self.n > 2**MAX_SIZE_EXP:
            raise InvalidConfig(f"operator above 2^{MAX_SIZE_EXP} nodes")
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

    Analytic mode may carry derivative callables ``(f', f'', ...)``, the only
    source of derivative values: an input carrying fewer than an operator's
    derivative channels need is rejected.  The callables must be elementwise:
    a 1-D input of more than ``_TILE`` points reaches them one ``_TILE``-point
    slice at a time.
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
        # a private read-only copy: the input owns its values, so a result
        # never changes because the caller edited the array it passed
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
        return _call_tiled(self.func, x)


def _call_vectorized(func, x):
    # every value of a user function enters here; a NaN would pass every
    # later convergence and knot check as if it were converged.  That check
    # is the contract, so an overflow that ends finite, as in 1 / (1 + exp(x)),
    # warns nothing.  The caller owns the result: never ``x``, and writeable.
    arr = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = np.asarray(func(arr), dtype=float)
    if not np.all(np.isfinite(out)):
        raise InvalidConfig("function returned non-finite values")
    if out.shape != arr.shape:
        out = np.broadcast_to(out, arr.shape).copy()
    elif np.may_share_memory(out, arr) or not out.flags.writeable:
        out = out.copy()
    return out


def input_derivative(f: FunctionInput, order: int, x):
    """Evaluate the ``order``-th derivative of the input at ``x``: ``f`` itself
    at order 0, else its ``order``-th derivative callable."""
    if f.mode != "analytic" or len(f.derivatives) < order:
        raise InvalidConfig("derivatives unavailable")
    return _call_tiled(f.derivatives[order - 1] if order else f.func, x)


def _weight_table(cfg: OperatorConfig, f: FunctionInput, upto: int):
    """Node derivatives ``f^(j)(a_k)``, shape (upto+1, n+1), read off ``f`` at
    every call."""
    if f.mode == "tabulated" and not upto:
        if f.values.size != cfg.n + 1:
            raise InvalidConfig(
                f"table has {f.values.size} values, operator needs {cfg.n + 1}"
            )
        return f.values[np.newaxis, :]
    return np.stack([input_derivative(f, j, cfg.nodes) for j in range(upto + 1)])


def _call_tiled(func, x):
    """``_call_vectorized(func, x)``, called on ``_TILE``-point slices of a longer
    1-D ``x`` into one result: ``func``'s temporaries stay in cache."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size <= _TILE:
        return _call_vectorized(func, arr)
    out = np.empty(arr.shape)
    for lo in range(0, arr.size, _TILE):
        out[lo : lo + _TILE] = _call_vectorized(func, arr[lo : lo + _TILE])
    return out


def _check_points(cfg: OperatorConfig, arr):
    """Raise ``ValueError`` unless every point is finite and inside ``[a, b]``
    up to ``4e-12 (b - a)``: two reductions over ``arr``, no temporaries."""
    if arr.size:
        lo, hi = float(arr.min()), float(arr.max())  # NaN propagates into both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("non-finite input")
        slack = 4e-12 * (cfg.b - cfg.a)
        if lo < cfg.a - slack or hi > cfg.b + slack:
            raise ValueError("outside domain")


def _bracket(cfg: OperatorConfig, arr, s, klo, near, mask):
    """Write into ``s`` the offset in [0, 1] of each point in its node cell and
    into ``klo`` the cell; ``near``, ``mask`` and, until then, ``klo`` are scratch."""
    u = np.clip(arr, cfg.a, cfg.b, out=s)
    np.divide(np.subtract(u, cfg.a, out=u), cfg.h, out=u)
    np.round(u, out=near)
    gap = klo.view(float)  # klo's memory, unused until the cells are written
    np.abs(np.subtract(u, near, out=gap), out=gap)
    np.copyto(u, near, where=np.less_equal(gap, 1e-12 * max(1.0, cfg.n), out=mask))
    np.clip(u, 0.0, float(cfg.n), out=u)
    klo[...] = np.floor(u, out=near)
    np.minimum(klo, cfg.n - 1, out=klo)
    np.subtract(u, klo, out=s)


def _taylor(rows, dx, q):
    """q-th derivative at ``a_k + dx`` of ``sum_j rows[j] dx^j / j!`` (Horner)."""
    top = rows.shape[0] - 1
    out = rows[top]
    for j in range(top - 1, q - 1, -1):
        out = rows[j] + out * dx / (j + 1 - q)
    return out


def _steps(cfg, s, order, upto):
    """What a blend at offsets ``s`` needs of ``s`` alone: ``P^(i)(s) / h^i``
    for ``i <= order`` and, for derivative rows up to ``upto >= 1``, the
    Taylor steps ``h s`` and ``h (s - 1)`` to both nodes."""
    profile = [transition(cfg.kernel, 0, s)]
    profile += [transition(cfg.kernel, i, s) / cfg.h**i for i in range(1, order + 1)]
    return profile, (cfg.h * s, cfg.h * (s - 1.0)) if upto else (None, None)


def _blend(table, klo, steps, order, out, spare=None):
    """Write into ``out`` the ``order``-th derivative of ``T_k (1 - P(s)) +
    T_{k+1} P(s)`` at offset ``s`` in node cell ``k = klo`` (Leibniz rule),
    with ``steps = _steps(cfg, s, order, len(table) - 1)``; ``klo`` and ``s``
    broadcast to the shape of ``out``.  Node values alone blend directly, plus
    the ``0.0`` the sum starts from, so that a ``-0.0`` blend reads ``+0.0``.
    Scratch ``spare``, shaped as ``out``, takes the node values (``take`` clips:
    its default mode copies) and ``out`` ``1 - P``, else profile-shaped."""
    profile, (dx_left, dx_right) = steps
    if dx_left is None:
        weight = np.subtract(1.0, profile[0], out=None if spare is None else out)
        np.multiply(table[0].take(klo, out=spare, mode="clip"), weight, out=out)
        out += np.multiply(table[0, 1:].take(klo, out=spare, mode="clip"), profile[0], out=spare)
        out += 0.0
        return
    left, right = table[:, klo], table[:, klo + 1]
    out[...] = 0.0
    for i, p in enumerate(profile):
        q = 1.0 - p if i == 0 else -p
        out += math.comb(order, i) * (
            _taylor(left, dx_left, order - i) * q + _taylor(right, dx_right, order - i) * p
        )


def _grid_blend(cfg, table, upto, order, m, step, out):
    """Write into ``out`` the blend at the ``n M / step + 1`` points of stride
    ``step`` of ``linspace(a, b, n M + 1)``, ``step`` dividing ``M``: a tile
    is a block of offsets ``j / M``, ``j`` a multiple of ``step``, against as
    many node cells as fit, with ``_steps`` taken once per block of offsets;
    the end point ``b`` (cell ``n - 1``, ``s = 1``) is blended on its own.
    ``out`` is contiguous, so its rows are views."""
    cols = m // step
    block = out[:-1].reshape(cfg.n, cols)
    width = min(cols, _TILE)
    rows = _TILE // width
    klo = np.arange(cfg.n)[:, None]
    for j in range(0, cols, width):
        steps = _steps(cfg, np.arange(j, min(j + width, cols)) * step / m, order, upto)
        for k in range(0, cfg.n, rows):
            _blend(table, klo[k : k + rows], steps, order, block[k : k + rows, j : j + width])
    _blend(table, np.array([cfg.n - 1]), _steps(cfg, np.ones(1), order, upto), order, out[-1:])


def _evaluate(cfg, f, upto, order, x, grid, stride, out):
    """``order``-th derivative at ``x[::stride]`` of the operator on the node
    derivatives up to ``upto``, written into ``out`` (a contiguous array of
    that shape) or a new array: the body of every public operator entry
    point, which passes its keywords on.

    ``grid`` declares that ``x`` is ``linspace(x[0], x[-1], x.size)``.  When
    its ends are ``a`` and ``b`` and ``n`` divides its cells, ``n M``, the grid
    path runs: with ``stride`` dividing ``M`` on the stride's offsets alone,
    else on every point, of which every ``stride``-th is kept.  Any other
    input is bracketed point by point, ``_TILE`` points at a time.  Both
    paths are elementwise, so a strided call is bitwise the same call
    without a stride, sliced."""
    if stride < 1:
        raise InvalidConfig("stride must be a positive integer")
    table = _weight_table(cfg, f, upto)
    arr = np.asarray(x, dtype=float)
    cells = arr.size - 1
    on_grid = grid and arr.ndim == 1 and cells > 0 and arr[0] == cfg.a and arr[-1] == cfg.b
    m = cells // cfg.n if on_grid and cells % cfg.n == 0 else 0
    arr = arr[::stride] if stride > 1 else arr
    out = np.empty(arr.shape) if out is None else out
    if m and m % stride == 0:
        _grid_blend(cfg, table, upto, order, m, stride, out)
    elif m:
        every = np.empty(cells + 1)
        _grid_blend(cfg, table, upto, order, m, 1, every)
        out[...] = every[::stride]
    else:
        _check_points(cfg, arr)
        points, into = arr.reshape(-1), out.reshape(-1)  # a view of out
        scratch = [np.empty(min(arr.size, _TILE), t) for t in (float, np.int64, bool)]
        for lo in range(0, arr.size, _TILE):
            tile = into[lo : lo + _TILE]  # near points' nodes, then the blend
            s, klo, mask = (a[: tile.size] for a in scratch)
            _bracket(cfg, points[lo : lo + _TILE], s, klo, tile, mask)
            _blend(table, klo, _steps(cfg, s, order, upto), order, tile, s)
    return _shaped(out, x)


def nn_eval(cfg: OperatorConfig, f: FunctionInput, x, *, grid=False, stride=1, out=None):
    """Zeroth-order operator value at ``x`` (scalar or array); ``grid``,
    ``stride`` and ``out`` as in ``_evaluate``."""
    return _evaluate(cfg, f, 0, 0, x, grid, stride, out)


def nn_eval_four_layer(cfg: OperatorConfig, f: FunctionInput, x, *, grid=False, stride=1, out=None):
    """Operator with ``cfg.r`` derivative channels; equals nn_eval at r=0."""
    return _evaluate(cfg, f, cfg.r, 0, x, grid, stride, out)


def nn_eval_derivative(cfg: OperatorConfig, f: FunctionInput, order: int, x, *, grid=False,
                       stride=1, out=None):
    """Closed-form ``order``-th derivative of the four-layer operator."""
    if not (isinstance(order, int) and order >= 1):
        raise InvalidConfig("derivative order must be a positive integer")
    if order > cfg.r:
        raise InvalidConfig("derivative order exceeds the layer order r")
    return _evaluate(cfg, f, cfg.r, order, x, grid, stride, out)
