"""Self-referential interpolants driven by quasi-interpolation heights.

A problem couples an interval partition, one vertical scaling per
subinterval, and a quasi-interpolation operator.  The solution is the
unique bounded function fixing

    phi(x) = alpha_i(p) * phi(p) + height(x) - alpha_i(p) * base(p),

where ``p`` is the pre-image of ``x`` under the affine contraction onto
subinterval ``i``.  Three variants differ only in what plays the roles of
``height`` and ``base``:

    alpha     height = f itself,            base = zeroth-order operator
    discrete  height = operator on knots,   base = operator on its nodes
              (f is touched only at node locations)
    smooth    height = f itself,            base = four-layer operator;
              derivative level k is one more equation on the level-0
              grid, with height f^(k), base (Lf)^(k) and scaling
              alpha_i / s_i^k

Solving works on a render grid that every pre-image map sends into
itself: the uniform grid on a uniform partition, else ``G_K``, the images
of the endpoints under all depth-``K`` compositions of the maps (Barnsley
1986), ``N^K + 1`` points whose stride-``N`` subgrid is ``G_{K-1}``.  On
both, with ``M = cells / N``, point ``(i - 1) M + t`` is ``L_i`` of point
``N t``, so every piece reads its pre-images from one strided view: the
discrete equation reads ``phi[1:] = c * phi[N::N] + o`` with ``o`` viewed
as ``N`` rows of ``M`` and ``c`` as ``N`` rows of ``M`` or, for constant
scalings, one column; the ends take the height's values.  ``contraction``
is ``max|c|`` over every grid point, which must be below 1.  With ``N^K`` the
largest power of ``N`` dividing the cell count, the stride-``N^K`` points
form a closed coarse grid.  There the update composed with itself has the
same form over an explicit pre-image index, so pointer jumping (Wyllie
1979) squares every composed coefficient per pass until none exceeds the
unit roundoff: the coarse values are then the fixed point up to rounding,
at once when the coarse grid is the two ends (always on ``G_K``).  When
every interior coarse point has the same coefficient and its pre-image
chain never reaches an end (``gcd(N, C) = 1`` for ``C`` coarse cells), the
passes run on the interior alone and square one float, with the same bits
as an array of it.  A point of stride ``t < N^K`` has its pre-image at
stride ``N t``, so the same sweep on every ``t``-th point fills each level
from the one above.  One further sweep certifies the result: it moves it
by the residual, which must be at most ``tol * (1 - contraction)``, so the
result is within ``tol`` of the fixed point.

The random-orbit render (chaos game) follows one seeded orbit of the
iterated function system instead.  Its x-orbit and its y-recurrence are
first-order affine recurrences along the orbit, so the same doubling
applies with index ``t - w`` as the pre-image: a slice-based scan solves
each in at most ``log2`` of the orbit length array passes, and stops early
once every window's coefficient product is at most the same unit roundoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .analysis import MAX_SIZE_EXP
from .errors import (
    CrossCheckError,
    InvalidConfig,
    MatchingConditionError,
    NonConvergence,
)
from .maps import Partition, ScalingVector
from .operators import (
    _TILE,
    FunctionInput,
    OperatorConfig,
    input_derivative,
    nn_eval,
    nn_eval_derivative,
    nn_eval_four_layer,
)

VARIANTS = ("alpha", "discrete", "smooth")

DEFAULT_TOL = 1e-9
DEFAULT_MAX_SWEEPS = 1000
# junction matching tolerance, relative to the size of the junction data
# (at least 1): f^(k) at the knots and the end values
MATCHING_TOL = 1e-8
# unit roundoff of a double: a composed coefficient at or below it changes
# no result by more than rounding, so doubling stops there
ROUNDOFF = 2.0**-53
# junction continuity tolerance, relative to the render's sup norm (at least 1)
KNOT_TOL = 1e-9
# orbit steps the random-orbit render discards before its first point
BURN_IN = 100


class FifProblem:
    """Partition + scalings + operator + target function, with a variant tag."""

    __slots__ = ("partition", "scaling", "operator", "f", "variant")

    def __init__(self, partition, scaling, operator, f, variant="alpha"):
        if variant not in VARIANTS:
            raise InvalidConfig(f"unknown variant: {variant!r}")
        if scaling.size != partition.size:
            raise InvalidConfig("scaling count must match subinterval count")
        span = partition.b - partition.a
        if (
            abs(operator.a - partition.a) > 1e-12 * span
            or abs(operator.b - partition.b) > 1e-12 * span
        ):
            raise InvalidConfig("operator interval must match the partition")
        if variant == "alpha":
            if f.mode != "analytic":
                raise InvalidConfig("this variant needs an analytic function input")
        elif variant == "discrete":
            if not partition.is_uniform:
                raise InvalidConfig("uniform partition required")
            if f.mode == "tabulated":
                if f.values.size != partition.size + 1:
                    raise InvalidConfig("knot table must have N + 1 values")
                if partition.size % operator.n != 0:
                    raise InvalidConfig(
                        "operator nodes must sit on knots (n must divide N)"
                    )
        else:  # smooth
            if not partition.is_uniform:
                raise InvalidConfig("uniform partition required")
            if f.mode != "analytic":
                raise InvalidConfig("this variant needs an analytic function input")
            if len(f.derivatives) < operator.r:
                raise InvalidConfig("derivatives unavailable")
            consts = np.abs(scaling.constants())
            if not np.all(consts < partition.slopes**operator.r):
                raise InvalidConfig(
                    "need |alpha_i| < slope_i^r for an order-r construction"
                )
        self.partition = partition
        self.scaling = scaling
        self.operator = operator
        self.f = f
        self.variant = variant

    def pieces(self, grid=False) -> _Pieces:
        """The variant's height and base, as evaluators on arrays of points;
        ``grid=True`` declares each array a linspace, as a uniform render grid
        is, and the base takes the operator's ``stride`` and ``out``."""
        part, cfg, f = self.partition, self.operator, self.f
        if self.variant == "alpha":
            return _Pieces(lambda xs, **at: nn_eval(cfg, f, xs, grid=grid, **at), f)
        if self.variant == "smooth":
            return _Pieces(lambda xs, **at: nn_eval_four_layer(cfg, f, xs, grid=grid, **at), f)
        # discrete: both height and base are operator evaluations of node data,
        # so f is read at the knots and the operator nodes and nowhere else
        height_cfg = OperatorConfig(cfg.kernel, cfg.a, cfg.b, part.size)
        if f.mode == "tabulated":
            knot_vals = f.values
            base_vals = knot_vals[:: part.size // cfg.n]
        else:
            knot_vals = f(part.knots)
            base_vals = f(cfg.nodes)
        f_height = FunctionInput.tabulated(knot_vals)
        f_base = FunctionInput.tabulated(base_vals)
        return _Pieces(
            lambda xs, **at: nn_eval(cfg, f_base, xs, grid=grid, **at),
            lambda xs: nn_eval(height_cfg, f_height, xs, grid=grid),
        )


@dataclass
class FifResult:
    """Converged render plus the evidence that it converged.

    ``grid`` is the solve's read-only render grid; on a non-uniform
    partition that is ``G_K``, ``N^K`` cells whose largest gap is
    ``(max slope)^K`` times the interval length.  Height and base are not
    kept: ``problem.pieces`` evaluates them on ``grid``.
    """

    grid: np.ndarray
    values: np.ndarray
    residual: float
    iterations: int
    y_min: float
    y_max: float
    derivatives: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


class _Pieces(NamedTuple):
    """The variant's height and base, each evaluated on arrays of points."""

    base_eval: Callable
    height_eval: Callable


def _contraction(coeff, first=0.0):
    """``max|coeff|`` and ``|first|`` without a temporary: the Lipschitz
    constant in sup norm of an update that multiplies by ``coeff`` and
    ``first``; raises unless it is below 1."""
    c = max(abs(float(first)), float(np.max(coeff)), -float(np.min(coeff)))
    if not c < 1.0:
        raise InvalidConfig(f"scaling reaches |alpha| = {c:.6g} at a solve point; need < 1")
    return c


def _magnitude(coeff):
    """``max|coeff|`` of one float, or of an array without a temporary."""
    return abs(coeff) if np.ndim(coeff) == 0 else max(coeff.max(), -coeff.min())


def _grid_index(n_sub, cells):
    """Subinterval ``i`` of every grid point and the grid index of its pre-image.

    Holds on ``_render_grid``; internal knots go left, as in
    ``Partition.locate``.
    """
    g = np.arange(cells + 1)
    i_idx = np.clip(-(-n_sub * g // cells), 1, n_sub)
    return i_idx, n_sub * g - (i_idx - 1) * cells


def _render_grid(part, cells):
    """A grid of at least ``cells`` cells that every pre-image map closes.

    Uniform partitions get ``cells`` uniform cells.  Otherwise the grid is
    ``G_K`` with ``N^K >= cells`` the least such power: each level maps the
    previous one into every subinterval, so point ``i M + t`` (``M`` cells per
    subinterval) is ``L_i`` of point ``N t``, and the knots are written in
    exactly at ``i M``.
    """
    if part.is_uniform:
        return np.linspace(part.a, part.b, cells + 1)
    x = np.array([part.a, part.b])
    while x.size - 1 < cells:
        if (x.size - 1) * part.size > 2**MAX_SIZE_EXP:  # the next level's cells
            raise InvalidConfig(f"render grid above 2^{MAX_SIZE_EXP} cells")
        inner = part.slopes[:, None] * x[1:] + part.intercepts[:, None]
        x = np.concatenate(([part.a], inner.ravel()))
        x[:: inner.shape[1]] = part.knots
    return x


class _GridPlan:
    """The update ``phi -> c * phi[pre] + height - c * base[pre]`` on a
    closed grid, whose ``N`` rows of ``M`` points ``1..cells`` share
    pre-images ``N::N``.  ``c`` is ``alpha`` (at ``x[::N]``: ``N`` rows of ``M + 1``,
    or a constant column) viewed as ``rows``, ``(N, M)``; ``contraction`` is
    ``max|c|`` there and at point 0.  ``base(out=...)`` writes the base at
    ``x[::N]`` into the last ``M + 1`` slots of ``offset``, which its last
    row overwrites in place; ``base_ends`` keeps its two ends.  Owns
    ``offset``; of ``height`` it keeps copies at the ``C + 1`` points of
    stride ``N^levels``, where the coarse solve starts, and at the ``N + 1``
    knots.  Writes no input."""

    __slots__ = ("rows", "offset", "base_ends", "coarse_height", "knot_height", "levels",
                 "contraction", "n_sub")

    def __init__(self, alpha, height, base):
        self.n_sub, m = len(alpha), (height.size - 1) // len(alpha)
        rows = alpha[:, -m:]  # columns 1..M, or the one constant column
        self.contraction = _contraction(rows, alpha[0, 0])
        self.rows = np.broadcast_to(rows, (self.n_sub, m))
        self.offset = np.empty_like(height)
        pre = self.offset[-m - 1 :]
        base(out=pre)
        self.base_ends = float(pre[0]), float(pre[-1])
        pre = pre[1:]  # the last row: written last, in place
        # one row of M at a time: no (N, M) temporary
        for c, h, row in zip(self.rows, height[1:].reshape(self.n_sub, -1),
                             self.offset[1:].reshape(self.n_sub, -1)):
            np.multiply(c, pre, out=row)
            np.subtract(h, row, out=row)
        self.offset[0], self.offset[-1] = height[0], height[-1]
        coarse, self.levels = height.size - 1, 0
        while coarse % self.n_sub == 0:
            coarse, self.levels = coarse // self.n_sub, self.levels + 1
        self.coarse_height = height[:: self.n_sub**self.levels].copy()
        self.knot_height = height[::m].copy()

    def apply(self, values, out=None, s=1):
        """The update of ``values`` at the stride-``s`` points, which read
        stride ``N s``, written into ``out`` (new by default) and returned;
        ``out`` may be ``values``: NumPy buffers an overlapping input."""
        out = np.empty_like(self.offset) if out is None else out
        rows = out[s::s].reshape(self.n_sub, -1)
        np.multiply(self.rows[:, s - 1 :: s],
                    values[self.n_sub * s :: self.n_sub * s], out=rows)
        rows += self.offset[s::s].reshape(self.n_sub, -1)
        out[0], out[-1] = self.offset[0], self.offset[-1]
        return out

    def solve(self, tol, max_sweeps):
        """Pointer jumping on the closed coarse grid of ``C = cells / N^K``
        cells until no composed coefficient exceeds ``ROUNDOFF`` (none does
        when ``C = 1``) or ``max_sweeps`` passes are spent, one strided sweep
        per level to fill strides ``N^(K-1), ..., 1``, then a certifying
        sweep whose move is ``residual``.  Returns ``(values, stats)``, or
        raises ``NonConvergence`` if ``residual > tol * (1 - contraction)``.

        The composed coefficients are an array of the ``C + 1`` coarse
        points, 0 at the two ends, unless ``rows`` is a constant column of
        equal entries, ``C > 1`` and no interior point's pre-image is an end
        (``gcd(N, C) = 1``, as for every odd ``N``): then the interior points
        jump alone, their shared coefficient is one float squared per pass,
        and the ends keep ``0 * height + offset``.  Each product, the pass
        count and every value are the array path's bits.
        """
        levels, s = self.levels, self.n_sub**self.levels
        coarse = self.coarse_height.size - 1
        offset, k = self.offset[::s].copy(), _grid_index(self.n_sub, coarse)[1]
        # a broadcast column of equal entries is one float, if every interior
        # point's pre-image is interior (k[g] lies in (0, C] for g > 0)
        coeff = None
        if self.rows.strides[1] == 0 and coarse > 1 and k[1:-1].max() < coarse:
            coeff = _shared(self.rows[:, 0])
        if coeff is None:  # one coefficient per coarse point, 0 at the ends
            coeff, view = np.zeros(coarse + 1), slice(None)
            inner = np.arange(s, self.offset.size - 1, s) - 1  # rows' flat index
            coeff[1:-1] = self.rows[np.unravel_index(inner, self.rows.shape)]
        else:  # the interior points' chains never leave the interior
            view, k = slice(1, -1), k[1:-1] - 1
        jump, passes = offset[view], 0
        while passes < max_sweeps and _magnitude(coeff) > ROUNDOFF:
            jump += coeff * jump[k]
            coeff *= coeff[k] if np.ndim(coeff) else coeff
            k = k[k]
            passes += 1
        phi = np.empty_like(self.offset)
        ends, coarse_phi = [0, -1], phi[::s]
        coarse_phi[ends] = 0.0 * self.coarse_height[ends] + offset[ends]
        coarse_phi[view] = coeff * self.coarse_height[view][k] + jump
        del coeff, offset, jump, k  # the fill and the certifying sweep need only the plan
        while s > 1:
            s //= self.n_sub
            self.apply(phi, out=phi, s=s)
        nxt = self.apply(phi)
        move = np.subtract(nxt, phi, out=phi)  # max|move| without a temporary
        residual = max(0.0, float(np.max(move)), -float(np.min(move)))
        threshold = tol * (1.0 - self.contraction)
        iterations = passes + levels + 1
        if residual > threshold:
            raise NonConvergence(
                f"no convergence in {passes} of {max_sweeps} doubling passes: the "
                f"certifying sweep moved {residual:.3e}, above tol * (1 - contraction) "
                f"= {threshold:.3e}",
                values=nxt, residual=residual, iterations=iterations,
            )
        return nxt, {"iterations": iterations, "residual": residual,
                     "coarse_cells": coarse, "fill_levels": levels}


class Render(NamedTuple):
    """What a solve renders before the operator's node count enters: the
    render grid, the height on it and the scaling rows at ``grid[::N]``
    (``N`` rows, or one column when every scaling is a constant).  Solves
    that differ only in the operator's ``n`` (and ``r``) share one through
    ``solve_fif(..., rendered=...)``; ``key`` records what it was made of."""

    grid: np.ndarray
    height: np.ndarray
    alpha: np.ndarray
    key: tuple


def _render_key(problem, cells):
    # everything a render reads: the knots, the scaling and f objects, the
    # variant, the kernel and interval of a discrete height's operator, and
    # the cell count
    op = problem.operator
    return (cells, problem.partition.knots.tobytes(), problem.scaling, problem.f,
            problem.variant, op.kernel, op.a, op.b)


def render(problem: FifProblem, cells) -> Render:
    """The render grid of ``problem`` on ``cells`` cells with the height on it
    and the scaling rows, all read-only.  Each distinct scaling entry is
    evaluated once on ``x[::N]``, which adds point 0, its own pre-image under
    ``L_1``.  A ladder of ``solve_fif`` calls whose problems differ only in
    the operator's node count and order shares one."""
    part, cells = problem.partition, _checked_cells(problem, cells)
    x = _render_grid(part, cells)
    height = problem.pieces(grid=part.is_uniform).height_eval(x)
    shared = Render(x, height, problem.scaling.rows_at(x[:: part.size]),
                    _render_key(problem, cells))
    for arr in shared[:3]:
        arr.flags.writeable = False
    return shared


def _build_plan(problem, cells, rendered=None):
    """The level-0 update on the render grid: ``(plan, grid, base(a))``.  A
    render made here goes with its height once the plan holds its offset.
    Every piece reads its pre-images from the strided view ``x[N::N]``, so
    no value is interpolated, and the base is evaluated at ``x[::N]`` alone."""
    if rendered is None:
        rendered = render(problem, cells)
    part, x = problem.partition, rendered.grid
    base = problem.pieces(grid=part.is_uniform).base_eval
    plan = _GridPlan(rendered.alpha, rendered.height, functools.partial(base, x, stride=part.size))
    return plan, x, plan.base_ends[0]


def _derivative_levels(problem, x):
    """Plans of levels ``1..r`` of a smooth problem on the level-0 grid ``x``,
    with their diagnostics: ``{order: (plan, info)}``.  Each order's junction
    data are read off the grid at the knots and compared once its plan is
    built; the end values are the fixed points of the end maps, written into
    the ends of the plan's offset and coarse start; their gap to ``f^(k)``
    is recorded."""
    part, cfg = problem.partition, problem.operator
    alphas = problem.scaling.constants()
    knots = np.arange(part.size + 1) * ((x.size - 1) // part.size)
    levels = {}
    for j in range(1, cfg.r + 1):
        fj = input_derivative(problem.f, j, x)
        sj = part.slopes**j
        # a smooth problem's partition is uniform, so x is its linspace
        plan = _GridPlan((alphas / sj)[:, None], fj, functools.partial(
            nn_eval_derivative, cfg, problem.f, j, x, grid=True, stride=part.size))
        base_a, base_b = plan.base_ends
        q_at_a = sj * fj[knots[:-1]] - alphas * base_a
        q_at_b = sj * fj[knots[1:]] - alphas * base_b
        y0 = float(q_at_a[0] / (sj[0] - alphas[0]))
        y1 = float(q_at_b[-1] / (sj[-1] - alphas[-1]))
        gap = np.abs(
            (alphas[:-1] * y1 + q_at_b[:-1]) / sj[:-1]
            - (alphas[1:] * y0 + q_at_a[1:]) / sj[1:]
        )
        size = max(1.0, float(np.max(np.abs(fj[knots]))), abs(y0), abs(y1))
        bad = np.flatnonzero(gap > MATCHING_TOL * size)
        if bad.size:
            raise MatchingConditionError(
                f"junction data mismatch {gap[bad[0]]:.3e} at "
                f"subinterval {bad[0] + 2}, derivative order {j}"
            )
        identity_gap = (float(abs(y0 - fj[0])), float(abs(y1 - fj[-1])))
        plan.offset[[0, -1]] = plan.coarse_height[[0, -1]] = y0, y1
        levels[j] = (plan, {
            "contraction": plan.contraction,
            "matching_residual": float(np.max(gap)),
            "endpoint_values": (y0, y1),
            "endpoint_identity_gap": identity_gap,
        })
    return levels


def _knot_checks(problem, values, plan, base_a, y_min, y_max):
    """Continuity across subinterval junctions, relative to ``max(1, -y_min, y_max)
    = max(1, max|values|)``, and knot reproduction at the internal knots:
    ``(mismatch, deviation, checked)``.  Knot ``i`` is grid point ``i cells / N``
    on every render grid; ``plan.knot_height`` holds the height at the knots."""
    part = problem.partition
    inner = np.arange(1, part.size)
    at = inner * ((values.size - 1) // part.size)
    alpha_r = problem.scaling.values_at(inner + 1, part.a)
    right = alpha_r * values[0] + plan.knot_height[inner] - alpha_r * base_a
    cont_max = float(np.max(np.abs(values[at] - right)))
    knot_max = float(np.max(np.abs(values[at] - plan.knot_height[inner])))
    if cont_max > KNOT_TOL * max(1.0, -y_min, y_max):
        raise CrossCheckError(f"junction continuity check failed: mismatch {cont_max:.3e}")
    return cont_max, knot_max, inner.size


def _checked_cells(problem, cells):
    cells = int(cells)
    if cells > 2**MAX_SIZE_EXP:
        raise InvalidConfig(f"render grid above 2^{MAX_SIZE_EXP} cells")
    q, rem = divmod(cells, problem.partition.size)
    if rem != 0 or q < 16 or q & (q - 1):
        raise InvalidConfig(
            "grid cells must be a power-of-two multiple of the subinterval "
            "count, at least 16 per subinterval"
        )
    return cells


def solve_fif(problem: FifProblem, cells, tol=DEFAULT_TOL,
              max_sweeps=DEFAULT_MAX_SWEEPS, *, rendered: Render | None = None):
    """Render the fixed point of ``problem`` on a dense grid, for any variant.

    The variant is read off the problem.  A discrete problem touches ``f``
    only at the knots and the operator nodes, and its diagnostics record
    ``height_nodes``.  A smooth problem of order ``r`` also solves its
    derivative levels: level ``k`` is solved on the level-0 grid with height
    ``f^(k)``, base ``(Lf)^(k)`` and scaling ``alpha_i / s_i^k``.  Before any
    level is solved, the junction data of consecutive maps must agree for
    every order (the Barnsley-Harrington compatibility conditions); a
    mismatch above ``MATCHING_TOL`` times the size of that order's junction
    data (at least 1: ``f^(k)`` at the knots and the end values) signals a
    kernel-smoothness or derivative-data defect and raises
    ``MatchingConditionError``.

    Every solve renders through ``render``, so the result's ``grid`` is the
    render's read-only grid.  ``rendered``, from ``render(p, cells)`` of a
    problem ``p`` with the same partition knots, the same scaling and ``f``
    objects, variant, kernel and interval, supplies it, so a ladder over the
    node count renders once.  Any other render raises ``InvalidConfig``.
    """
    cells = _checked_cells(problem, cells)
    if not tol > 0:
        raise InvalidConfig("tolerance must be positive")
    if not max_sweeps >= 1:
        raise InvalidConfig("doubling budget must be at least 1")
    if rendered is not None and rendered.key != _render_key(problem, cells):
        raise InvalidConfig("the render was made for another problem or cell count")
    plan, x, base_a = _build_plan(problem, cells, rendered)
    del rendered  # a render handed over goes with its height
    smooth = problem.variant == "smooth"
    levels = _derivative_levels(problem, x) if smooth else {}
    values, stats = plan.solve(tol, max_sweeps)
    y_min, y_max = float(np.min(values)), float(np.max(values))
    cont_max, knot_max, checked = _knot_checks(problem, values, plan, base_a, y_min, y_max)
    diagnostics = {
        "variant": problem.variant,
        "cells": x.size - 1,
        "tol": tol,
        "contraction": plan.contraction,
        "coarse_cells": stats["coarse_cells"], "fill_levels": stats["fill_levels"],
        "junction_mismatch": cont_max,
        "knots_checked": checked,
        "knot_deviation": knot_max,
    }
    if problem.variant == "discrete":
        diagnostics["height_nodes"] = problem.partition.size
    result = FifResult(
        grid=x, values=values, residual=stats["residual"], iterations=stats["iterations"],
        y_min=y_min, y_max=y_max, diagnostics=diagnostics,
    )
    if smooth:
        diagnostics["derivative_levels"] = {j: info for j, (_, info) in levels.items()}
    del plan  # from here on each plan goes once its level is solved
    for j in list(levels):
        dplan, info = levels.pop(j)
        result.derivatives[j], stats = dplan.solve(tol, max_sweeps)
        info.update(stats)
    return result


def _affine_scan(coeff, offset):
    """Solve ``v[t] = coeff[t] * v[t - 1] + offset[t]`` in place.

    ``coeff`` is an array with ``coeff[0] = 0``, so ``v[0] = offset[0]``, or
    one float shared by every step ``t >= 1``; on return ``offset`` holds
    ``v`` and an array ``coeff`` is spent.  Each pass composes every entry's
    window of ``w`` maps with the window before it (a doubling scan of affine
    maps), so after it an entry spans ``2 w`` steps and one whose span
    reaches ``t = 0`` carries coefficient 0 and its final value (with a
    shared float, the rest carry its ``w``-th power, squared per pass).
    Passes stop once every coefficient is at most ``ROUNDOFF`` in size, where
    a further pass would move each value by at most its rounding (a product
    of 32 factors 1/4 is 2^-64), and in any case after ``ceil(log2 n)``.
    Returns the number of passes.  A shared float fixes that number ``P`` up
    front: its passes run on tiles of ``max(_TILE, 2^P)`` entries, last first,
    each behind a halo of the ``2^P - 1`` input offsets before it: same bits.
    """
    n = offset.size
    if np.ndim(coeff):
        return _doubling(coeff, offset, np.empty(n - 1))
    passes, width, c = 0, 1, coeff
    while width < n and abs(c) > ROUNDOFF:  # _doubling's stop test
        passes, width, c = passes + 1, 2 * width, c * c
    tile, halo = max(_TILE, width), width - 1
    buf, scratch = np.empty(tile + halo), np.empty(tile + halo)
    for lo in reversed(range(0, n, tile) if passes else ()):
        start = max(lo - halo, 0)  # before it, the input is not yet overwritten
        part = buf[: min(lo + tile, n) - start]
        part[:] = offset[start : lo + tile]
        _doubling(coeff, part, scratch)
        offset[lo : lo + tile] = part[lo - start :]
    return passes


def _doubling(coeff, offset, scratch):
    """``_affine_scan``'s passes over the whole of ``offset``, into ``scratch``."""
    c = coeff if np.ndim(coeff) == 0 else coeff[1:]  # the steps' coefficients
    w, passes = 1, 0
    while w < offset.size and _magnitude(c) > ROUNDOFF:
        tmp = scratch[: offset.size - w]
        np.multiply(c, offset[:-w], out=tmp)
        offset[w:] += tmp
        if np.ndim(c) == 0:
            c = c * c
        else:
            np.multiply(c, coeff[:-w], out=tmp)
            coeff[w:] = tmp
            c = coeff[2 * w :]
        w *= 2
        passes += 1
    return passes


def _shared(table):
    """The entry of ``table`` when every entry is bitwise equal, else ``None``."""
    return float(table[0]) if table.tobytes() == table[:1].tobytes() * table.size else None


def chaos_game_render(problem: FifProblem, point_count: int, seed: int):
    """Random-orbit render: returns ``(x, y)`` arrays of ``point_count`` points.

    The orbit starts at the left interpolation point, picks maps uniformly
    from a seeded generator, and discards ``BURN_IN`` initial steps.  Both
    the x-orbit ``x[t+1] = slope_k x[t] + intercept_k`` and the y-recurrence
    ``y[t+1] = alpha_k(x[t]) y[t] + shift[t]`` are affine recurrences, each
    solved in place by a doubling scan (Wyllie 1979; Blelloch 1990) of at
    most ``ceil(log2(BURN_IN + point_count + 1))`` passes, fewer once every
    window coefficient is at most ``ROUNDOFF``, on one float when all steps
    share it.  The result matches the step-by-step loop up to rounding.
    """
    if point_count < 1000:
        raise InvalidConfig("need at least 1000 points")
    if point_count > 2**MAX_SIZE_EXP:
        raise InvalidConfig(f"orbit above 2^{MAX_SIZE_EXP} points")
    part = problem.partition
    pieces = problem.pieces()
    total = BURN_IN + int(point_count)
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, part.size, size=total)  # the stream of integers(1, N + 1) - 1
    xs = np.empty(total + 1)
    xs[0] = part.a
    # the picks lie in range by construction; "clip" writes straight into
    # ``out``, where the default "raise" fills a buffered copy first
    np.take(part.intercepts, pick, out=xs[1:], mode="clip")
    coeff = _shared(part.slopes)
    if coeff is None:
        coeff = np.zeros(total + 1)
        np.take(part.slopes, pick, out=coeff[1:], mode="clip")
    _affine_scan(coeff, xs)
    np.clip(xs, part.a, part.b, out=xs)
    coeff = _shared(problem.scaling.constants()) if problem.scaling.is_constant else None
    if coeff is None:
        pick += 1  # in place: values_at takes 1-based pieces
        coeff = np.r_[0.0, problem.scaling.values_at(pick, xs[:-1])]
    del pick
    _contraction(coeff)
    # ys[1:] = height(x[t+1]) - alpha_t * base(x[t]), the recurrence's shift
    ys = pieces.height_eval(xs)
    shift = pieces.base_eval(xs[:-1])
    shift *= coeff if np.ndim(coeff) == 0 else coeff[1:]
    ys[1:] -= shift
    del shift  # an array coefficient's scan allocates its own scratch
    _affine_scan(coeff, ys)
    return xs[BURN_IN + 1 :], ys[BURN_IN + 1 :]
