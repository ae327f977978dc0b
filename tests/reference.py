"""Reference implementations that tests compare the library against."""

import math

import numpy as np

from fif.fractal import _grid_index, _render_grid
from fif.operators import _steps, _taylor, _weight_table


def rb_apply(problem, values):
    """One sweep of the self-referential update applied to ``values``, the
    samples on the uniform grid of ``values.size - 1`` cells over the problem
    interval; returns the new samples.

    The partition must be uniform: that closes the uniform grid for any cell
    count, so the sweep is an exact ``_grid_index`` gather, independent of the
    strided sweep of the solver that it is the bitwise reference for.  The
    end coefficients are zeroed, so the ends take the height's values.
    """
    part = problem.partition
    assert part.is_uniform, "the reference sweep needs a uniform partition"
    cells = values.size - 1
    pieces = problem.pieces()
    x = _render_grid(part, cells)
    i_idx, k = _grid_index(part.size, cells)
    coeff = problem.scaling.values_at(i_idx, x[k])
    coeff[0] = coeff[-1] = 0.0
    offset = pieces.height_eval(x) - coeff * pieces.base_eval(x)[k]
    return coeff * values[k] + offset


def pointwise_operator(cfg, f, upto, order, x):
    """The ``order``-th derivative at ``x`` of the operator on the node
    derivatives up to ``upto``, by the point-by-point path as it was written
    before it used scratch: every step into a fresh array, the node values
    gathered by indexing, and the whole input at once (each step is
    elementwise, so tiling moves no bit).  Returns a flat array; the
    bitwise reference for the pointwise branch of ``fif.operators``."""
    table = _weight_table(cfg, f, upto)
    arr = np.asarray(x, dtype=float).reshape(-1)
    u = (np.clip(arr, cfg.a, cfg.b) - cfg.a) / cfg.h
    near = np.round(u)
    u = np.where(np.abs(u - near) <= 1e-12 * max(1.0, cfg.n), near, u)
    u = np.clip(u, 0.0, float(cfg.n))
    klo = np.minimum(np.floor(u).astype(np.int64), cfg.n - 1)
    profile, (dx_left, dx_right) = _steps(cfg, u - klo, order, upto)
    if dx_left is None:
        out = np.multiply(table[0, klo], 1.0 - profile[0])
        out += table[0, klo + 1] * profile[0]
        out += 0.0
        return out
    left, right = table[:, klo], table[:, klo + 1]
    out = np.zeros(arr.shape)
    for i, p in enumerate(profile):
        q = 1.0 - p if i == 0 else -p
        out += math.comb(order, i) * (
            _taylor(left, dx_left, order - i) * q + _taylor(right, dx_right, order - i) * p
        )
    return out
