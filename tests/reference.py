"""Reference implementations that tests compare the library against."""

from fif.fractal import _grid_index, _render_grid


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
