"""Build a C^1 fractal curve and check its derivative really is one.

The order-1 construction solves two coupled fixed points: the curve
itself and a derivative-level curve whose scaling factors are divided
by the map slopes.  Junction compatibility of the derivative data is
verified up front; afterwards a central finite difference of the
rendered curve should match the rendered derivative level everywhere
except the outermost cells.
"""

import numpy as np

from fif.fractal import FifProblem, solve_fif
from fif.kernels import smoothstep
from fif.maps import Partition, ScalingVector
from fif.operators import OperatorConfig
from fif.registry import make_function

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main():
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(smoothstep(1), 0.0, 1.0, 256, r=1)
    prob = FifProblem(part, ScalingVector.broadcast(0.2, 4), op,
                      make_function("sin"), "smooth")
    res = solve_fif(prob, cells=4 * 2**12, tol=1e-10)

    level = res.diagnostics["derivative_levels"][1]
    print(f"junction matching residual   {level['matching_residual']:.2e}")
    print(f"endpoint identity gaps       "
          f"{level['endpoint_identity_gap'][0]:.2e} "
          f"{level['endpoint_identity_gap'][1]:.2e}")
    print(f"derivative-level contraction {level['contraction']:.3f}")

    step = res.grid[1] - res.grid[0]
    fd = (res.values[2:] - res.values[:-2]) / (2 * step)
    gap = np.max(np.abs(fd - res.derivatives[1][1:-1]))
    print(f"max |finite diff - level 1|  {gap:.2e}")

    if plt is None:
        return
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(9, 6), sharex=True)
    ax1.plot(res.grid, res.values, lw=0.6)
    ax1.set_ylabel("curve")
    ax2.plot(res.grid, res.derivatives[1], lw=0.6)
    ax2.set_ylabel("derivative level")
    fig.tight_layout()
    fig.savefig("smooth_construction.png", dpi=120)
    print("wrote smooth_construction.png")


if __name__ == "__main__":
    main()
