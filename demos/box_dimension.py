"""Box-counting dimension of fractal graphs against the closed form.

For constant scalings on a uniform N-piece partition the graph
dimension is 1 + log_N(kappa) with kappa the sum of |alpha_i|, provided
kappa > 1 (otherwise the graph stays one-dimensional).  A deliberately
coarse base operator (n = 1) keeps the fractal amplitude order one so
the cascade is visible at the counted scales; a resolved operator would
push the roughness below the finest boxes and every estimate would
come back 1.0.
"""

import numpy as np

from fif.analysis import box_counting_dimension, theoretical_box_dimension
from fif.fractal import FifProblem, solve_fif
from fif.kernels import ramp
from fif.maps import Partition, ScalingVector
from fif.operators import OperatorConfig
from fif.registry import make_function

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main():
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(ramp(), 0.0, 1.0, 1)
    f = make_function("poly:0,1,-1")

    print(f"{'alpha':>6s} {'kappa':>6s} {'theory':>8s} {'estimate':>9s} {'r^2':>8s}")
    last = None
    for alpha in (0.15, 0.25, 0.4, 0.5, 0.6):
        sv = ScalingVector.broadcast(alpha, 4)
        res = solve_fif(FifProblem(part, sv, op, f, "alpha"),
                        cells=2**18, tol=1e-9)
        rep = box_counting_dimension(res.grid, res.values)
        theo = theoretical_box_dimension(sv)
        print(f"{alpha:6.2f} {4 * alpha:6.2f} {theo:8.4f}"
              f" {rep.estimated_dimension:9.4f} {rep.r_squared:8.5f}")
        last = (res, rep)

    if plt is None or last is None:
        return
    res, rep = last
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    ax1.plot(res.grid, res.values, lw=0.3)
    ax1.set_title("alpha = 0.6 graph")
    eps = np.asarray(rep.scales)
    ax2.loglog(eps, rep.counts, "o-")
    ax2.set_xlabel("box size")
    ax2.set_ylabel("boxes hit")
    ax2.set_title(f"slope -> {rep.estimated_dimension:.3f}")
    fig.tight_layout()
    fig.savefig("box_dimension.png", dpi=120)
    print("wrote box_dimension.png")


if __name__ == "__main__":
    main()
