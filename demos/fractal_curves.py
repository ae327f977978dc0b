"""Render a family of fractal perturbations of one seed function.

Each curve interpolates sin at the same five knots; the scaling factor
alpha sets how much self-similar roughness rides on top.  alpha = 0
reproduces the seed exactly, and the sup distance from the seed grows
like alpha / (1 - alpha) times the seed-to-base gap.
"""

import numpy as np

from fif.fractal import FifProblem, solve_fif
from fif.kernels import ramp
from fif.maps import Partition, ScalingVector
from fif.operators import OperatorConfig
from fif.registry import make_function

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

ALPHAS = (0.0, 0.3, 0.6, 0.85)


def main():
    a, b = 0.0, np.pi
    part = Partition.uniform(a, b, 4)
    op = OperatorConfig(ramp(), a, b, 8)
    f = make_function("sin")

    curves = {}
    print(f"{'alpha':>6s} {'passes':>7s} {'residual':>10s} {'sup |fif - sin|':>16s}")
    for alpha in ALPHAS:
        prob = FifProblem(part, ScalingVector.broadcast(alpha, 4), op, f, "alpha")
        res = solve_fif(prob, cells=4 * 2**12, tol=1e-10)
        dist = float(np.max(np.abs(res.values - np.sin(res.grid))))
        print(f"{alpha:6.2f} {res.iterations:7d} {res.residual:10.2e} {dist:16.3e}")
        curves[alpha] = (res.grid, res.values)

    if plt is None:
        return
    fig, ax = plt.subplots(figsize=(9, 5))
    for alpha, (x, y) in curves.items():
        ax.plot(x, y, lw=0.7, label=f"alpha = {alpha}")
    ax.plot(part.knots, np.sin(part.knots), "ko", ms=5, zorder=5)
    ax.legend()
    ax.set_title("fractal perturbations through the same knots")
    fig.tight_layout()
    fig.savefig("fractal_curves.png", dpi=120)
    print("wrote fractal_curves.png")


if __name__ == "__main__":
    main()
