"""Roughness-exponent gate for fractal perturbations of a cusp function.

Working in the space of mu-Hoelder functions tightens the contraction
requirement: each scaling must beat the corresponding map slope raised
to mu, not just stay below one.  The script evaluates that gate for a
range of scalings, then tracks the combined Hoelder norm of the
perturbation shrinking as the base operator refines.
"""

import numpy as np

from fif.analysis import holder_seminorm
from fif.fractal import FifProblem, solve_fif
from fif.kernels import ramp
from fif.maps import Partition, ScalingVector
from fif.operators import OperatorConfig
from fif.registry import make_function

MU = 0.5


def main():
    part = Partition.uniform(0.0, 1.0, 4)
    print(f"gate: need alpha < slope^mu = {0.25**MU:.3f} per piece")
    for alpha in (0.2, 0.4, 0.49, 0.5, 0.6):
        c = ScalingVector.broadcast(alpha, 4).holder_contraction(part, MU)
        verdict = "pass" if c < 1.0 else "FAIL"
        print(f"  alpha = {alpha:4.2f}  contraction = {c:5.3f}  {verdict}")

    f = make_function("abspow:0,0.5")
    sv = ScalingVector.broadcast(0.4, 4)
    print(f"\ncombined {MU}-Hoelder norm of (fif - seed), alpha = 0.4")
    print(f"{'n':>6s} {'norm':>10s}")
    for n in (8, 16, 32, 64, 128):
        op = OperatorConfig(ramp(), 0.0, 1.0, n)
        res = solve_fif(FifProblem(part, sv, op, f, "alpha"),
                        cells=4 * 2**12, tol=1e-9)
        diff = res.values - f(res.grid)
        norm = max(float(np.max(np.abs(diff))), holder_seminorm(diff, 1.0, MU))
        print(f"{n:6d} {norm:10.4f}")


if __name__ == "__main__":
    main()
