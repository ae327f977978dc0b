"""Show the fixed point converging to the seed as the operator refines.

Two ladders.  The first keeps the seed function and refines the
operator's node count n, so the error contracts toward zero under the
scaled-gap bound.  The second pretends only knot samples exist (the
node-table variant) and refines knots and nodes together; its bound
adds the modulus at the knot spacing, which dominates.
"""

import numpy as np

from fif.analysis import (
    error_bound_alpha,
    error_bound_discrete,
    modulus_of_continuity,
)
from fif.fractal import FifProblem, solve_fif
from fif.kernels import ramp
from fif.maps import Partition, ScalingVector
from fif.operators import FunctionInput, OperatorConfig
from fif.registry import make_function

ALPHA = 0.5


def main():
    f = make_function("sin")
    dense = f(np.linspace(0.0, 1.0, 2**17 + 1))
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(ALPHA, 4)

    print("seed-function ladder (4 knots fixed, operator refines)")
    print(f"{'n':>6s} {'sup error':>12s} {'bound':>12s}")
    for n in (8, 16, 32, 64, 128, 256):
        op = OperatorConfig(ramp(), 0.0, 1.0, n)
        res = solve_fif(FifProblem(part, sv, op, f, "alpha"),
                        cells=4 * 2**10, tol=1e-10)
        err = np.max(np.abs(res.values - f(res.grid)))
        bound = error_bound_alpha(ALPHA, modulus_of_continuity(dense, 1.0, 1.0 / n))
        print(f"{n:6d} {err:12.3e} {bound:12.3e}")

    print("\nnode-table ladder (knots and nodes refine together)")
    print(f"{'N':>6s} {'sup error':>12s} {'bound':>12s}")
    for m in (8, 16, 32, 64, 128):
        knots = np.linspace(0.0, 1.0, m + 1)
        prob = FifProblem(Partition(knots), ScalingVector.broadcast(ALPHA, m),
                          OperatorConfig(ramp(), 0.0, 1.0, m),
                          FunctionInput.tabulated(np.sin(knots)), "discrete")
        res = solve_fif(prob, cells=m * 2**7, tol=1e-10)
        err = np.max(np.abs(res.values - f(res.grid)))
        om = modulus_of_continuity(dense, 1.0, 1.0 / m)
        print(f"{m:6d} {err:12.3e} {error_bound_discrete(ALPHA, om, om):12.3e}")


if __name__ == "__main__":
    main()
