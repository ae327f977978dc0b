"""Convergence table for the quasi-interpolation operator.

For each node count n the operator samples f at n + 1 uniform nodes and
blends neighbouring samples through the kernel window, so its sup error
is bounded by the modulus of continuity at the node spacing.  The table
shows the measured error tracking the bound as n doubles, for a smooth
function and for one with a cusp (where the modulus decays like h^0.5
and the operator slows down accordingly).
"""

import argparse

import numpy as np

from fif.analysis import modulus_of_continuity
from fif.kernels import kernel_from_name
from fif.operators import OperatorConfig, nn_eval
from fif.registry import make_function


def table(fname, kernel, ns, probe):
    f = make_function(fname)
    dense = f(np.linspace(0.0, 1.0, 2**17 + 1))
    truth = f(probe)
    print(f"\n{fname}  (kernel {kernel.family})")
    print(f"{'n':>6s} {'sup error':>12s} {'omega(f,1/n)':>13s} {'ratio':>7s}")
    for n in ns:
        cfg = OperatorConfig(kernel, 0.0, 1.0, n)
        err = float(np.max(np.abs(truth - nn_eval(cfg, f, probe))))
        om = modulus_of_continuity(dense, 1.0, 1.0 / n)
        print(f"{n:6d} {err:12.3e} {om:13.3e} {err / om:7.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kernel", default="smoothstep:1")
    ap.add_argument("--max-exp", type=int, default=9,
                    help="largest node count is 2**max_exp")
    args = ap.parse_args()

    kernel = kernel_from_name(args.kernel)
    ns = [2**k for k in range(3, args.max_exp + 1)]
    probe = np.linspace(0.0, 1.0, 10**4)
    for fname in ("sin", "abspow:0.3,0.5"):
        table(fname, kernel, ns, probe)


if __name__ == "__main__":
    main()
