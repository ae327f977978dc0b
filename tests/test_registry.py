import numpy as np
import pytest

from fif.errors import InvalidConfig
from fif.registry import make_function


def test_sin_with_derivative_cycle():
    f = make_function("sin", max_derivative=4)
    x = np.linspace(0, 2, 9)
    assert np.allclose(f(x), np.sin(x))
    assert np.allclose(f.derivatives[0](x), np.cos(x))
    assert np.allclose(f.derivatives[3](x), np.sin(x))


def test_exp_derivatives_are_exp():
    f = make_function("exp", max_derivative=3)
    assert f.derivatives[2](1.0) == pytest.approx(np.e)


def test_poly_derivative_chain():
    f = make_function("poly:1,0,-2", max_derivative=2)  # 1 - 2x^2
    x = np.array([0.0, 0.5, 1.0])
    assert np.allclose(f(x), 1 - 2 * x**2)
    assert np.allclose(f.derivatives[0](x), -4 * x)
    assert np.allclose(f.derivatives[1](x), -4.0)


@pytest.mark.parametrize("coeffs", ["0,1,-1", "1,-2", "-0,1", "-0", "2.5,-1e-3,0,4"])
def test_poly_values_are_bitwise_the_polynomial_objects(coeffs):
    # sign of zero included: the derivatives past the degree are -0.0 or
    # +0.0 series, and x = -0.0 is mapped to +0.0 by a Polynomial call
    f = make_function(f"poly:{coeffs}", max_derivative=5)
    x = np.concatenate([np.linspace(-2.0, 2.0, 4097), [-0.0, 0.0]])
    q = np.polynomial.Polynomial([float(c) for c in coeffs.split(",")])
    assert f(x).tobytes() == q(x).tobytes()
    for d in f.derivatives:
        q = q.deriv()
        assert d(x).tobytes() == q(x).tobytes()


def test_abspow_shape():
    f = make_function("abspow:0.3,0.5")
    assert f(0.3) == 0.0
    assert f(0.7) == pytest.approx(0.4**0.5)
    assert f(-0.1) == pytest.approx(0.4**0.5)


def test_weier_is_rough_but_bounded():
    f = make_function("weier")
    x = np.linspace(0, 1, 10**4)
    vals = f(x)
    assert np.max(np.abs(vals)) < 1 / (1 - 0.55) + 1e-9


def test_weier_value_is_the_term_loop_bit_for_bit():
    def term_loop(x):
        out = np.zeros_like(x)
        for j in range(16):
            out += 0.55**j * np.cos(3**j * np.pi * x)
        return out

    x = np.random.default_rng(12).uniform(-2.0, 3.0, 10**4)
    assert make_function("weier")(x).tobytes() == term_loop(x).tobytes()


def test_weier_derivatives_match_sympy_term_by_term():
    # order k against each term's sympy derivative, evaluated at 30 digits at
    # the float points.  Term j has size 0.55^j (3^j pi)^k; in floats its
    # factors round to a few ulps of that size, and its argument 3^j pi x by
    # up to 2 ulps of itself, which moves the term by that much times its size
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    t = sympy.Symbol("t")
    terms = [sympy.Rational(11, 20) ** j * sympy.cos(3**j * sympy.pi * t) for j in range(16)]
    f = make_function("weier", max_derivative=3)
    x = np.random.default_rng(13).uniform(-1.0, 2.0, 300)
    freq = 3.0 ** np.arange(16) * np.pi
    eps = np.finfo(float).eps
    for k in (1, 2, 3):
        ref_fn = sympy.lambdify(t, sum(sympy.diff(term, t, k) for term in terms), "mpmath")
        with mpmath.workdps(30):
            ref = np.array([float(ref_fn(mpmath.mpf(v))) for v in x])
        size = (0.55 ** np.arange(16) * freq**k)[:, None]
        tol = eps * np.sum(size * (24 + 2 * freq[:, None] * np.abs(x)), axis=0)
        assert np.all(np.abs(f.derivatives[k - 1](x) - ref) <= tol)
        # the bound is far below the derivative's own scale
        assert np.max(tol) < 1e-6 * np.sum(size)


def test_bad_specs_rejected():
    for bad in ("abspow:0.3", "abspow:0.3,1.5", "abspow:a,b", "poly:", "poly:x", "nope"):
        with pytest.raises(InvalidConfig):
            make_function(bad)


def test_listing_names_parse():
    for name in ("sin", "cos", "exp", "poly:0,1", "abspow:0,1", "weier"):
        make_function(name)
