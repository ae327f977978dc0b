import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fif.kernels import (
    UNBOUNDED_ORDER,
    SigmoidalKernel,
    _polyval,
    _transition_poly,
    kernel_from_name,
    ramp,
    sigma_eval,
    smooth_bump,
    smoothstep,
    transition,
    xi_derivative,
    xi_eval,
)

ALL_FAMILIES = [ramp(), smoothstep(1), smoothstep(3), smooth_bump()]


def ids(kernels):
    return [f"smoothstep:{k.order}" if k.family == "smoothstep" else k.family
            for k in kernels]


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_sigma_saturates_exactly(kernel):
    # not "close to": the flat tails must be bit-exact 0 and 1, the window
    # algebra downstream relies on it
    m = kernel.m
    left = sigma_eval(kernel, np.array([-10.0, -2 * m, -m - 1e-9, -m]))
    right = sigma_eval(kernel, np.array([m, m + 1e-9, 2 * m, 10.0]))
    assert np.all(left == 0.0)
    assert np.all(right == 1.0)


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_sigma_monotone_and_half_at_center(kernel):
    x = np.linspace(-kernel.m, kernel.m, 10**4)
    s = sigma_eval(kernel, x)
    assert np.all(np.diff(s) >= -1e-15)
    assert abs(sigma_eval(kernel, 0.0) - 0.5) <= 1e-12


def test_ramp_sigma_is_clipped_line():
    kernel = ramp()
    x = np.linspace(-2, 2, 4001)
    oracle = np.clip((x + 0.5) / 1.0, 0.0, 1.0)
    assert np.max(np.abs(sigma_eval(kernel, x) - oracle)) == 0.0


def test_smoothstep1_frozen_values():
    # cubic 3t^2 - 2t^3 at t = 0.75, hand-evaluated
    kernel = smoothstep(1)
    assert sigma_eval(kernel, 0.25) == pytest.approx(0.84375, abs=1e-15)
    assert sigma_eval(kernel, -0.25) == pytest.approx(0.15625, abs=1e-15)


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_window_monotone_up_then_down(kernel):
    m = kernel.m
    up = xi_eval(kernel, np.linspace(-2 * m, 0.0, 10**4))
    down = xi_eval(kernel, np.linspace(0.0, 2 * m, 10**4))
    assert np.all(np.diff(up) >= -1e-15)
    assert np.all(np.diff(down) <= 1e-15)


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_window_support(kernel):
    m = kernel.m
    x = np.array([-100.0, -2 * m - 1e-12, -2 * m, 2 * m, 2 * m + 1e-12, 100.0])
    assert np.all(xi_eval(kernel, x) == 0.0)
    inside = xi_eval(kernel, np.linspace(-2 * m * 0.9, 2 * m * 0.9, 101))
    assert np.all(inside > 0.0)


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_window_symmetry(kernel):
    x = np.linspace(0.0, 2 * kernel.m, 10**4)
    assert np.max(np.abs(xi_eval(kernel, x) - xi_eval(kernel, -x))) <= 1e-12


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_window_shifts_sum_to_one(kernel):
    m = kernel.m
    x = np.linspace(0.0, 2 * m, 10**4)
    total = xi_eval(kernel, x) + xi_eval(kernel, x - 2 * m)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@given(t=st.floats(0.0, 1.0), order=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_window_shift_sum_property(t, order):
    kernel = smoothstep(order) if order else ramp()
    x = t * 2 * kernel.m
    assert abs(xi_eval(kernel, x) + xi_eval(kernel, x - 2 * kernel.m) - 1.0) <= 1e-12


def test_order_zero_derivative_is_window():
    kernel = smoothstep(2)
    x = np.linspace(-1.2, 1.2, 501)
    assert np.array_equal(xi_derivative(kernel, 0, x), xi_eval(kernel, x))


@pytest.mark.parametrize("profile_order", [1, 2, 3])
def test_smoothstep_window_derivative_matches_fd(profile_order):
    kernel = smoothstep(profile_order)
    x = np.linspace(-0.95, 0.95, 401)
    s = 1e-6
    for j in range(1, profile_order + 1):
        lower = xi_derivative(kernel, j - 1, x)
        fd = (xi_derivative(kernel, j - 1, x + s) - xi_derivative(kernel, j - 1, x - s)) / (2 * s)
        exact = xi_derivative(kernel, j, x)
        scale = np.max(np.abs(exact)) + np.max(np.abs(lower))
        assert np.max(np.abs(fd - exact)) <= 1e-5 * scale


def test_bump_window_derivative_matches_fd():
    kernel = smooth_bump()
    # stay clear of the flat tails so the difference quotient sees the
    # analytic branch on both sides
    x = np.linspace(-0.9, 0.9, 181)
    s = 1e-6
    for j in (1, 2, 3, 4):
        fd = (xi_derivative(kernel, j - 1, x + s) - xi_derivative(kernel, j - 1, x - s)) / (2 * s)
        exact = xi_derivative(kernel, j, x)
        scale = max(np.max(np.abs(exact)), 1.0)
        assert np.max(np.abs(fd - exact)) <= 2e-4 * scale


def test_bump_transition_matches_symbolic_derivatives():
    # the closed-form logistic jet against sympy's derivative of the profile
    # written as exp(-1/t) / (exp(-1/t) + exp(-1/(1-t)))
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    g, h = sympy.exp(-1 / t), sympy.exp(-1 / (1 - t))
    x = np.linspace(1.5e-3, 1.0 - 1.5e-3, 4001)[1:-1]
    for d in range(8):
        ref = sympy.lambdify(t, sympy.diff(g / (g + h), t, d), modules="numpy")(x)
        got = transition(smooth_bump(), d, x)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), d


@pytest.mark.parametrize("order", range(5))
def test_polynomial_profiles_equal_the_polynomial_call(order):
    # polyval on the power-basis coefficients, bit for bit what calling the
    # numpy Polynomial (which first maps its domain onto itself) gives
    t = np.random.default_rng(order).random(10**5)
    poly = np.polynomial.Polynomial(_transition_poly(order, 0))
    kernels = [smoothstep(order)] + ([ramp()] if order == 0 else [])
    for kernel in kernels:
        for d in range(order + 1):
            assert np.array_equal(transition(kernel, d, t), poly.deriv(d)(t)), d


@pytest.mark.parametrize("coef", [
    [-0.0], [1.0, -0.0], [3.0, 0.0, -0.0],
    np.random.default_rng(7).standard_normal(8),  # degree 7
], ids=["neg-zero", "1,-0", "3,0,-0", "degree-7"])
def test_in_place_horner_is_bitwise_polyval(coef):
    # the same steps as numpy's, c[-1] + x*0 first, so signed zeros agree
    coef = np.asarray(coef)
    x = np.concatenate([[0.0, -0.0, -1.0, -1e-300, -3.5, 2.0],
                        np.random.default_rng(8).uniform(-4.0, 4.0, 1000)])
    ref = np.polynomial.polynomial.polyval
    assert _polyval(x, coef).tobytes() == ref(x, coef).tobytes()
    for t in (0.0, -0.0, -2.0, np.float64(-0.5)):
        got, want = _polyval(t, coef), ref(t, coef)
        assert type(got) is type(want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_transition_is_flat_outside_its_band(kernel):
    t = np.array([-1.0, 0.0, 1e-4, 1.0 - 1e-4, 1.0, 2.0])
    value = transition(kernel, 0, t)
    assert np.array_equal(value[[0, 1, 4, 5]], [0.0, 0.0, 1.0, 1.0])
    for d in range(1, min(kernel.smoothness, 3) + 1):
        assert np.all(transition(kernel, d, t)[[0, 1, 4, 5]] == 0.0)


def test_smoothness_budget():
    assert ramp().smoothness == 0
    assert smoothstep(3).smoothness == 3
    assert smooth_bump().smoothness == UNBOUNDED_ORDER
    with pytest.raises(ValueError, match="insufficient kernel smoothness"):
        xi_derivative(ramp(), 1, 0.1)
    with pytest.raises(ValueError, match="insufficient kernel smoothness"):
        xi_derivative(smoothstep(1), 2, 0.1)
    # unbounded family takes high orders without complaint
    xi_derivative(smooth_bump(), 6, 0.1)


def test_scalar_in_float_out():
    kernel = ramp()
    out = xi_eval(kernel, 0.3)
    assert isinstance(out, float)
    assert isinstance(sigma_eval(kernel, -0.1), float)


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        xi_eval(ramp(), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        sigma_eval(smoothstep(1), np.inf)


def test_kernel_from_name():
    assert kernel_from_name("ramp").family == "ramp"
    assert kernel_from_name("smoothstep:3").order == 3
    assert kernel_from_name("bump").family == "bump"
    for name in ("gaussian", "smoothbump"):
        with pytest.raises(ValueError, match="unknown kernel family"):
            kernel_from_name(name)
    with pytest.raises(ValueError):
        kernel_from_name("smoothstep:-1")


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_half_width_is_a_fixed_half(kernel):
    # no output depends on the half-width, so it is a constant, not a field
    assert kernel.m == SigmoidalKernel.m == 0.5
    assert [f.name for f in dataclasses.fields(kernel)] == ["family", "order"]
    with pytest.raises(TypeError):
        SigmoidalKernel(kernel.family, kernel.order, 0.25)
    for factory, args in ((ramp, ()), (smoothstep, (1,)), (smooth_bump, ()),
                          (kernel_from_name, ("ramp",))):
        with pytest.raises(TypeError):
            factory(*args, m=0.5)
    # sigma is P(x + 1/2) and the window P(x + 1) - P(x), bit for bit
    x = np.linspace(-1.5, 1.5, 3001)
    assert np.array_equal(sigma_eval(kernel, x), transition(kernel, 0, x + 0.5))
    for d in range(min(kernel.smoothness, 2) + 1):
        window = transition(kernel, d, x + 1.0) - transition(kernel, d, x)
        assert np.array_equal(xi_derivative(kernel, d, x), window)
