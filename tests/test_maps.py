import numpy as np
import pytest

from fif.errors import InvalidConfig
from fif.maps import SUP_SAMPLES, Partition, ScalingVector


def test_uniform_two_piece_maps():
    part = Partition.uniform(0.0, 1.0, 2)
    assert part.slopes.tolist() == [0.5, 0.5]
    assert part.intercepts.tolist() == [0.0, 0.5]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.5, 2.0)])
def test_uniform_pieces_share_one_slope(a, b):
    # the knots' rounded spacings differ in the last bit for most N, the
    # slopes may not: each is 1/N, and L_i still sends a, b to x_{i-1}, x_i
    for count in range(2, 11):
        part = Partition.uniform(a, b, count)
        assert set(part.slopes.tolist()) == {1.0 / count}
        ulp = np.spacing(max(abs(a), abs(b)))
        assert np.max(np.abs(part.slopes * a + part.intercepts - part.knots[:-1])) <= 2 * ulp
        assert np.max(np.abs(part.slopes * b + part.intercepts - part.knots[1:])) <= 4 * ulp


def test_nonuniform_slopes_and_intercepts():
    part = Partition(np.array([0.0, 0.25, 1.0]))
    assert part.slopes == pytest.approx([0.25, 0.75], abs=0)
    assert part.intercepts == pytest.approx([0.0, 0.25], abs=1e-15)
    assert not part.is_uniform
    assert Partition.uniform(0.0, 1.0, 4).is_uniform


@pytest.mark.parametrize("b", [1e-318, 1e-300])
def test_uniform_knots_stay_uniform_on_tiny_intervals(b):
    # the knots' subnormal spacings round apart by more than 1e-12 (b - a);
    # the tolerance also covers two ulps of the knots, no more, so spacings
    # a quarter and three quarters of b are still told apart
    assert Partition.uniform(0.0, b, 4).is_uniform
    assert Partition.uniform(0.0, b, 5).is_uniform
    assert not Partition(np.array([0.0, 0.25, 1.0]) * b).is_uniform


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.5, 2.0), (1000.0, 1000.001), (0.0, 1e-318)])
def test_linspace_knots_are_the_uniform_partition(a, b):
    # one construction path: knots built by hand give Partition.uniform's maps
    for count in range(2, 11):
        by_hand, uniform = Partition(np.linspace(a, b, count + 1)), Partition.uniform(a, b, count)
        for name in ("knots", "slopes", "intercepts"):
            assert getattr(by_hand, name).tobytes() == getattr(uniform, name).tobytes()
        assert by_hand.is_uniform == uniform.is_uniform
        # spacings an ulp of 1000 apart are uniform; subnormal ones may not be
        if b > 1e-300:
            assert uniform.is_uniform and set(uniform.slopes.tolist()) == {1.0 / count}


@pytest.mark.parametrize("a, b", [(0.0, 1e300), (1e200, 3e200), (-1e300, 5e299)])
def test_intercepts_stay_finite_on_huge_intervals(a, b):
    # a product of two knots overflows here; the maps need none
    with np.errstate(all="raise"):
        part = Partition.uniform(a, b, 4)
        knots = part.knots
        assert np.all(np.isfinite(part.intercepts))
        ulp = np.spacing(np.max(np.abs(knots)))
        at_a = part.slopes * knots[0] + part.intercepts  # L_i(x_0) = x_{i-1}
        at_b = part.slopes * knots[-1] + part.intercepts  # L_i(x_N) = x_i
    assert np.max(np.abs(at_a - knots[:-1])) <= 2 * ulp
    assert np.max(np.abs(at_b - knots[1:])) <= 4 * ulp


def test_slopes_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        knots = np.sort(rng.uniform(-3, 5, 7))
        if np.min(np.diff(knots)) < 1e-3:
            continue
        part = Partition(knots)
        assert abs(np.sum(part.slopes) - 1.0) <= 1e-12


def test_forward_inverse_round_trip():
    part = Partition(np.array([0.0, 0.2, 0.45, 1.0]))
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, 500)
    for i in range(1, part.size + 1):
        y = part.slopes[i - 1] * x + part.intercepts[i - 1]
        back = part.inverse(np.full_like(x, i, dtype=int), y)
        assert np.max(np.abs(back - x)) <= 1e-14


def test_internal_knots_belong_to_left_piece():
    part = Partition(np.array([0.0, 0.25, 1.0]))
    assert part.locate(np.array([0.25]))[0] == 1
    assert part.locate(np.array([0.250001]))[0] == 2
    assert part.locate(np.array([0.0]))[0] == 1
    assert part.locate(np.array([1.0]))[0] == 2


def test_partition_validation():
    with pytest.raises(InvalidConfig):
        Partition(np.array([0.0, 1.0]))  # a single piece is not a partition
    with pytest.raises(InvalidConfig):
        Partition(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(InvalidConfig):
        Partition(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(InvalidConfig):
        Partition.uniform(0.0, 1.0, 1)


def test_constant_scaling_basics():
    sv = ScalingVector.constant([0.3, -0.4, 0.2])
    assert sv.size == 3
    assert sv.is_constant
    assert sv.sup_norm == pytest.approx(0.4, abs=0)
    assert sv.kappa == pytest.approx(0.9, abs=1e-15)
    assert np.array_equal(sv.constants(), [0.3, -0.4, 0.2])
    # all constants: one column, which broadcasts against any points
    rows = sv.rows_at(np.linspace(0.0, 1.0, 5))
    assert rows.shape == (3, 1) and rows.ravel().tolist() == [0.3, -0.4, 0.2]


def test_broadcast_scaling():
    sv = ScalingVector.broadcast(0.25, 4)
    assert sv.size == 4
    assert np.array_equal(sv.constants(), [0.25] * 4)


def test_scaling_must_stay_contractive():
    with pytest.raises(InvalidConfig, match="< 1"):
        ScalingVector.constant([0.5, 1.0])
    with pytest.raises(InvalidConfig, match="< 1"):
        ScalingVector.constant([-1.2, 0.1])
    with pytest.raises(InvalidConfig, match="< 1"):
        ScalingVector([lambda x: 0.9 + 0.2 * np.asarray(x)], domain=(0.0, 1.0))


def test_function_scalings_report_sampled_sup():
    sv = ScalingVector(
        [lambda x: 0.1 + 0.3 * np.asarray(x), lambda x: 0.5 * np.ones_like(np.asarray(x))],
        domain=(0.0, 1.0),
    )
    assert not sv.is_constant
    assert sv.sup_norm == pytest.approx(0.5, abs=1e-9)
    assert sv.rows_at(np.linspace(0.0, 1.0, 5)).shape == (2, 5)
    with pytest.raises(InvalidConfig, match="constant scalings required"):
        sv.constants()


def test_values_at_dispatches_per_piece():
    sv = ScalingVector(
        [
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: 0.5 * np.asarray(x, dtype=float),
        ],
        domain=(0.0, 1.0),
    )
    idx = np.array([1, 1, 2, 2])
    x = np.array([0.1, 0.9, 0.1, 0.9])
    assert np.array_equal(sv.values_at(idx, x), [0.0, 0.0, 0.05, 0.45])


def mask_loop_values_at(sv, i, x):
    # reference: one mask pass and one call per piece, shared entries or not
    out = np.empty_like(x)
    for k, e in enumerate(sv.entries):
        mask = i == k + 1
        if not np.any(mask):
            continue
        if callable(e):
            out[mask] = np.broadcast_to(np.asarray(e(x[mask]), dtype=float), x[mask].shape)
        else:
            out[mask] = float(e)
    return out


def test_shared_scaling_function_is_called_once_per_use():
    sizes = []

    def shared(x):
        sizes.append(np.size(x))
        return 0.3 * np.sin(3.0 * np.asarray(x)) + 0.4

    other = lambda x: 0.2 + 0.1 * np.asarray(x)
    sv = ScalingVector([shared, 0.25, shared, other, shared, shared], domain=(0.0, 1.0))
    assert sizes == [SUP_SAMPLES]
    assert np.array_equal(sv.sup_norms[[0, 2, 4, 5]], np.full(4, sv.sup_norms[0]))
    assert sv.sup_norms[1] == 0.25
    rng = np.random.default_rng(5)
    i = rng.integers(1, 7, 10**5)
    x = rng.uniform(0.0, 1.0, i.size)
    sizes.clear()
    got = sv.values_at(i, x)
    assert sizes == [np.count_nonzero(np.isin(i, [1, 3, 5, 6]))]
    sizes.clear()
    want = mask_loop_values_at(sv, i, x)
    assert len(sizes) == 4
    assert got.tobytes() == want.tobytes()


def test_holder_contraction_hand_value():
    # max_i |alpha_i| / a_i^mu with a = (0.25, 0.75), alpha = (0.3, 0.3),
    # mu = 0.5: max(0.3/0.5, 0.3/0.8660...) = 0.6
    part = Partition(np.array([0.0, 0.25, 1.0]))
    sv = ScalingVector.constant([0.3, 0.3])
    assert sv.holder_contraction(part, 0.5) == pytest.approx(0.6, abs=1e-12)


def test_scaling_size_must_match_use():
    sv = ScalingVector.constant([0.3, 0.3])
    part = Partition.uniform(0.0, 1.0, 3)
    with pytest.raises(InvalidConfig):
        sv.holder_contraction(part, 0.5)
