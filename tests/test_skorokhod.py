import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittaker2d import (
    SamplePath,
    TimeGrid,
    reflect_above,
    reflect_below,
    smoothed_reflection_term,
)
from whittaker2d.skorokhod import running_sup_plus


def _random_pair(rng, grid, scale=1.0):
    psi = SamplePath(grid, np.cumsum(rng.normal(0, scale * 0.1, grid.npoints)))
    barrier = SamplePath(
        grid, np.cumsum(rng.normal(0, scale * 0.1, grid.npoints)) - 0.5
    )
    return psi, barrier


def test_monotone_barrier_example():
    grid = TimeGrid(0.0, 1.0, 100)
    psi = SamplePath.constant(grid, 0.0)
    barrier = SamplePath.from_function(grid, lambda t: t - 0.5)
    out = reflect_above(psi, barrier, 0.0)
    np.testing.assert_allclose(
        out.path.values, np.maximum(grid.times - 0.5, 0.0), atol=1e-14
    )


def test_inactive_barrier_is_identity():
    grid = TimeGrid(0.0, 1.0, 128)
    rng = np.random.default_rng(0)
    psi = SamplePath(grid, 0.9 * np.sin(5 * grid.times) * rng.uniform(0.5, 1))
    barrier = SamplePath.constant(grid, -1.0)
    out = reflect_above(psi, barrier, psi.values[0])
    np.testing.assert_array_equal(out.path.values, psi.values)
    np.testing.assert_array_equal(out.push_term.values, 0.0)


def test_matches_quadratic_scan():
    rng = np.random.default_rng(1)
    grid = TimeGrid(0.0, 1.0, 128)
    psi, barrier = _random_pair(rng, grid)
    start = 0.2
    out = reflect_above(psi, barrier, start)
    c = start - psi.values[0]
    excess = barrier.values - psi.values - c
    brute = np.array(
        [
            c + psi.values[i] + max(0.0, max(excess[: i + 1]))
            for i in range(grid.npoints)
        ]
    )
    np.testing.assert_allclose(out.path.values, brute, atol=1e-14)


def test_mirror_identity():
    rng = np.random.default_rng(2)
    grid = TimeGrid(0.0, 1.0, 64)
    for _ in range(20):
        psi, barrier = _random_pair(rng, grid)
        s = rng.normal()
        below = reflect_below(psi, barrier, s)
        neg_psi = SamplePath(grid, -psi.values)
        neg_bar = SamplePath(grid, -barrier.values)
        above = reflect_above(neg_psi, neg_bar, -s)
        np.testing.assert_allclose(
            below.path.values, -above.path.values, atol=1e-12
        )


def test_barrier_domination_and_push_monotonicity():
    rng = np.random.default_rng(3)
    grid = TimeGrid(0.0, 1.0, 256)
    for _ in range(50):
        psi, barrier = _random_pair(rng, grid)
        start = max(barrier.values[0], psi.values[0]) + rng.uniform(0, 0.2)
        out = reflect_above(psi, barrier, start)
        assert np.all(out.path.values >= barrier.values - 1e-12)
        push = out.push_term.values
        assert np.all(np.diff(push) >= -1e-15)
        assert push[0] == pytest.approx(
            max(barrier.values[0] - start, 0.0), abs=1e-14
        )
        assert out.path.values[0] == pytest.approx(
            max(start, barrier.values[0]), abs=1e-14
        )


def test_lipschitz_one_in_barrier():
    rng = np.random.default_rng(4)
    grid = TimeGrid(0.0, 1.0, 256)
    for _ in range(50):
        psi, b1 = _random_pair(rng, grid)
        b2 = SamplePath(grid, b1.values + rng.normal(0, 0.2, grid.npoints))
        o1 = reflect_above(psi, b1, 0.0)
        o2 = reflect_above(psi, b2, 0.0)
        gap = np.max(np.abs(o1.path.values - o2.path.values))
        assert gap <= np.max(np.abs(b1.values - b2.values)) + 1e-12


def test_grid_mismatch_rejected():
    g1 = TimeGrid(0.0, 1.0, 10)
    g2 = TimeGrid(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        reflect_above(
            SamplePath.constant(g1, 0.0), SamplePath.constant(g2, 0.0), 0.0
        )


@pytest.mark.parametrize("start", [np.nan, np.inf, -np.inf])
def test_non_finite_start_rejected(start):
    path = SamplePath.constant(TimeGrid(0.0, 1.0, 10), 0.0)
    for op in (reflect_above, reflect_below):
        with pytest.raises(ValueError, match=f"^start must be finite, got "
                                             f"{start}$"):
            op(path, path, start)


def test_running_sup_plus_active_set():
    values = np.array([-1.0, 0.5, 0.2, 0.5, 0.7])
    sup, active = running_sup_plus(values)
    np.testing.assert_array_equal(sup, [0.0, 0.5, 0.5, 0.5, 0.7])
    # active where the unclipped running max is (re)attained at a
    # nonnegative value
    np.testing.assert_array_equal(active, [False, True, False, True, True])


def test_smoothing_far_negative_barrier():
    grid = TimeGrid(0.0, 1.0, 1000)
    h = SamplePath.constant(grid, -5.0)
    v_gamma, v_inf = smoothed_reflection_term(h, 10.0)
    np.testing.assert_array_equal(v_inf.values, 0.0)
    assert v_gamma.values[-1] == pytest.approx(
        np.log1p(10.0 * np.exp(-50.0)) / 10.0, rel=1e-6
    )
    assert v_gamma.values[-1] < 1e-12


def test_smoothing_upper_bound_linear_case():
    grid = TimeGrid(0.0, 1.0, 2000)
    h = SamplePath.from_function(grid, lambda t: t)
    gamma = 20.0
    v_gamma, v_inf = smoothed_reflection_term(h, gamma)
    assert v_inf.values[-1] == pytest.approx(1.0)
    bound = np.log1p(gamma) / gamma
    assert bound == pytest.approx(0.1522, abs=1e-4)
    assert v_gamma.values[-1] <= v_inf.values[-1] + bound
    assert v_gamma.values[-1] > v_inf.values[-1] - 0.2


def test_smoothing_pointwise_bound_random():
    rng = np.random.default_rng(5)
    grid = TimeGrid(0.0, 1.0, 512)
    for gamma in (8.0, 32.0, 128.0):
        for _ in range(20):
            h = SamplePath(grid, np.cumsum(rng.normal(0, 0.05, grid.npoints)))
            v_gamma, v_inf = smoothed_reflection_term(h, gamma)
            assert np.all(
                v_gamma.values <= v_inf.values + np.log1p(gamma) / gamma + 1e-12
            )


def test_smoothing_converges_in_gamma():
    # piecewise-linear inputs: rough (Brownian-like) paths can wiggle a few
    # 1e-3 at adjacent gamma levels, smooth ones converge monotonically
    rng = np.random.default_rng(6)
    grid = TimeGrid(0.0, 1.0, 512)
    for _ in range(10):
        knots_t = np.sort(np.concatenate(([0, 1], rng.uniform(0, 1, 5))))
        knots_v = rng.uniform(-1, 1, knots_t.size)
        h = SamplePath(grid, np.interp(grid.times, knots_t, knots_v))
        sups = []
        for gamma in (8.0, 16.0, 32.0, 64.0):
            v_gamma, v_inf = smoothed_reflection_term(h, gamma)
            sups.append(np.max(np.abs(v_gamma.values - v_inf.values)))
        assert all(b <= a + 1e-6 for a, b in zip(sups, sups[1:]))


def test_smoothing_rejects_bad_gamma():
    grid = TimeGrid(0.0, 1.0, 10)
    for gamma in [0.0, -1.0, np.nan, np.inf]:
        with pytest.raises(ValueError, match="gamma"):
            smoothed_reflection_term(SamplePath.constant(grid, 0.0), gamma)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**16))
def test_reflection_path_decomposition(seed):
    # path = offset + driver + push at every grid point
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 32)
    psi, barrier = _random_pair(rng, grid)
    start = float(rng.normal())
    out = reflect_above(psi, barrier, start)
    c = start - psi.values[0]
    np.testing.assert_allclose(
        out.path.values,
        c + psi.values + out.push_term.values,
        atol=1e-12,
    )
