import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittaker2d import (
    CellLabel,
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    TriangularConfiguration,
    classify,
    default_coincidence_eps,
    particle_rate,
    total_rate,
)
from whittaker2d._oracles import InfeasibleError, brute_force_local_rate

EPS = 1e-9


def _path(grid, f):
    return SamplePath.from_function(grid, f)


def _grid(m=64):
    return TimeGrid(0.0, 1.0, m)


# ---------------------------------------------------------------------------
# classification


def test_classify_all_interior():
    g = _grid()
    phi = SamplePath.constant(g, 0.0)
    upper = SamplePath.constant(g, 1.0)
    lower = SamplePath.constant(g, -1.0)
    labels = classify(phi, upper, lower, 1e-3)
    assert labels.shape == (g.steps,) and labels.dtype == np.int64
    assert np.all(labels == CellLabel.INTERIOR)
    assert not np.any(labels == CellLabel.CROSSING)


def test_classify_glued_lower():
    g = _grid()
    lower = _path(g, lambda t: 0.3 * t)
    labels = classify(lower, None, lower, 1e-3)
    assert np.all(labels == CellLabel.LOWER_COINCIDENT)
    measure = np.count_nonzero(labels == CellLabel.LOWER_COINCIDENT) * g.dt
    assert measure == pytest.approx(1.0)


def test_classify_crossing_above_upper():
    g = _grid()
    eps = 1e-3
    upper = SamplePath.constant(g, 0.0)
    vals = np.zeros(g.npoints)
    vals[20:30] = 5 * eps
    phi = SamplePath(g, vals)
    labels = classify(phi, upper, None, eps)
    assert np.any(labels == CellLabel.CROSSING)


def test_classify_missing_barriers_never_cross():
    g = _grid()
    phi = _path(g, lambda t: 100 * np.sin(9 * t))
    labels = classify(phi, None, None, 1e-6)
    assert np.all(labels == CellLabel.INTERIOR)


def test_classify_rejects_bad_eps_and_grids():
    g = _grid()
    phi = SamplePath.constant(g, 0.0)
    with pytest.raises(ValueError):
        classify(phi, None, None, 0.0)
    other = SamplePath.constant(TimeGrid(0.0, 1.0, 32), 0.0)
    with pytest.raises(ValueError):
        classify(phi, other, None, 1e-3)


def test_default_eps_scale():
    assert default_coincidence_eps(1e-4, 4.0) == pytest.approx(
        2.0 * np.sqrt(1e-4 / 4.0)
    )


# ---------------------------------------------------------------------------
# local rates: the three canonical examples and their mirrors


def test_lower_free_ascent_costs_half():
    g = _grid(1000)
    phi = _path(g, lambda t: t)
    lower = SamplePath.constant(g, 0.0)
    assert particle_rate(phi, None, lower, 1e-6) == pytest.approx(
        0.5, rel=1e-9
    )


def test_lower_glued_rising_is_free():
    g = _grid(1000)
    phi = _path(g, lambda t: t)
    assert particle_rate(phi, None, phi, 1e-6) == 0.0


def test_lower_glued_falling_costs_half():
    g = _grid(1000)
    phi = _path(g, lambda t: -t)
    assert particle_rate(phi, None, phi, 1e-6) == pytest.approx(0.5, rel=1e-9)


def test_upper_glued_falling_is_free():
    g = _grid(1000)
    phi = _path(g, lambda t: -t)
    assert particle_rate(phi, phi, None, 1e-6) == 0.0


def test_upper_glued_rising_costs_half():
    g = _grid(1000)
    phi = _path(g, lambda t: t)
    assert particle_rate(phi, phi, None, 1e-6) == pytest.approx(0.5, rel=1e-9)


def test_crossing_is_infinite():
    g = _grid()
    phi = SamplePath.constant(g, -1.0)
    lower = SamplePath.constant(g, 0.0)
    assert particle_rate(phi, None, lower, 1e-3) == np.inf


def test_time_reversal_duality():
    rng = np.random.default_rng(0)
    g = _grid(64)
    for _ in range(20):
        phi_v = np.cumsum(rng.normal(0, 0.1, g.npoints))
        low_v = np.minimum.accumulate(phi_v) - rng.uniform(0, 0.1)
        phi = SamplePath(g, phi_v)
        low = SamplePath(g, low_v)
        a = particle_rate(phi, None, low, 1e-6)
        b = particle_rate(
            SamplePath(g, -phi_v), SamplePath(g, -low_v), None, 1e-6
        )
        assert a == pytest.approx(b, rel=1e-12)


def test_convention_flag_swaps_one_sided_costs():
    g = _grid(1000)
    rising = _path(g, lambda t: t)
    # a rising path glued to its lower barrier is free
    assert particle_rate(rising, None, rising, 1e-6) == 0.0


# ---------------------------------------------------------------------------
# particle and total rates


def test_schilder_examples():
    g = _grid(1000)
    flat, line = SamplePath.constant(g, 0.3), _path(g, lambda t: t)
    assert particle_rate(flat, None, None, EPS, 0.3) == 0.0
    assert particle_rate(line, None, None, EPS, 0.0) == pytest.approx(
        0.5, rel=1e-9
    )
    assert particle_rate(line, None, None, EPS, 0.5) == np.inf


def test_particle_rate_no_barriers_is_schilder():
    g = _grid(200)
    phi = _path(g, lambda t: 0.7 * t)
    assert particle_rate(phi, None, None, 1e-6, 0.0) == pytest.approx(
        0.49 / 2, rel=1e-9
    )
    assert particle_rate(phi, None, None, 1e-6, 0.0) == particle_rate(
        phi, None, None, EPS, 0.0
    )


def test_particle_rate_initial_mismatch():
    g = _grid()
    phi = SamplePath.constant(g, 1.0)
    assert particle_rate(phi, None, None, 1e-6, 0.0) == np.inf


def test_schilder_domination():
    rng = np.random.default_rng(1)
    g = _grid(64)
    for _ in range(30):
        phi_v = np.cumsum(rng.normal(0, 0.1, g.npoints))
        phi_v -= phi_v[0]
        low_v = np.minimum.accumulate(phi_v)
        phi = SamplePath(g, phi_v)
        r = particle_rate(phi, None, SamplePath(g, low_v), 1e-6, 0.0)
        assert r <= particle_rate(phi, None, None, EPS, 0.0) + 1e-12


def test_total_rate_constant_bundle_is_zero():
    g = _grid()
    init = TriangularConfiguration(2, np.array([0.0, 1.0, -1.0]))
    cfg = ModelConfig(N=2, gamma=8.0, initial=init)
    bundle = PathBundle.constant(2, g, init)
    br = total_rate(bundle, cfg, 1e-6)
    assert br.total == 0.0
    assert br.infinity_reason == "none"


def test_total_rate_linear_bundle_schilder_sum():
    g = _grid(500)
    init = TriangularConfiguration(2, np.array([0.0, 2.0, -2.0]))
    end = TriangularConfiguration(2, np.array([0.5, 2.2, -1.9]))
    cfg = ModelConfig(N=2, gamma=8.0, initial=init)
    bundle = PathBundle.linear(2, g, init, end)
    slopes = end.entries - init.entries
    br = total_rate(bundle, cfg, 1e-6)
    assert br.total == pytest.approx(np.sum(slopes**2) / 2, rel=1e-9)


def test_total_rate_additivity():
    g = _grid(100)
    init = TriangularConfiguration(2, np.array([0.0, 1.0, -1.0]))
    end = TriangularConfiguration(2, np.array([0.3, 1.5, -0.5]))
    cfg = ModelConfig(N=2, gamma=8.0, initial=init)
    bundle = PathBundle.linear(2, g, init, end)
    br = total_rate(bundle, cfg, 1e-6)
    assert br.total == pytest.approx(
        sum(t.total for t in br.terms.values()), rel=1e-12
    )


def test_total_rate_crossing_sentinel():
    g = _grid(100)
    init = TriangularConfiguration.zeros(2)
    # lower-right particle climbs above the top particle: order violated
    end = TriangularConfiguration(2, np.array([-0.5, 0.5, 0.5]))
    cfg = ModelConfig(N=2, gamma=8.0, initial=init)
    bundle = PathBundle.linear(2, g, init, end)
    br = total_rate(bundle, cfg, 1e-4)
    assert br.total == np.inf
    assert br.infinity_reason == "crossing"
    assert br.offending is not None
    # eps is checked before any row is scored
    with pytest.raises(ValueError):
        total_rate(bundle, cfg, -1e-4)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_total_rate_rejects_non_finite_eps(eps):
    # under a NaN eps no cell is glued or crossing, under an infinite one
    # every cell is glued: either way the crossing bundle would score finite
    g = _grid(100)
    init = TriangularConfiguration.zeros(2)
    end = TriangularConfiguration(2, np.array([-0.5, 0.5, 0.5]))
    cfg = ModelConfig(N=2, gamma=8.0, initial=init)
    bundle = PathBundle.linear(2, g, init, end)
    with pytest.raises(ValueError, match="eps"):
        total_rate(bundle, cfg, eps)


def test_total_rate_initial_mismatch_sentinel():
    g = _grid(100)
    init = TriangularConfiguration.zeros(2)
    cfg = ModelConfig(N=2, gamma=8.0, initial=init)
    shifted = TriangularConfiguration(2, np.array([1.0, 2.0, 0.5]))
    bundle = PathBundle.constant(2, g, shifted)
    br = total_rate(bundle, cfg, 1e-6)
    assert br.total == np.inf
    assert br.infinity_reason == "initial-mismatch"


def test_total_rate_rejects_mismatched_n():
    g = _grid(10)
    cfg = ModelConfig(
        N=1, gamma=8.0, initial=TriangularConfiguration.zeros(1)
    )
    bundle = PathBundle.constant(
        2, g, TriangularConfiguration.zeros(2)
    )
    with pytest.raises(ValueError):
        total_rate(bundle, cfg, 1e-6)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_oracle_inactive_barrier():
    g = _grid(64)
    phi = _path(g, lambda t: t)
    lower = SamplePath.constant(g, -1.0)
    got = brute_force_local_rate(phi, lower, 1e-6)
    assert got == pytest.approx(0.5, rel=1e-3)


def test_oracle_free_ascent():
    g = _grid(64)
    phi = _path(g, lambda t: t)
    assert brute_force_local_rate(phi, phi, 1e-6) == pytest.approx(
        0.0, abs=1e-6
    )


def test_oracle_descent_cost():
    g = _grid(64)
    phi = _path(g, lambda t: -t)
    assert brute_force_local_rate(phi, phi, 1e-6) == pytest.approx(
        0.5, rel=1e-3
    )


def test_oracle_matches_direct_rate_mixed_patterns():
    rng = np.random.default_rng(7)
    g = _grid(64)
    for _ in range(10):
        knots = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 4))))
        bvals = np.interp(
            g.times, knots, rng.uniform(-0.5, 0.5, knots.size)
        )
        lower = SamplePath(g, bvals)
        driver = SamplePath(
            g,
            np.interp(
                g.times, knots, rng.uniform(-0.5, 0.5, knots.size)
            ),
        )
        from whittaker2d import reflect_above

        phi = reflect_above(driver, lower, float(bvals[0]) + 0.1).path
        direct = particle_rate(phi, None, lower, 1e-9)
        oracle = brute_force_local_rate(phi, lower, 1e-9)
        assert oracle == pytest.approx(direct, rel=1e-3, abs=1e-6)


def test_oracle_infeasible_on_crossing():
    g = _grid(32)
    phi = SamplePath.constant(g, -1.0)
    lower = SamplePath.constant(g, 0.0)
    with pytest.raises(InfeasibleError):
        brute_force_local_rate(phi, lower, 1e-6)


def test_oracle_rejects_fine_grids():
    g = TimeGrid(0.0, 1.0, 500)
    phi = SamplePath.constant(g, 1.0)
    lower = SamplePath.constant(g, 0.0)
    with pytest.raises(ValueError):
        brute_force_local_rate(phi, lower, 1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16))
def test_rates_are_nonnegative(seed):
    rng = np.random.default_rng(seed)
    g = _grid(32)
    phi_v = np.cumsum(rng.normal(0, 0.2, g.npoints))
    low_v = phi_v - np.abs(rng.normal(0, 0.2, g.npoints))
    r = particle_rate(SamplePath(g, phi_v), None, SamplePath(g, low_v), 1e-6)
    assert r >= 0.0
