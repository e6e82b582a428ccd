import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from whittaker2d import (
    ModelConfig,
    PathBundle,
    TimeGrid,
    Topology,
    TriangularConfiguration,
    ensemble_scan,
    equivalence_experiment,
    interlace_event_frequency,
    ldp_slope,
    smallball_probability,
    wilson_interval,
)
from whittaker2d.mc import DegenerateFitError, EmptySampleError
from whittaker2d.noise import ensemble_increments


def _flat_target(N, grid):
    return PathBundle.constant(N, grid, TriangularConfiguration.zeros(N))


def _cfg(N, gamma, **kw):
    return ModelConfig(
        N=N, gamma=gamma, initial=TriangularConfiguration.zeros(N), **kw
    )


def bm_stay_probability(a, terms=50):
    """P(sup |B| <= a on [0,1]) by the reflection series."""
    total = 0.0
    for k in range(-terms, terms + 1):
        total += (-1) ** k * (ndtr((2 * k + 1) * a) - ndtr((2 * k - 1) * a))
    return total


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-15) and hi0 > 0.0
    with pytest.raises(EmptySampleError):
        wilson_interval(0, 0)


def test_smallball_reproducible_bitwise():
    grid = TimeGrid(0.0, 1.0, 200)
    phi = _flat_target(1, grid)
    a = smallball_probability(_cfg(1, 4.0), phi, 0.8, 3000, seed=9)
    b = smallball_probability(_cfg(1, 4.0), phi, 0.8, 3000, seed=9)
    assert a == b


def test_smallball_worker_count_invariance():
    grid = TimeGrid(0.0, 1.0, 200)
    phi = _flat_target(2, grid)
    a = smallball_probability(
        _cfg(2, 8.0), phi, 0.8, 2000, seed=3, batch_size=300, n_workers=1
    )
    b = smallball_probability(
        _cfg(2, 8.0), phi, 0.8, 2000, seed=3, batch_size=300, n_workers=4
    )
    assert a == b


def test_smallball_monotone_in_delta():
    grid = TimeGrid(0.0, 1.0, 200)
    phi = _flat_target(1, grid)
    cfg = _cfg(1, 2.0)
    p = [
        smallball_probability(cfg, phi, d, 4000, seed=5).p_hat
        for d in (0.3, 0.6, 1.2)
    ]
    assert p[0] <= p[1] <= p[2]


def test_smallball_matches_brownian_oracle():
    # flat target: the scaled deviation sup is a standard BM sup, and
    # delta sqrt(gamma) = 0.3 * 4 = 1.2
    grid = TimeGrid(0.0, 1.0, 1000)
    phi = _flat_target(1, grid)
    est = smallball_probability(_cfg(1, 16.0), phi, 0.3, 40000, seed=77)
    expect = bm_stay_probability(1.2)
    assert expect == pytest.approx(0.5404, abs=2e-4)
    # grid sup understates the continuous sup, so allow a small upward bias
    assert est.p_hat == pytest.approx(expect, abs=0.02)
    assert est.ci_low < expect + 0.02
    assert est.clamp_contamination == 0.0
    assert est.trusted


def test_smallball_rejects_empty_and_mismatch():
    grid = TimeGrid(0.0, 1.0, 10)
    phi = _flat_target(1, grid)
    with pytest.raises(EmptySampleError):
        smallball_probability(_cfg(1, 1.0), phi, 0.5, 0, seed=1)
    with pytest.raises(ValueError):
        smallball_probability(_cfg(2, 1.0), phi, 0.5, 10, seed=1)


def test_contamination_marks_untrusted():
    # a tiny drift cap clamps the glued edge pushes on every step
    grid = TimeGrid(0.0, 1.0, 50)
    phi = _flat_target(2, grid)
    est = smallball_probability(
        _cfg(2, 8.0, drift_cap=1e-6), phi, 5.0, 200, seed=2
    )
    assert est.clamp_contamination == 1.0
    assert not est.trusted


def test_ldp_slope_requires_three_gammas():
    grid = TimeGrid(0.0, 1.0, 100)
    phi = _flat_target(1, grid)
    with pytest.raises(ValueError):
        ldp_slope(_cfg(1, 4.0), phi, 0.5, [4.0, 8.0], 100, seed=1)


def test_ldp_slope_degenerate_when_no_hits():
    grid = TimeGrid(0.0, 1.0, 100)
    # unreachable target: constant 50 while the process starts at 0
    far = PathBundle.constant(
        1, grid, TriangularConfiguration(1, np.array([50.0]))
    )
    with pytest.raises(DegenerateFitError):
        ldp_slope(_cfg(1, 4.0), far, 0.1, [4.0, 8.0, 16.0], 50, seed=1)


def test_ldp_slope_sentinel_and_fit():
    grid = TimeGrid(0.0, 1.0, 100)
    phi = _flat_target(1, grid)
    fit = ldp_slope(
        _cfg(1, 4.0), phi, 0.6, [4.0, 8.0, 16.0], 2000, seed=4
    )
    assert np.all(np.isfinite(fit.minus_log_p))
    assert np.all(fit.usable)
    assert fit.predicted_rate == 0.0  # flat target costs nothing
    # staying near the flat target gets easier as noise shrinks
    p = [r.p_hat for r in fit.results]
    assert p[0] < p[-1]
    assert fit.slope < 0.1


def _crossing_target(grid):
    # the criterion-8 target: levels 1 and 2 cross, so the N=2 triangle
    # clamps its drift on the way
    end = TriangularConfiguration(2, np.array([-0.2125, 0.1, 0.2125]))
    return PathBundle.linear(2, grid, TriangularConfiguration.zeros(2), end)


@pytest.mark.parametrize("N", [1, 2])
def test_ldp_slope_results_equal_smallball(N):
    # one draw per batch scores every gamma exactly as a separate
    # smallball_probability call at that gamma would
    if N == 1:
        grid = TimeGrid(0.0, 1.0, 200)
        phi = PathBundle.linear(
            1, grid, TriangularConfiguration.zeros(1),
            TriangularConfiguration(1, np.array([0.5])),
        )
        delta, gammas = 0.3, [4.0, 8.0, 16.0]
    else:
        grid = TimeGrid(0.0, 0.25, 100)
        phi = _crossing_target(grid)
        delta, gammas = 0.4, [2.0, 4.0, 8.0]
    fit = ldp_slope(
        _cfg(N, 4.0), phi, delta, gammas, 600, seed=3, batch_size=250
    )
    for g, r in zip(gammas, fit.results):
        alone = smallball_probability(
            _cfg(N, g), phi, delta, 600, seed=3, batch_size=250
        )
        assert r == alone
        assert r.hits > 0
    if N == 2:
        assert all(r.clamp_contamination > 0 for r in fit.results)


def test_ldp_slope_worker_count_invariance():
    grid = TimeGrid(0.0, 0.25, 100)
    phi = _crossing_target(grid)
    fits = [
        ldp_slope(_cfg(2, 4.0), phi, 0.4, [2.0, 4.0, 8.0], 600, seed=5,
                  batch_size=250, n_workers=workers)
        for workers in (1, 2)
    ]
    assert fits[0].results == fits[1].results
    assert fits[0].slope == fits[1].slope


def test_interlace_frequencies_margin_monotonicity():
    freqs = interlace_event_frequency(
        [16.0], 400, seed=6, dt=1e-2, margin_scale=1.0
    )
    wide = interlace_event_frequency(
        [16.0], 400, seed=6, dt=1e-2, margin_scale=10.0
    )
    f, fw = freqs[0], wide[0]
    assert fw.a_violation <= f.a_violation
    assert fw.b_violation <= f.b_violation
    assert fw.c_violation <= f.c_violation
    assert f.margins.f == pytest.approx(1.0 / 4.0)
    assert f.margins.g == pytest.approx(2.0 / 4.0)


def test_interlace_frequencies_reproducible():
    a = interlace_event_frequency([16.0, 32.0], 200, seed=8, dt=1e-2)
    b = interlace_event_frequency([16.0, 32.0], 200, seed=8, dt=1e-2)
    assert a == b


def test_equivalence_budget_and_zero_violations():
    grid = TimeGrid(0.0, 1.0, 1000)
    rep = equivalence_experiment(32.0, 0.5, grid, 300, seed=11)
    assert rep.budget == pytest.approx(np.exp(-8.0), rel=1e-12)
    assert rep.n_in_tube > 0
    assert rep.n_violations == 0
    assert rep.max_gap_in_tube <= rep.budget


def test_equivalence_degenerate_eta():
    # clearance zero: the tube may be empty, the report stays well defined
    grid = TimeGrid(0.0, 1.0, 200)
    rep = equivalence_experiment(8.0, 0.0, grid, 100, seed=12)
    assert 0 <= rep.n_in_tube <= 100
    assert rep.violation_fraction >= 0.0
    with pytest.raises(ValueError):
        equivalence_experiment(8.0, -0.1, grid, 100, seed=12)


def test_interlace_gamma_sweep_equals_one_gamma_at_a_time():
    # one draw and one scan for both gammas, clamps included at gamma 2
    both = interlace_event_frequency(
        [2.0, 16.0], 300, seed=8, dt=1e-2, batch_size=70
    )
    alone = [
        interlace_event_frequency([g], 300, seed=8, dt=1e-2, batch_size=70)[0]
        for g in (2.0, 16.0)
    ]
    assert both == alone
    for a, b in zip(both, alone):
        for field in a.__dataclass_fields__:
            assert repr(getattr(a, field)) == repr(getattr(b, field))
    assert both[0].clamp_contamination > 0
    # an empty sweep has nothing to step
    assert interlace_event_frequency([], 300, seed=8, dt=1e-2) == []


def test_interlace_frequencies_match_stored_paths():
    # A, B and C recomputed from the whole stored paths of T0, T+, T-, T;
    # narrow margins so that every event happens at both gammas
    gammas, n = [2.0, 16.0], 300
    freqs = interlace_event_frequency(
        gammas, n, seed=8, dt=1e-2, margin_scale=0.1, batch_size=70
    )
    grid = TimeGrid(0.0, 1.0, 100)
    inc = ensemble_increments(8, range(n), grid, 4)
    four = Topology.triangle(3).restrict([0, 1, 2, 4])
    for gamma, freq in zip(gammas, freqs):
        blocks = []
        clamps = ensemble_scan(
            four, np.zeros(4), inc, gamma, grid.dt, None,
            observe=lambda i0, block: blocks.append(block.copy()),
        )
        t0, tp, tm, t = np.concatenate(blocks).transpose(1, 2, 0)
        f, g = freq.margins.f, freq.margins.g
        a = np.min(np.minimum(tp - t0, t0 - tm), axis=1) < -f
        b = np.min(np.minimum(tp - t, t - tm), axis=1) < -2 * g
        c = np.min(tp - tm, axis=1) < -g
        counts = [np.count_nonzero(e) for e in (a, b, c, clamps)]
        assert min(counts[:3]) > 0
        assert [freq.a_violation, freq.b_violation, freq.c_violation,
                freq.clamp_contamination] == [k / n for k in counts]


def test_interlace_batch_holds_a_window_of_noise():
    # one batch of 50 replicates at dt=1e-4 has (50, 4, 10^4) increments,
    # 16 MB; streamed through the scan, the call holds under half of that
    tracemalloc.start()
    try:
        interlace_event_frequency([16.0], 50, seed=3, dt=1e-4, batch_size=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 4 * 10_000 * 8 / 2


_FLAT1 = _flat_target(1, TimeGrid(0.0, 1.0, 10))


@pytest.mark.parametrize(
    "call",
    [
        lambda b: smallball_probability(
            _cfg(1, 4.0), _FLAT1, 0.5, 10, seed=1, batch_size=b),
        lambda b: ldp_slope(
            _cfg(1, 4.0), _FLAT1, 0.5, [2.0, 4.0, 8.0], 10, seed=1,
            batch_size=b),
        lambda b: interlace_event_frequency(
            [16.0], 10, seed=1, dt=0.1, batch_size=b),
        lambda b: equivalence_experiment(
            8.0, 0.1, TimeGrid(0.0, 1.0, 10), 10, seed=1, batch_size=b),
    ],
    ids=["smallball_probability", "ldp_slope", "interlace_event_frequency",
         "equivalence_experiment"],
)
def test_batch_size_below_one_rejected(call):
    # a batch of 0 would never advance through the replicates
    for b in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            call(b)


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
def test_bad_gamma_rejected_at_the_boundary(gamma):
    grid = TimeGrid(0.0, 1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma"):
            interlace_event_frequency([16.0, gamma], 10, seed=1, dt=0.1)
        with pytest.raises(ValueError, match="gamma"):
            equivalence_experiment(gamma, 0.1, grid, 10, seed=1)
        with pytest.raises(ValueError, match="gamma"):
            _cfg(1, gamma)
        with pytest.raises(ValueError, match="gamma"):
            ldp_slope(_cfg(1, 4.0), _FLAT1, 0.5, [2.0, 4.0, gamma], 10,
                      seed=1)
