"""End-to-end acceptance suite.

Each test exercises one headline property of the package at desk scale and
prints a single "criterion N: PASS/FAIL" line with the measured numbers.
Two tests are marked xfail because the stated check is not attainable as
written; they still run the experiment faithfully and report the measured
outcome (see the analysis in the repository notes):

* criterion 1: the small-ball probability of a sup-norm delta-ball decays
  at the infimum of the rate over the ball, not at the rate of the center
  path, so the fitted slope sits near 0.03, far below I(phi) = 0.125.
* criterion 6: the smoothing gap sup|V_gamma - V_inf| is bounded and
  converges, but is not monotone in gamma on every input; a few inputs per
  thousand show a genuine (grid-independent) non-monotone step.
"""

import numpy as np
import pytest

from whittaker2d import (
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    TriangularConfiguration,
    VariationalProblem,
    ensemble_increments,
    equivalence_experiment,
    escape_probability_bound,
    interlace_event_frequency,
    ldp_slope,
    minimize_rate,
    particle_rate,
    reflect_above,
    reflect_below,
    simulate_lower_barrier_euler,
    simulate_two_barrier,
    smallball_probability,
    smoothed_reflection_term,
    total_rate,
    wilson_interval,
)
from whittaker2d._oracles import brute_force_local_rate, solve_edge_exact


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    return ok


def _upper_if_zero(count, n):
    """After a zero count (or frequency) of n trials, the 95% Wilson upper
    bound on the probability, which is all that a zero can claim."""
    if count != 0 or n == 0:
        return ""
    return f" (Wilson upper {wilson_interval(0, n)[1]:.1e})"


def _cfg(N, gamma, initial=None):
    if initial is None:
        initial = TriangularConfiguration.zeros(N)
    return ModelConfig(N=N, gamma=gamma, initial=initial)


@pytest.mark.slow
@pytest.mark.xfail(
    strict=False,
    reason="a delta-ball around phi decays at the ball infimum "
    "(0.5 * delta**2 = 0.03125 here), not at I(phi) = 0.125",
)
def test_criterion_1_schilder_slope():
    grid = TimeGrid(0.0, 1.0, 1000)
    phi = PathBundle.linear(
        1,
        grid,
        TriangularConfiguration.zeros(1),
        TriangularConfiguration(1, np.array([0.5])),
    )
    fit = ldp_slope(
        _cfg(1, 8.0),
        phi,
        0.25,
        [8.0, 16.0, 32.0, 64.0],
        1_000_000,
        seed=515,
        batch_size=20000,
    )
    target = 0.125
    ok = abs(fit.slope - target) <= 0.30 * target
    _report(
        1,
        ok,
        f"fitted slope {fit.slope:.4f}, target {target} within 30% "
        f"(band [{0.7 * target:.4f}, {1.3 * target:.4f}])",
    )
    assert ok


def test_criterion_2_scaled_bm_variance():
    grid = TimeGrid(0.0, 1.0, 1000)
    n = 100_000
    batch = 5000
    details = []
    ok = True
    for gamma in (4.0, 16.0):
        terminals = np.empty(n)
        for lo in range(0, n, batch):
            inc = ensemble_increments(111, range(lo, lo + batch), grid, 1)
            terminals[lo : lo + batch] = inc[:, 0, :].sum(axis=1)
        terminals /= np.sqrt(gamma)
        s2 = float(np.var(terminals, ddof=1))
        se = (1.0 / gamma) * np.sqrt(2.0 / (n - 1))
        ok = ok and abs(s2 - 1.0 / gamma) <= 3.0 * se
        details.append(
            f"gamma={gamma:g}: var {s2:.6f} vs {1.0 / gamma:.6f} "
            f"(3se = {3 * se:.6f})"
        )
    _report(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_exponential_equivalence_budget():
    rep = equivalence_experiment(
        32.0, 0.5, TimeGrid(0.0, 1.0, 1000), 1000, seed=303
    )
    ok = (
        rep.n_violations == 0
        and rep.n_in_tube > 0
        and rep.budget == pytest.approx(np.exp(-8.0), rel=1e-12)
    )
    _report(
        3,
        ok,
        f"{rep.n_in_tube}/1000 replicates in tube, {rep.n_violations}"
        f"{_upper_if_zero(rep.n_violations, rep.n_in_tube)} "
        f"exceed budget {rep.budget:.4e} (max in-tube gap "
        f"{rep.max_gap_in_tube:.3e})",
    )
    assert ok


def test_criterion_4_reflection_invariants():
    rng = np.random.default_rng(1234)
    grid = TimeGrid(0.0, 1.0, 256)
    tol = 1e-12
    failures = 0
    for _ in range(1000):
        psi = SamplePath(grid, np.cumsum(rng.normal(0, 0.1, grid.npoints)))
        barrier = SamplePath(
            grid, np.cumsum(rng.normal(0, 0.1, grid.npoints)) - 0.3
        )
        start = float(max(psi.values[0], barrier.values[0]) + rng.uniform(0, 0.2))
        out = reflect_above(psi, barrier, start)
        good = np.all(out.path.values >= barrier.values - tol)
        good = good and np.all(np.diff(out.push_term.values) >= -tol)
        # identity case: an inactive barrier leaves the driver untouched
        far = SamplePath(grid, barrier.values - 100.0)
        ident = reflect_above(psi, far, psi.values[0])
        good = good and np.array_equal(ident.path.values, psi.values)
        # Lipschitz-1 stability in the barrier
        shift = rng.normal(0, 0.2, grid.npoints)
        out2 = reflect_above(psi, SamplePath(grid, barrier.values + shift), start)
        gap = np.max(np.abs(out.path.values - out2.path.values))
        good = good and gap <= np.max(np.abs(shift)) + tol
        # mirror identity between the two one-sided maps
        below = reflect_below(
            SamplePath(grid, -psi.values), SamplePath(grid, -barrier.values), -start
        )
        good = good and np.max(np.abs(below.path.values + out.path.values)) <= tol
        if not good:
            failures += 1
    ok = failures == 0
    _report(4, ok, f"{failures}/1000 pairs violated an invariant at 1e-12")
    assert ok


def test_criterion_5_rate_oracle_equivalence():
    rng = np.random.default_rng(404)
    grid = TimeGrid(0.0, 1.0, 64)
    worst = 0.0
    for _ in range(20):
        knots = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 4))))
        lower = SamplePath(
            grid, np.interp(grid.times, knots, rng.uniform(-0.5, 0.5, knots.size))
        )
        driver = SamplePath(
            grid, np.interp(grid.times, knots, rng.uniform(-0.5, 0.5, knots.size))
        )
        phi = reflect_above(driver, lower, float(lower.values[0]) + 0.1).path
        direct = particle_rate(phi, None, lower, 1e-9)
        oracle = brute_force_local_rate(phi, lower, 1e-9)
        rel = abs(oracle - direct) / max(abs(direct), 1e-6)
        worst = max(worst, rel)
    ok = worst <= 1e-3
    _report(5, ok, f"worst relative oracle error {worst:.3e} over 20 pairs")
    assert ok


@pytest.mark.xfail(
    strict=False,
    reason="sup|V_gamma - V_inf| is not monotone in gamma on every input; "
    "a few inputs per thousand show a genuine non-monotone step",
)
def test_criterion_6_smoothed_reflection_bound():
    rng = np.random.default_rng(606)
    grid = TimeGrid(0.0, 1.0, 512)
    gammas = (8.0, 32.0, 128.0)
    bound_bad = 0
    mono_bad = 0
    for _ in range(1000):
        kt = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 5))))
        kv = rng.uniform(-1.0, 1.0, kt.size)
        h = SamplePath(grid, np.interp(grid.times, kt, kv))
        sups = []
        for gamma in gammas:
            v_gamma, v_inf = smoothed_reflection_term(h, gamma)
            if not np.all(
                v_gamma.values <= v_inf.values + np.log1p(gamma) / gamma + 1e-12
            ):
                bound_bad += 1
            sups.append(float(np.max(np.abs(v_gamma.values - v_inf.values))))
        if not all(b <= a + 1e-6 for a, b in zip(sups, sups[1:])):
            mono_bad += 1
    ok = bound_bad == 0 and mono_bad == 0
    _report(
        6,
        ok,
        f"bound violations {bound_bad}/1000, per-input monotonicity "
        f"violations {mono_bad}/1000",
    )
    assert ok


@pytest.mark.slow
def test_criterion_7_interlacing_dominance():
    freqs = interlace_event_frequency(
        [16.0, 64.0], 10_000, seed=909, dt=1e-4, batch_size=2000
    )
    f16, f64 = freqs
    ok = (
        f64.a_violation < 1e-3
        and f64.a_violation <= f16.a_violation
        and f64.b_violation <= f16.b_violation
        and f64.c_violation <= f16.c_violation
    )

    def freq(value, f):
        return f"{value:.4f}{_upper_if_zero(value, f.n_samples)}"

    _report(
        7,
        ok,
        f"A(64)={freq(f64.a_violation, f64)} (<1e-3), "
        f"A(16)={freq(f16.a_violation, f16)}, "
        f"B: {freq(f16.b_violation, f16)}->{freq(f64.b_violation, f64)}, "
        f"C: {freq(f16.c_violation, f16)}->{freq(f64.c_violation, f64)}",
    )
    assert ok


def test_interlacing_dominance_where_gamma_16_violates():
    # criterion 7 holds on frequencies that are all zero; at a tenth of the
    # margins every event happens at gamma=16, so dominance has power here
    f16, f64 = interlace_event_frequency(
        [16.0, 64.0], 1000, seed=17, dt=1e-3, margin_scale=0.1
    )
    at16 = (f16.a_violation, f16.b_violation, f16.c_violation)
    at64 = (f64.a_violation, f64.b_violation, f64.c_violation)
    assert min(at16) > 0
    assert all(hi <= lo for hi, lo in zip(at64, at16))


@pytest.mark.slow
def test_criterion_8_crossing_superexponentiality():
    grid = TimeGrid(0.0, 0.25, 250)
    init = TriangularConfiguration.zeros(2)
    terminal = TriangularConfiguration(2, np.array([-0.2125, 0.1, 0.2125]))
    bundle = PathBundle.linear(2, grid, init, terminal)
    delta = 0.2
    samples = {8.0: 600_000, 16.0: 200_000, 32.0: 200_000}
    slopes, ests = {}, {}
    for gamma, n in samples.items():
        est = ests[gamma] = smallball_probability(
            _cfg(2, gamma), bundle, delta, n, seed=2027, batch_size=20000
        )
        slopes[gamma] = (
            np.inf if est.hits == 0 else -np.log(est.p_hat) / gamma
        )
    br = total_rate(bundle, _cfg(2, 8.0), 1e-3)
    ok = (
        slopes[32.0] >= 2.0 * slopes[8.0]
        and br.total == np.inf
        and br.infinity_reason == "crossing"
    )
    _report(
        8,
        ok,
        f"per-gamma slopes {slopes[8.0]:.3f} / {slopes[16.0]:.3f} / "
        f"{slopes[32.0]} for gamma 8/16/32, rate sentinel "
        f"{br.infinity_reason}; hits "
        + ", ".join(
            f"{e.hits}/{e.n_samples}{_upper_if_zero(e.hits, e.n_samples)} "
            f"trusted={e.trusted}"
            for e in ests.values()
        ),
    )
    assert ok


def test_criterion_9_variational_recovery():
    p1 = VariationalProblem(
        N=1,
        grid=TimeGrid(0.0, 1.0, 64),
        initial=TriangularConfiguration.zeros(1),
        terminal=TriangularConfiguration(1, np.array([1.0])),
    )
    r1 = minimize_rate(p1)
    rel = abs(r1.rate - 0.5) / 0.5
    p2 = VariationalProblem(
        N=2,
        grid=TimeGrid(0.0, 1.0, 32),
        initial=TriangularConfiguration(2, np.array([0.0, 0.5, -0.5])),
        terminal=TriangularConfiguration(2, np.array([0.5, 0.5, 0.0])),
    )
    r2 = minimize_rate(p2)
    vals = r2.bundle.values
    feasible = (
        np.allclose(r2.bundle.at_time(0).entries, p2.initial.entries, atol=1e-12)
        and np.allclose(
            r2.bundle.at_time(p2.grid.steps).entries,
            p2.terminal.entries,
            atol=1e-12,
        )
        and np.all(vals[1] - vals[0] >= -1e-9)
        and np.all(vals[0] - vals[2] >= -1e-9)
    )
    ok = rel <= 1e-6 and feasible and r2.rate <= r2.baseline_rate + 1e-12
    _report(
        9,
        ok,
        f"N=1 relative rate error {rel:.2e}; N=2 feasible={feasible}, "
        f"rate {r2.rate:.4f} <= baseline {r2.baseline_rate:.4f}",
    )
    assert ok


def test_criterion_10_closed_form_edge_solution():
    # noise-free oracle: dT = exp(-T) dt from 0 solves T = log(1 + t)
    grid = TimeGrid(0.0, 1.0, 10_000)
    lower = SamplePath.constant(grid, 0.0)
    exact = solve_edge_exact(lower, np.zeros(grid.npoints), 0.0, 1.0)
    oracle_err = float(np.max(np.abs(exact.values - np.log1p(grid.times))))
    # coupled exact vs tamed Euler under identical increments
    gamma = 8.0
    worst = 0.0
    for rep in range(8):
        inc = ensemble_increments(7, range(rep, rep + 1), grid, 1)[0]
        driver = np.concatenate(([0.0], np.cumsum(inc[0]))) / np.sqrt(gamma)
        closed = solve_edge_exact(lower, driver, 0.1, gamma)
        euler = simulate_lower_barrier_euler(lower, inc, 0.1, gamma)[0]
        worst = max(worst, float(np.max(np.abs(closed.values - euler))))
    ok = oracle_err <= 5e-4 and worst <= 5e-3
    _report(
        10,
        ok,
        f"log(1+t) oracle error {oracle_err:.2e} (dt=1e-4), coupled sup "
        f"gap {worst:.2e} <= 5e-3",
    )
    assert ok


def test_criterion_11_escape_probability_bound():
    # the quoted bound 0.0153 corresponds to barrier magnitude C = 0
    bound = escape_probability_bound(0.0, 0.0, 10.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 1000)
    zero = SamplePath.constant(grid, 0.0)
    inc = ensemble_increments(222, range(1000), grid, 1)[:, 0, :]
    paths = simulate_two_barrier(zero, zero, inc, 0.0, 1.0)
    freq = float(np.mean(np.any(paths**2 >= 100.0, axis=1)))
    se = np.sqrt(bound * (1.0 - bound) / 1000)
    ok = bound == pytest.approx(0.0153, abs=2e-4) and freq <= bound + 3 * se
    _report(
        11,
        ok,
        f"escape frequency {freq:.4f}{_upper_if_zero(freq, 1000)} <= bound "
        f"{bound:.6f} + 3se "
        f"({bound + 3 * se:.4f})",
    )
    assert ok
