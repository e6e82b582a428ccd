import numpy as np
import pytest

from whittaker2d import (
    MinimizeResult,
    ModelConfig,
    PathBundle,
    TimeGrid,
    Topology,
    TriangularConfiguration,
    VariationalProblem,
    minimize_rate,
    total_rate,
)
from whittaker2d import varopt
from whittaker2d.varopt import _objective_and_grad, _project_interlacing


def _problem(N, start, end, m=64, **kw):
    return VariationalProblem(
        N=N,
        grid=TimeGrid(0.0, 1.0, m),
        initial=TriangularConfiguration(N, np.asarray(start, dtype=float)),
        terminal=TriangularConfiguration(N, np.asarray(end, dtype=float)),
        **kw,
    )


def test_rejects_non_interlaced_endpoints():
    with pytest.raises(ValueError):
        _problem(2, [0.0, -1.0, 0.0], [0.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        _problem(2, [0.0, 1.0, -1.0], [0.0, -1.0, 0.0])


def test_n1_recovers_straight_line():
    result = minimize_rate(_problem(1, [0.0], [1.0]))
    assert result.rate == pytest.approx(0.5, rel=1e-9)
    line = np.linspace(0.0, 1.0, 65)
    np.testing.assert_allclose(result.bundle.values[0], line, atol=1e-9)


def test_descent_from_perturbed_start():
    # hand the optimizer a deliberately bad interior guess by bending the
    # problem: widely separated endpoints, then check monotone improvement
    problem = _problem(2, [0.0, 1.0, -1.0], [1.0, 2.0, 0.0], m=32)
    result = minimize_rate(problem)
    assert result.rate <= result.baseline_rate + 1e-12
    # straight lines with equal slopes are already optimal here
    assert result.rate == pytest.approx(3 * 0.5, rel=1e-6)


def test_constrained_endpoints_stay_fixed_and_feasible():
    problem = _problem(2, [0.0, 0.5, -0.5], [0.5, 0.5, 0.0], m=32)
    result = minimize_rate(problem)
    np.testing.assert_allclose(
        result.bundle.at_time(0).entries, problem.initial.entries, atol=1e-12
    )
    np.testing.assert_allclose(
        result.bundle.at_time(problem.grid.steps).entries,
        problem.terminal.entries,
        atol=1e-12,
    )
    vals = result.bundle.values
    # interlacing feasibility at every slice
    assert np.all(vals[1] - vals[0] >= -1e-9)  # T_2_1 >= T_1_1
    assert np.all(vals[0] - vals[2] >= -1e-9)  # T_1_1 >= T_2_2
    assert result.rate <= result.baseline_rate + 1e-12


def test_squeezed_problem_beats_baseline_action():
    # endpoints force the middle particle through its neighbors' corridor;
    # the achieved rate must never exceed the projected-baseline rate
    problem = _problem(
        2, [0.0, 0.1, -0.1], [0.8, 0.9, 0.7], m=48, max_iters=4000
    )
    result = minimize_rate(problem)
    assert np.isfinite(result.rate)
    assert result.rate <= result.baseline_rate + 1e-12
    cfg = ModelConfig(N=2, gamma=8.0, initial=problem.initial)
    br = total_rate(result.bundle, cfg, problem.eps)
    assert br.infinity_reason == "none"


def test_projection_restores_interlacing():
    rng = np.random.default_rng(0)
    vals = rng.normal(0, 1, (3, 20))
    _project_interlacing(vals, 2)
    assert np.all(vals[1] - vals[0] >= -1e-12)
    assert np.all(vals[0] - vals[2] >= -1e-12)


def test_projection_noop_inside_cone():
    vals = np.array(
        [[0.0, 0.1], [1.0, 1.1], [-1.0, -0.9]]
    )
    before = vals.copy()
    _project_interlacing(vals, 2)
    np.testing.assert_array_equal(vals, before)


def test_objective_matches_schilder_when_interior():
    grid = TimeGrid(0.0, 1.0, 16)
    vals = np.array(
        [
            np.linspace(0.0, 1.0, 17),
            np.linspace(2.0, 3.5, 17),
            np.linspace(-2.0, -1.0, 17),
        ]
    )
    value, grad = _objective_and_grad(vals, 2, grid, 1e-6, "lemma")
    expect = 0.5 * (1.0 + 1.5**2 + 1.0)
    assert value == pytest.approx(expect, rel=1e-9)
    # interior gradient of a straight line vanishes
    assert np.max(np.abs(grad[:, 1:-1])) < 1e-9


def test_result_reports_iterations():
    result = minimize_rate(_problem(1, [0.0], [0.0], m=8))
    assert isinstance(result, MinimizeResult)
    assert result.rate == 0.0
    assert result.iterations >= 1
    assert result.converged


def test_stationary_baseline_costs_no_line_search(monkeypatch):
    # no coincident cell: the straight-line baseline is already optimal,
    # which the tolerance check sees before any step halving
    calls = []

    def counted(*args):
        calls.append(args)
        return _objective_and_grad(*args)

    monkeypatch.setattr(varopt, "_objective_and_grad", counted)
    result = minimize_rate(_problem(2, [0.0, 0.4, -0.3], [0.5, 1.0, 0.1]))
    assert result.converged
    assert result.rate == result.baseline_rate
    assert len(calls) <= 2


def test_minimize_rate_rejects_unknown_convention():
    with pytest.raises(ValueError):
        minimize_rate(_problem(2, [0.0, 1.0, -1.0], [1.0, 2.0, 0.0]), "lemmma")


def test_projection_reports_remaining_defect():
    rng = np.random.default_rng(5)
    vals = rng.normal(0, 1, (15, 40))
    defect = _project_interlacing(vals, 5, sweeps=1)
    relations = Topology.triangle(5).relations
    gaps = [np.min(vals[hi] - vals[lo]) for hi, lo in relations]
    assert defect == min(gaps) < 0
    # inside the cone nothing moves and the smallest gap comes back
    inside = np.array([[0.0, 0.1], [1.0, 1.1], [-1.0, -0.7]])
    assert _project_interlacing(inside, 2, sweeps=1) == pytest.approx(0.8)
    assert _project_interlacing(np.zeros((1, 3)), 1) == np.inf


def test_minimize_rate_raises_when_projection_falls_short(monkeypatch):
    monkeypatch.setattr(varopt, "_project_interlacing", lambda vals, N: -1e-3)
    with pytest.raises(RuntimeError):
        minimize_rate(_problem(2, [0.0, 1.0, -1.0], [1.0, 2.0, 0.0]))


def _glued_bundle(rng, N, m):
    """Random interlaced bundle whose rows sit on each of their barriers
    over part of the grid, with no crossing."""
    topo = Topology.triangle(N)
    vals = np.cumsum(rng.normal(0, 0.1, (topo.size, m + 1)), axis=1)
    for p in range(topo.size):
        lo, up = topo.lower[p], topo.upper[p]
        if lo >= 0:
            vals[p] = np.maximum(vals[p], vals[lo])
        if up >= 0:
            vals[p] = np.minimum(vals[p], vals[up])
        for row in (lo, up):
            if row >= 0:
                a, b = sorted(rng.integers(0, m + 1, 2))
                vals[p, a:b + 1] = vals[row, a:b + 1]
    vals[:, 0] = 0.0
    return vals


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("convention", ["lemma", "theorem"])
@pytest.mark.parametrize("eps", [1e-6, 1e-2])
def test_objective_is_total_rate(N, convention, eps):
    rng = np.random.default_rng([N, int(eps * 1e6)])
    grid = TimeGrid(0.0, 1.0, 50)
    cfg = ModelConfig(N=N, gamma=8.0, initial=TriangularConfiguration.zeros(N))
    for _ in range(5):
        vals = _glued_bundle(rng, N, grid.steps)
        br = total_rate(PathBundle(N, grid, vals), cfg, eps, convention)
        assert br.infinity_reason == "none"
        assert any(t.upper_measure + t.lower_measure > 0
                   for t in br.terms.values())
        value, _ = _objective_and_grad(vals, N, grid, eps, convention)
        assert value == pytest.approx(br.total, rel=1e-12)
