import warnings

import numpy as np
import pytest

from whittaker2d import (
    DomainError,
    ModelConfig,
    NonFiniteError,
    SamplePath,
    TimeGrid,
    Topology,
    TriangularConfiguration,
    TruncationLevels,
    default_drift_cap,
    ensemble_scan,
    equivalence_gap,
    escape_probability_bound,
    sample_increments,
    simulate,
    simulate_lower_barrier_euler,
    simulate_two_barrier,
    solve_edge_exact,
    tri_offset,
)
from whittaker2d import sde
from whittaker2d.noise import IncrementStream, ensemble_increments


def _config(N, gamma, entries=None, **kw):
    init = (
        TriangularConfiguration.zeros(N)
        if entries is None
        else TriangularConfiguration(N, np.asarray(entries, dtype=float))
    )
    return ModelConfig(N=N, gamma=gamma, initial=init, **kw)


def test_n1_is_exact_random_walk():
    # a single particle has no neighbors: the step is pure noise
    grid = TimeGrid(0.0, 1.0, 500)
    gamma = 8.0
    noise = sample_increments(1, 0, grid, 1)
    res = simulate(_config(1, gamma), grid, noise)
    expect = np.concatenate(
        ([0.0], np.cumsum(noise[0] / np.sqrt(gamma)))
    )
    np.testing.assert_allclose(res.bundle.values[0], expect, atol=1e-14)
    assert res.clamp_events == 0


def test_level_drift_shifts_n1():
    grid = TimeGrid(0.0, 1.0, 100)
    gamma = 4.0
    noise = sample_increments(2, 0, grid, 1)
    cfg = _config(1, gamma, drifts=np.array([0.7]))
    res = simulate(cfg, grid, noise)
    free = simulate(_config(1, gamma), grid, noise)
    np.testing.assert_allclose(
        res.bundle.values[0] - free.bundle.values[0],
        0.7 * grid.times,
        atol=1e-10,
    )


def test_edge_ode_oracle_log1p():
    # zero noise, barrier glued at the start value: the edge particle obeys
    # y' = exp(gamma(0 - y)), y(0)=0, i.e. y = log(1 + gamma t)/gamma
    gamma = 4.0
    grid = TimeGrid(0.0, 1.0, 20000)
    noise = np.zeros((3, grid.steps))
    res = simulate(_config(2, gamma), grid, noise)
    t = grid.times
    expect = np.log1p(gamma * t) / gamma
    got = res.bundle.values[tri_offset(2, 1)]
    assert np.max(np.abs(got - expect)) < 5e-4  # O(dt) Euler error


def test_mirror_symmetry():
    # negating noise and reversing each level maps the system onto itself
    grid = TimeGrid(0.0, 1.0, 400)
    gamma = 8.0
    noise = sample_increments(3, 0, grid, 3)
    res = simulate(_config(2, gamma), grid, noise)
    # mirrored stream order: (1,1)->(1,1), (2,1)<->(2,2)
    perm = [0, 2, 1]
    mirrored = -noise[perm]
    res_m = simulate(_config(2, gamma), grid, mirrored)
    np.testing.assert_allclose(
        res_m.bundle.values[perm], -res.bundle.values, atol=1e-12
    )


def test_truncation_inactive_is_bitwise_identical():
    grid = TimeGrid(0.0, 1.0, 200)
    noise = sample_increments(4, 0, grid, 3)
    cfg = _config(2, 8.0)
    plain = simulate(cfg, grid, noise)
    trunc = simulate(cfg, grid, noise, TruncationLevels.uniform(2, 1e6))
    np.testing.assert_array_equal(
        plain.bundle.values, trunc.bundle.values
    )
    assert plain.clamp_events == trunc.clamp_events


def test_truncation_saturated_freezes_drift():
    # L_k = 0 clips every drift exponent to 0: interior drift 0, edge drift 1
    gamma = 2.0
    grid = TimeGrid(0.0, 1.0, 100)
    noise = np.zeros((3, grid.steps))
    res = simulate(
        _config(2, gamma), grid, noise, TruncationLevels.uniform(2, 0.0)
    )
    t = grid.times
    np.testing.assert_allclose(res.bundle.values[tri_offset(1, 1)], 0.0)
    np.testing.assert_allclose(
        res.bundle.values[tri_offset(2, 1)], t, atol=1e-12
    )
    np.testing.assert_allclose(
        res.bundle.values[tri_offset(2, 2)], -t, atol=1e-12
    )


def test_truncation_levels_validation():
    with pytest.raises(ValueError):
        TruncationLevels(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        TruncationLevels(np.array([-1.0]))


def test_drift_cap_validation():
    with pytest.raises(ValueError):
        _config(1, 8.0, drift_cap=-1.0)
    assert default_drift_cap(8.0) == pytest.approx(np.exp(2.0))


def test_clamp_events_counted():
    # at a fully glued start the edge pushes are exactly 1, above a 0.5 cap
    grid = TimeGrid(0.0, 0.01, 10)
    cfg = _config(2, 8.0, drift_cap=0.5)
    noise = np.zeros((3, grid.steps))
    res = simulate(cfg, grid, noise)
    assert res.clamp_events > 0


def test_tilde0_far_barrier_is_nearly_free():
    gamma = 4.0
    grid = TimeGrid(0.0, 1.0, 1000)
    noise = sample_increments(6, 0, grid, 1)
    x = np.concatenate(([0.0], np.cumsum(noise[0]))) / np.sqrt(gamma)
    barrier = SamplePath.constant(grid, -10.0)
    out = solve_edge_exact(barrier, x, 0.0, gamma)
    # drift bounded by exp(-gamma * clearance) whenever the path stays above
    # the barrier neighborhood; with W/sqrt(gamma) excursions ~1 the bound
    # exp(-4 * 8) over unit time is generous
    assert np.max(np.abs(out.values - x)) < (grid.b - grid.a) * np.exp(-32.0)


def test_tilde0_glued_barrier_analytic():
    gamma = 16.0
    grid = TimeGrid(0.0, 1.0, 4000)
    barrier = SamplePath.constant(grid, 0.5)
    out = solve_edge_exact(barrier, np.zeros(grid.npoints), 0.5, gamma)
    expect = 0.5 + np.log1p(gamma * grid.times) / gamma
    assert np.max(np.abs(out.values - expect)) < 1e-6


def test_edge_exact_honors_start_and_grid_checks():
    grid = TimeGrid(0.0, 1.0, 50)
    barrier = SamplePath.constant(grid, 0.0)
    out = solve_edge_exact(barrier, np.zeros(grid.npoints), 0.3, 2.0)
    assert out.values[0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        solve_edge_exact(barrier, np.zeros(7), 0.0, 2.0)


def test_edge_exact_dominates_free_path():
    # the barrier only ever pushes up
    gamma = 8.0
    grid = TimeGrid(0.0, 1.0, 500)
    noise = sample_increments(8, 0, grid, 1)
    x = np.concatenate(([0.0], np.cumsum(noise[0]))) / np.sqrt(gamma)
    barrier = SamplePath.constant(grid, 0.0)
    out = solve_edge_exact(barrier, x, 0.0, gamma)
    assert np.all(out.values >= x - 1e-12)


def test_lower_barrier_euler_matches_exact():
    gamma = 8.0
    grid = TimeGrid(0.0, 1.0, 5000)
    inc = ensemble_increments(9, range(4), grid, 1)[:, 0, :]
    barrier = SamplePath.constant(grid, 0.0)
    euler = simulate_lower_barrier_euler(barrier, inc, 0.1, gamma)
    for r in range(4):
        x = np.concatenate(([0.0], np.cumsum(inc[r]))) / np.sqrt(gamma)
        exact = solve_edge_exact(barrier, x, 0.1, gamma)
        assert np.max(np.abs(euler[r] - exact.values)) < 2e-3


def test_two_barrier_reduces_to_one_when_upper_is_far():
    gamma = 8.0
    grid = TimeGrid(0.0, 1.0, 1000)
    inc = ensemble_increments(10, range(3), grid, 1)[:, 0, :]
    lo = SamplePath.constant(grid, -0.2)
    hi = SamplePath.constant(grid, 50.0)
    both = simulate_two_barrier(lo, hi, inc, 0.0, gamma)
    one = simulate_lower_barrier_euler(lo, inc, 0.0, gamma)
    np.testing.assert_array_equal(both, one)


FOUR_PARTICLE = Topology.triangle(3).restrict([0, 1, 2, 4])


def test_four_particle_scan_shapes_and_symmetry():
    gamma = 16.0
    grid = TimeGrid(0.0, 1.0, 500)
    inc = ensemble_increments(11, range(6), grid, 4)
    states = []

    def observe(i, vals):
        states.extend(v.copy() for v in vals)

    clamps = ensemble_scan(
        FOUR_PARTICLE, np.zeros(4), inc, gamma, grid.dt, None,
        observe=observe,
    )
    assert clamps.shape == (6,)
    assert len(states) == grid.npoints
    path = np.stack(states, axis=-1)  # (4, R, M+1)
    # T0 is free: exact cumulative sum of its own stream
    expect = np.concatenate(
        (np.zeros((6, 1)), np.cumsum(inc[:, 0, :] / np.sqrt(gamma), axis=1)),
        axis=1,
    )
    np.testing.assert_allclose(path[0], expect, atol=1e-12)
    # T sits between the pushed particles most of the time; sanity: finite
    assert np.all(np.isfinite(path))
    with pytest.raises(ValueError):
        ensemble_scan(
            FOUR_PARTICLE, np.zeros(3), inc[:, :3, :], gamma, grid.dt, None
        )


def _reference_scan(topology, start, increments, gamma, dt, cap, barriers):
    """Tamed Euler one particle and one replicate at a time, written from
    the drift formula: exp(gamma (lower - T)) - exp(gamma (T - upper)),
    exponents capped at 700, drift clamped to +-cap."""
    R, P, M = increments.shape
    paths = np.zeros((R, topology.size, M + 1))
    clamps = np.zeros(R, dtype=int)
    for r in range(R):
        T = paths[r]
        T[:P, 0] = start
        T[P:] = barriers
        for i in range(M):
            for p in range(P):
                lo, up = topology.lower[p], topology.upper[p]
                drift = 0.0
                if lo >= 0:
                    drift += np.exp(min(gamma * (T[lo, i] - T[p, i]), 700.0))
                if up >= 0:
                    drift -= np.exp(min(gamma * (T[p, i] - T[up, i]), 700.0))
                tamed = min(max(drift, -cap), cap)
                clamps[r] += tamed != drift
                T[p, i + 1] = (
                    T[p, i] + increments[r, p, i] / np.sqrt(gamma) + tamed * dt
                )
    return paths[:, :P], clamps


@pytest.mark.parametrize(
    "topology, barriers",
    [
        (Topology.triangle(3), []),
        (FOUR_PARTICLE, []),
        (Topology([1, -1], [-1, -1]), [lambda t: np.sin(5 * t)]),
        (Topology([1, -1, -1], [2, -1, -1]), [lambda t: -t, lambda t: t * t]),
    ],
    ids=["triangle3", "four-particle", "lower-barrier", "two-barrier"],
)
def test_scan_matches_reference_loop(topology, barriers):
    gamma, cap = 32.0, 0.5
    grid = TimeGrid(0.0, 0.5, 120)
    fixed = np.array([f(grid.times) for f in barriers]).reshape(
        len(barriers), grid.npoints
    )
    P = topology.size - len(barriers)
    inc = ensemble_increments(12, range(3), grid, P)
    start = np.zeros(P)
    states = []
    clamps = ensemble_scan(
        topology, start, inc, gamma, grid.dt, cap, barriers=fixed,
        observe=lambda i, vals: states.extend(v.T.copy() for v in vals),
    )
    got = np.stack(states, axis=-1)  # (R, P, M+1)
    expect, expect_clamps = _reference_scan(
        topology, start, inc, gamma, grid.dt, cap, fixed
    )
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(clamps, expect_clamps)
    assert expect_clamps.sum() > 0


def test_equivalence_gap_budget_value():
    grid = TimeGrid(0.0, 1.0, 10)
    a = SamplePath.constant(grid, 0.0)
    b = SamplePath.constant(grid, 1e-5)
    rep = equivalence_gap(a, b, 32.0, 0.5)
    assert rep.budget == pytest.approx(np.exp(-8.0), rel=1e-12)
    assert rep.budget == pytest.approx(3.3546e-4, rel=1e-4)
    assert rep.gap == pytest.approx(1e-5)
    assert rep.within_budget


def test_escape_bound_arithmetic():
    # C=1 maximizes 2 t e^{C-t} at t=1
    assert escape_probability_bound(0.0, 1.0, 100.0, 1.0) == pytest.approx(
        4.5 / (10000.0 - 3.0), rel=1e-12
    )
    b = escape_probability_bound(0.0, 0.0, 10.0, 1.0)
    c1 = 1.0 + 2.0 * np.exp(-1.0)
    assert b == pytest.approx(0.5 * c1**2 / (100.0 - c1), rel=1e-12)
    assert b == pytest.approx(0.01533, abs=5e-6)
    with pytest.raises(DomainError):
        escape_probability_bound(0.0, 1.0, 1.0, 1.0)


def test_scan_non_finite_guard():
    inc = np.zeros((2, 3, 10))
    inc[1, 2, 3] = np.inf
    with pytest.raises(NonFiniteError) as err:
        ensemble_scan(Topology.triangle(2), np.zeros(3), inc, 8.0, 0.1, None)
    assert (err.value.step, err.value.particle) == (4, 2)


def test_scan_rejects_mismatched_shapes():
    grid = TimeGrid(0.0, 1.0, 10)
    tri = Topology.triangle(2)
    with pytest.raises(ValueError):
        ensemble_scan(tri, np.zeros(2), np.zeros((2, 2, 10)), 8.0, 0.1, None)
    with pytest.raises(ValueError):
        ensemble_scan(tri, np.zeros(2), np.zeros((2, 3, 10)), 8.0, 0.1, None)
    one_barrier = Topology([1, -1], [-1, -1])
    with pytest.raises(ValueError):
        ensemble_scan(
            one_barrier, np.zeros(1), np.zeros((2, 1, 10)), 8.0, 0.1, None,
            barriers=np.zeros((1, 10)),
        )
    with pytest.raises(ValueError):
        simulate(_config(2, 8.0), grid, np.zeros((3, 9)))


def _scan_blocks(topology, inc, gamma, cap, **kw):
    """States of every grid index, shape (M+1, P, G*R), the clamp counts
    and the grid index each observe call started at."""
    blocks, starts = [], []

    def observe(i0, block):
        starts.append(i0)
        blocks.append(block.copy())

    clamps = ensemble_scan(
        topology, np.zeros(inc.shape[1]), inc, gamma, 0.01, cap,
        observe=observe, **kw,
    )
    return np.concatenate(blocks), clamps, starts


@pytest.mark.parametrize("gammas", [[2.0], [2.0, 64.0]], ids=["G1", "G2"])
@pytest.mark.parametrize(
    "steps, room, windows",
    [(500, None, [500]), (2048, None, [2048]), (5000, None, [2048, 2048, 904]),
     (1000, 100, [1000]), (2500, 100, [1024, 1024, 452])],
    ids=["short", "one-window", "ragged", "wide-short", "wide-ragged"],
)
def test_streamed_scan_matches_materialized(
    monkeypatch, gammas, steps, room, windows
):
    # 64 four-particle replicates step in chunks of 256 (G=1) or 128 (G=2)
    # steps and draw windows of 2048 steps, so 5000 steps are a multiple of
    # neither; the cap of 0.5 clamps.  A byte bound with room for only 100
    # steps of this batch stands for a wide batch: a path of 1000 steps is
    # still drawn whole, and a longer one in windows of 1024 steps
    R, grid = 64, TimeGrid(0.0, 1.0, steps)
    if room is not None:
        monkeypatch.setattr(sde, "_WINDOW_BYTES", 8 * R * 4 * room)
    stream = IncrementStream(30, range(R), grid, 4)
    drawn, fill = [], stream.fill
    stream.fill = lambda out: drawn.append(out.shape[1]) or fill(out)
    got, got_clamps, starts = _scan_blocks(FOUR_PARTICLE, stream, gammas, 0.5)
    inc = ensemble_increments(30, range(R), grid, 4)
    expect, clamps, expect_starts = _scan_blocks(
        FOUR_PARTICLE, inc, gammas, 0.5
    )
    assert drawn == windows
    assert starts == expect_starts
    assert got.tobytes() == expect.tobytes()
    assert got_clamps.tobytes() == clamps.tobytes()
    assert clamps.sum() > 0


_T = np.linspace(0.0, 2.0, 401)
_STACKED_CASES = {
    # gamma 2 clamps under the default cap
    "four-particle": (FOUR_PARTICLE, [2.0, 16.0, 64.0], None, {}),
    "four-particle-caps": (FOUR_PARTICLE, [2.0, 8.0], [0.5, 3.0], {}),
    "two-barrier": (
        Topology([1, -1, -1], [2, -1, -1]), [4.0, 32.0], 0.8,
        {"barriers": np.stack([-_T - 0.05, _T * _T + 0.05])},
    ),
    "truncated-drifts": (
        Topology.triangle(3), [2.0, 8.0], None,
        {"drifts": [0.3, -0.2, -0.2, 0.1, 0.1, 0.1],
         "truncation": [0.05, 0.1, 0.1, 0.2, 0.2, 0.2]},
    ),
}


@pytest.mark.parametrize("steps", ["one", "chunk", "chunk+1"])
@pytest.mark.parametrize("case", list(_STACKED_CASES))
def test_scan_gamma_vector_equals_one_call_per_gamma(case, steps):
    topology, gammas, cap, kw = _STACKED_CASES[case]
    R = 60  # enough columns that a chunk is shorter than the 400-step probe
    P = topology.size - len(kw.get("barriers", ()))

    def with_steps(M):
        if "barriers" not in kw:
            return kw
        return dict(kw, barriers=kw["barriers"][:, : M + 1])

    # the chunk length, read off a run long enough to span several chunks
    starts = _scan_blocks(
        topology, np.zeros((R, P, 400)), gammas, cap, **with_steps(400)
    )[2]
    chunk = starts[2] - starts[1]
    M = {"one": 1, "chunk": chunk, "chunk+1": chunk + 1}[steps]
    kw = with_steps(M)
    inc = ensemble_increments(21, range(R), TimeGrid(0.0, 1.0, M), P)
    states, clamps, starts = _scan_blocks(topology, inc, gammas, cap, **kw)
    assert states.shape == (M + 1, P, len(gammas) * R)
    assert clamps.shape == (len(gammas), R)
    assert starts == [0] + list(range(1, M + 1, chunk))
    caps = cap if isinstance(cap, list) else [cap] * len(gammas)
    for g, (gamma, c) in enumerate(zip(gammas, caps)):
        alone, alone_clamps, _ = _scan_blocks(topology, inc, gamma, c, **kw)
        assert alone_clamps.shape == (R,)
        assert states[:, :, g * R : (g + 1) * R].tobytes() == alone.tobytes()
        assert clamps[g].tobytes() == alone_clamps.tobytes()
    if case == "four-particle" and steps != "one":
        assert clamps[0].sum() > 0


def test_scan_non_finite_mid_chunk_raises_without_warnings():
    # (1,1) and (2,1) turn +inf together, so the next step meets inf - inf
    # in the (2,1) push; the chunk runs on and the check after it raises
    inc = np.zeros((4, 3, 300))
    inc[2, :2, 150] = np.inf
    starts = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as err:
            ensemble_scan(
                Topology.triangle(2), np.zeros(3), inc, [8.0, 16.0], 0.01,
                None, observe=lambda i0, block: starts.append(i0),
            )
    assert (err.value.step, err.value.particle) == (151, 0)
    assert starts == [0]  # one chunk holds all 300 steps; it is not observed
