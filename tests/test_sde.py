import os
import signal
import sys
import threading
import time
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
    default_drift_cap,
    ensemble_scan,
    escape_probability_bound,
    simulate,
    simulate_lower_barrier_euler,
    simulate_two_barrier,
    tri_offset,
)
from whittaker2d import sde
from whittaker2d._oracles import solve_edge_exact
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
    noise = ensemble_increments(1, range(0, 1), grid, 1)[0]
    res = simulate(_config(1, gamma), grid, noise)
    expect = np.concatenate(
        ([0.0], np.cumsum(noise[0] / np.sqrt(gamma)))
    )
    np.testing.assert_allclose(res.bundle.values[0], expect, atol=1e-14)
    assert res.clamp_events == 0


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
    noise = ensemble_increments(3, range(0, 1), grid, 3)[0]
    res = simulate(_config(2, gamma), grid, noise)
    # mirrored stream order: (1,1)->(1,1), (2,1)<->(2,2)
    perm = [0, 2, 1]
    mirrored = -noise[perm]
    res_m = simulate(_config(2, gamma), grid, mirrored)
    np.testing.assert_allclose(
        res_m.bundle.values[perm], -res.bundle.values, atol=1e-12
    )


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
    noise = ensemble_increments(6, range(0, 1), grid, 1)[0]
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


def test_edge_exact_rejects_bad_gamma_without_warnings():
    grid = TimeGrid(0.0, 1.0, 50)
    barrier = SamplePath.constant(grid, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in [np.nan, 0.0, -1.0, np.inf]:
            with pytest.raises(ValueError, match="gamma"):
                solve_edge_exact(barrier, np.zeros(grid.npoints), 0.0, gamma)


def test_edge_exact_dominates_free_path():
    # the barrier only ever pushes up
    gamma = 8.0
    grid = TimeGrid(0.0, 1.0, 500)
    noise = ensemble_increments(8, range(0, 1), grid, 1)[0]
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
    exponents capped at 700 and drift clamped to +-cap."""
    R, P, M = increments.shape
    paths = np.zeros((R, topology.size, M + 1))
    clamps = np.zeros(R, dtype=int)
    for r in range(R):
        T = paths[r]
        T[:P, 0] = start
        T[P:] = barriers
        for i in range(M):
            x = T[:, i]
            for p in range(P):
                lo, up = topology.lower[p], topology.upper[p]
                drift = 0.0
                if lo >= 0:
                    drift += np.exp(min(gamma * (x[lo] - x[p]), 700.0))
                if up >= 0:
                    drift -= np.exp(min(gamma * (x[p] - x[up]), 700.0))
                tamed = min(max(drift, -cap), cap)
                clamps[r] += tamed != drift
                T[p, i + 1] = (
                    T[p, i] + increments[r, p, i] / np.sqrt(gamma) + tamed * dt
                )
    return paths[:, :P], clamps


_REFERENCE_CASES = {
    "triangle3": (Topology.triangle(3), [], {}),
    "four-particle": (FOUR_PARTICLE, [], {}),
    "lower-barrier": (
        Topology([1, -1], [-1, -1]), [lambda t: np.sin(5 * t)], {}
    ),
    "two-barrier": (
        Topology([1, -1, -1], [2, -1, -1]), [lambda t: -t, lambda t: t * t],
        {},
    ),
    # some replicates clamp within a chunk and others do not, over a path
    # of two chunks
    "some-columns-clamp": (
        Topology.triangle(2), [], {"gamma": 8.0, "cap": 2.5, "steps": 300},
    ),
    # rows 0 and 3 have no edge; row 0 pushes row 1 up and row 2 down
    "edgeless-row-over-cap": (
        Topology([-1, 0, -1, -1], [-1, -1, 0, -1]), [],
        {"gamma": 2.0, "cap": 3.0},
    ),
    # the barriers cross so far that gamma * gap passes exp's guard of 700
    # on both sides of the particle, then come inside the guard, then apart
    "barriers-crossed": (
        Topology([1, -1, -1], [2, -1, -1]),
        [lambda t: 30.0 - 80.0 * t, lambda t: 80.0 * t - 30.0], {},
    ),
    # an infinite cap: only the guard bounds the exponents
    "cap-inf": (
        Topology([1, -1], [-1, -1]), [lambda t: 25.0 - 100.0 * t],
        {"cap": np.inf},
    ),
    # the triangle at gamma 4 under a cap of 2
    "triangle3-cap2": (
        Topology.triangle(3), [], {"gamma": 4.0, "cap": 2.0},
    ),
    # inf noise in one replicate late in the second chunk, among replicates
    # that clamp: the scan raises where the reference first goes non-finite,
    # after observing the first chunk
    "non-finite-noise": (
        Topology.triangle(2), [],
        {"gamma": 8.0, "cap": 2.5, "steps": 300, "poison": (2, 1, 280)},
    ),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_scan_matches_reference_loop(case):
    topology, barriers, kw = _REFERENCE_CASES[case]
    gamma, cap = kw.get("gamma", 32.0), kw.get("cap", 0.5)
    grid = TimeGrid(0.0, 0.5, kw.get("steps", 120))
    fixed = np.array([f(grid.times) for f in barriers]).reshape(
        len(barriers), grid.npoints
    )
    P = topology.size - len(barriers)
    inc = ensemble_increments(12, range(3), grid, P)
    if "poison" in kw:
        inc[kw["poison"]] = np.inf
    start = np.zeros(P)
    with np.errstate(all="ignore"):
        expect, expect_clamps = _reference_scan(
            topology, start, inc, gamma, grid.dt, cap, fixed
        )
    states = []

    def scan():
        return ensemble_scan(
            topology, start, inc, gamma, grid.dt, cap, barriers=fixed,
            observe=lambda i, vals: states.extend(v.T.copy() for v in vals),
        )

    bad = ~np.isfinite(expect)
    if bad.any():
        # the first non-finite state in step, replicate, particle order
        step, _, particle = np.argwhere(bad.transpose(2, 0, 1))[0]
        with pytest.raises(NonFiniteError) as err:
            scan()
        assert (err.value.step, err.value.particle) == (step, particle)
        got = np.stack(states, axis=-1)
        assert 1 < got.shape[-1] <= step
        np.testing.assert_array_equal(got, expect[..., : got.shape[-1]])
        return
    clamps = scan()
    got = np.stack(states, axis=-1)  # (R, P, M+1)
    assert got.tobytes() == expect.tobytes()
    np.testing.assert_array_equal(clamps, expect_clamps)
    if case == "some-columns-clamp":
        assert 0 < np.count_nonzero(expect_clamps) < len(expect_clamps)
    elif case != "cap-inf":
        assert expect_clamps.sum() > 0


def test_equivalence_gap_budget_value():
    grid = TimeGrid(0.0, 1.0, 10)
    budget = sde._gap_budget(32.0, 0.5, grid)
    assert budget == pytest.approx(np.exp(-8.0), rel=1e-12)
    assert budget == pytest.approx(3.3546e-4, rel=1e-4)


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
    with pytest.raises(DomainError):
        escape_probability_bound(0.1, 1.0, np.nan, 1.0)
    # a horizon that is not positive, a negative barrier bound, or anything
    # non-finite is refused before the arithmetic
    for args in [(0.0, 1.0, 10.0, -1.0), (0.0, -5.0, 10.0, 1.0),
                 (0.0, 1.0, 10.0, 0.0), (0.0, 1.0, 10.0, np.inf),
                 (0.0, np.inf, 10.0, 1.0), (np.nan, 1.0, 10.0, 1.0),
                 (0.0, 1.0, np.inf, 1.0)]:
        with pytest.raises(DomainError):
            escape_probability_bound(*args)


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


def test_scan_rejects_bad_parameters_by_name():
    # each is refused before a step, so no warning comes first: a dt < 0
    # steps backwards, gamma < 0 meets sqrt, and gamma = 0 divides by zero
    tri, lower_only = Topology.triangle(2), Topology([1, -1], [-1, -1])
    inc = np.zeros((2, 3, 10))
    good = dict(topology=tri, start=np.zeros(3), noise=inc, gamma=8.0,
                dt=0.1, cap=None)
    bad = [("gamma", dict(gamma=g)) for g in (0.0, -1.0, np.nan, np.inf)]
    bad += [("gamma", dict(gamma=[8.0, -1.0])),
            ("dt", dict(dt=-0.02)), ("dt", dict(dt=0.0)),
            ("dt", dict(dt=np.nan)), ("dt", dict(dt=np.inf)),
            ("start", dict(start=np.array([0.0, np.nan, 0.0]))),
            ("start", dict(start=np.array([np.inf, 0.0, 0.0]))),
            ("cap", dict(cap=0.0)), ("cap", dict(cap=np.nan)),
            ("cap", dict(gamma=[8.0, 16.0], cap=[1.0, -1.0]))]
    bad += [("barriers", dict(topology=lower_only, start=np.zeros(1),
                              noise=inc[:, :1], barriers=b))
            for b in (np.full((1, 11), np.nan),
                      np.r_[np.zeros(10), np.inf][None])]
    for name, kw in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} "):
                ensemble_scan(**dict(good, **kw))
    grid = TimeGrid(0.0, 1.0, 10)
    lo, hi = SamplePath.constant(grid, -1.0), SamplePath.constant(grid, 1.0)
    for gamma in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="^gamma "):
            simulate_lower_barrier_euler(lo, np.zeros((2, 10)), 0.0, gamma)
        with pytest.raises(ValueError, match="^gamma "):
            simulate_two_barrier(lo, hi, np.zeros((2, 10)), 0.0, gamma)
    with pytest.raises(ValueError, match="^start "):
        simulate_two_barrier(lo, hi, np.zeros((2, 10)), np.nan, 8.0)


def _scan_blocks(topology, inc, gamma, cap, **kw):
    """States of every grid index, shape (M+1, P, G*R), the clamp counts
    and the grid index each observe call started at."""
    blocks, starts = [], []

    def observe(i0, block):
        starts.append(i0)
        blocks.append(block.copy())

    clamps = ensemble_scan(
        topology, np.zeros(topology.size - len(kw.get("barriers", ()))), inc,
        gamma, 0.01, cap, observe=observe, **kw,
    )
    return np.concatenate(blocks), clamps, starts


@pytest.mark.parametrize("gammas", [[2.0], [2.0, 64.0]], ids=["G1", "G2"])
@pytest.mark.parametrize(
    "reps, steps, room, where, windows",
    [(range(64), 500, None, "ring", (500, 500)),
     (range(64), 1024, None, "ring", (256, 384)),
     (range(64), 5000, None, "ring", (256, 384)),
     (range(64), 1000, 100, "ring", (256, 128)),
     (range(64), 2500, 100, "ring", (256, 128)),
     (range(64), 3000, 4000, "ring", (3000, 3000)),
     (range(3, 70), 2500, None, "ring", (244, 244)),
     (range(3, 70), 2500, None, "in-place", (488, 610))],
    ids=["short", "one-window", "ragged", "wide-short", "wide-ragged", "roomy",
         "cut-ring", "cut-in-place"],
)
def test_streamed_scan_matches_materialized(
    monkeypatch, gammas, reps, steps, room, where, windows
):
    # four-particle replicates, their noise in block-major windows of
    # (blocks, k, 4, P); the cap of 0.5 clamps.  64 replicates (16 blocks,
    # 2 KB a step) step in chunks of 256 (G=1) or 128 (G=2) steps: a path
    # that fits the window of whole chunks that hold at most 1.5 MB (768
    # steps) is drawn whole, and a longer one, 1024 steps already, in two
    # half windows of 256 or 384 steps where a core is idle.  A byte bound
    # with room for 100 steps stands for a wide batch, even at 1000 steps:
    # windows together hold the 256-step floor, one window of one chunk at
    # G=1, two of one chunk at G=2; a bound with room for 4000 steps stands
    # for a narrow one, drawn whole.
    # Replicates 3..69 start and end inside blocks (18 blocks, chunks of 244
    # or 122 steps, 682 steps to 1.5 MB): windows of 244 steps in the ring,
    # 488 or 610 in place; 5000 and 2500 steps are multiples of no window
    W = windows[len(gammas) - 1]
    grid = TimeGrid(0.0, 1.0, steps)
    monkeypatch.setattr(sde, "_cores", lambda: 2 if where == "ring" else 1)
    if room is not None:
        monkeypatch.setattr(sde, "_WINDOW_BYTES", 8 * 64 * 4 * room)
    stream = IncrementStream(30, reps, grid, 4)
    drawn, fill = [], stream.fill
    stream.fill = lambda out: drawn.append(out.shape[1]) or fill(out)
    got, got_clamps, starts = _scan_blocks(FOUR_PARTICLE, stream, gammas, 0.5)
    inc = ensemble_increments(30, reps, grid, 4)
    expect, clamps, expect_starts = _scan_blocks(
        FOUR_PARTICLE, inc, gammas, 0.5
    )
    assert drawn == [W] * (steps // W) + [steps % W] * (steps % W > 0)
    assert starts == expect_starts
    assert got.tobytes() == expect.tobytes()
    assert got_clamps.tobytes() == clamps.tobytes()
    assert clamps.sum() > 0


@pytest.mark.parametrize("gammas", [[2.0], [2.0, 64.0]], ids=["G1", "G2"])
@pytest.mark.parametrize(
    "reps, room, where, windows",
    [(range(64), None, "ring", (1536, 1536)),
     (range(64), None, "in-place", (3072, 3072)),
     (range(3, 70), 100, "ring", (244, 244))],
    ids=["ring", "in-place", "wide"],
)
def test_one_stream_scan_matches_broadcast_array(monkeypatch, gammas, reps,
                                                  room, where, windows):
    # one noise stream that all four rows step, as the equivalence coupling
    # steps its pair: 64 replicates of one stream take 512 B a step, so the
    # chunks of 256 or 128 steps that fit 1.5 MB make a window of 3072
    # steps, two halves of 1536 where a core is idle.  A byte bound with
    # room for 100 steps stands for a wide batch: replicates 3..69 (18
    # blocks) step in chunks of 244 or 122 steps, so the window is the
    # 256-step floor's whole chunks, 244 steps.  Its halves would give each
    # block's draw call under 256 steps of one stream, so even with a core
    # idle it is drawn in place
    W = windows[len(gammas) - 1]
    steps = 5000
    grid = TimeGrid(0.0, 1.0, steps)
    monkeypatch.setattr(sde, "_cores", lambda: 2 if where == "ring" else 1)
    stream = IncrementStream(30, reps, grid, 1)
    if room is not None:
        monkeypatch.setattr(sde, "_WINDOW_BYTES", 8 * stream.blocks * 4 * room)
    log = _recorded(stream)
    got, got_clamps, starts = _scan_blocks(FOUR_PARTICLE, stream, gammas, 0.5)
    inc = ensemble_increments(30, reps, grid, 1)
    pair = np.broadcast_to(inc, (len(reps), 4, steps))
    expect, clamps, expect_starts = _scan_blocks(
        FOUR_PARTICLE, pair, gammas, 0.5
    )
    drawn = [e["shape"][1] for e in log]
    assert drawn == [W] * (steps // W) + [steps % W] * (steps % W > 0)
    threads = {e["thread"] for e in log}
    assert (len(threads) == 2) == (where == "ring" and room is None)
    assert starts == expect_starts
    assert got.tobytes() == expect.tobytes()
    assert got_clamps.tobytes() == clamps.tobytes()
    assert clamps.sum() > 0


def _recorded(stream, poison=None, slow=None):
    """Replaces stream.fill by one that logs each window's shape, the thread
    that drew it and whether the draw has returned.  poison = (replicate,
    step, particle) is drawn as +inf; the draw of window number slow sleeps
    first, so that it is still running when the window before it ends."""
    log, fill = [], stream.fill

    def recorded(out):
        entry = {"shape": out.shape, "thread": threading.get_ident(),
                 "done": False}
        at = sum(e["shape"][1] for e in log)
        log.append(entry)
        try:
            if len(log) == slow:
                time.sleep(0.3)
            fill(out)
            if poison is not None and at <= poison[1] < at + out.shape[1]:
                # row i of the range is slot offset + i of the window
                block, slot = divmod(stream.offset + poison[0], 4)
                out[block, poison[1] - at, slot, poison[2]] = np.inf
            return out
        finally:
            entry["done"] = True

    stream.fill = recorded
    return log


@pytest.fixture
def idle_core(monkeypatch):
    """Two cores, so that a scan has one to draw ahead on."""
    monkeypatch.setattr(sde, "_cores", lambda: 2)


def test_raise_while_a_draw_is_pending(idle_core):
    # windows of 256 steps: the +inf is in window 2, and the draw of
    # window 3 is still running when the scan raises
    R, grid, (rep, step, particle) = 64, TimeGrid(0.0, 1.0, 5000), (5, 300, 2)
    stream = IncrementStream(30, range(R), grid, 4)
    log = _recorded(stream, poison=(rep, step, particle), slow=3)
    inc = ensemble_increments(30, range(R), grid, 4)
    inc[rep, particle, step] = np.inf
    with pytest.raises(NonFiniteError) as want:
        ensemble_scan(FOUR_PARTICLE, np.zeros(4), inc, 2.0, 0.01, 0.5)
    with pytest.raises(NonFiniteError) as got:
        ensemble_scan(FOUR_PARTICLE, np.zeros(4), stream, 2.0, 0.01, 0.5)
    assert (got.value.step, got.value.particle) == (
        want.value.step, want.value.particle)
    assert [e["shape"][1] for e in log] == [256, 256, 256]
    assert all(e["done"] for e in log)
    # the first window is drawn in place, the next ones on the draw thread
    assert log[0]["thread"] == threading.get_ident() != log[2]["thread"]


@pytest.mark.parametrize("where", ["one-core", "tile-thread"])
def test_no_idle_core_draws_in_place(monkeypatch, where):
    # on one core, or in a thread stepping one of mc's tiles, the scan
    # draws whole windows in place, one at a time: three chunks of 256
    # steps, the most that fit 1.5 MB
    R, grid = 64, TimeGrid(0.0, 1.0, 5000)
    stream = IncrementStream(30, range(R), grid, 4)
    log = _recorded(stream)
    monkeypatch.setattr(sde, "_cores", lambda: 1 if where == "one-core" else 2)
    sde._tile_thread.on = where == "tile-thread"
    try:
        got, got_clamps, _ = _scan_blocks(FOUR_PARTICLE, stream, 2.0, 0.5)
    finally:
        sde._tile_thread.on = False
    expect, clamps, _ = _scan_blocks(
        FOUR_PARTICLE, ensemble_increments(30, range(R), grid, 4), 2.0, 0.5)
    assert [e["shape"][1] for e in log] == [768] * 6 + [392]
    assert {e["thread"] for e in log} == {threading.get_ident()}
    assert got.tobytes() == expect.tobytes()
    assert got_clamps.tobytes() == clamps.tobytes()


@pytest.mark.parametrize(
    "R, steps, gammas, room",
    [(100, 10_000, [16.0, 64.0], None), (64, 5000, [2.0], None),
     (64, 1024, [2.0], None), (64, 2500, [2.0, 64.0], 100),
     (64, 1000, [2.0, 64.0], 100), (67, 3000, [2.0], None)],
    ids=["interlace-long", "ragged", "whole", "wide-ragged", "wide-whole",
         "cut"],
)
def test_two_windows_hold_no_more_than_one(idle_core, monkeypatch, R, steps,
                                           gammas, room):
    # the two buffers together hold at most one window: the whole chunks
    # that fit 1.5 MB of block-major (blocks, k, 4, P) noise, or 256 steps
    # if that is more; a path that fits that window is drawn whole, and
    # 1000 or 1024 steps do not
    P, grid = 4, TimeGrid(0.0, 1.0, steps)
    if room is not None:
        monkeypatch.setattr(sde, "_WINDOW_BYTES", 8 * R * P * room)
    stream = IncrementStream(30, range(R), grid, P)
    log = _recorded(stream)
    starts = []
    ensemble_scan(FOUR_PARTICLE, np.zeros(P), stream, gammas, 1e-4, None,
                  observe=lambda i0, block: starts.append(i0))
    chunk = starts[2] - starts[1]
    blocks = -(-R // 4)
    window = max(256, sde._WINDOW_BYTES // (8 * blocks * 4 * P))
    budget = window // chunk * chunk
    drawn = [e["shape"][1] for e in log]
    assert all(e["shape"] == (blocks, k, 4, P) for e, k in zip(log, drawn))
    assert sum(drawn) == steps
    if steps <= budget:
        assert drawn == [steps]
    else:
        assert max(a + b for a, b in zip(drawn, drawn[1:])) <= budget
    assert all(e["done"] for e in log)


def test_concurrent_streamed_scans(idle_core):
    # more scans than cores, each of three windows and its own draw thread;
    # every one steps what it steps alone
    grid, switch = TimeGrid(0.0, 1.0, 3000), sys.getswitchinterval()

    def run(seed):
        stream = IncrementStream(seed, range(16), grid, 4)
        got, clamps, _ = _scan_blocks(FOUR_PARTICLE, stream, [2.0, 64.0], 0.5)
        return got.tobytes() + clamps.tobytes()

    alone = [run(seed) for seed in range(6)]
    together = [None] * 6

    def worker(i):
        together[i] = run(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert together == alone


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_streamed_scan_in_a_forked_child(idle_core):
    # a child forked after the parent drew ahead draws ahead as well
    R, grid = 64, TimeGrid(0.0, 1.0, 3000)

    def run():
        stream = IncrementStream(30, range(R), grid, 4)
        got, clamps, _ = _scan_blocks(FOUR_PARTICLE, stream, [2.0, 64.0], 0.5)
        return got.tobytes() + clamps.tobytes()

    once = run()
    # the draw thread ends with the scan, so the fork copies one thread
    assert threading.active_count() == 1
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)
            code = 0 if run() == once else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 90
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0


_T = np.linspace(0.0, 2.0, 401)
_STACKED_CASES = {
    # gamma 2 clamps under the default cap
    "four-particle": (FOUR_PARTICLE, [2.0, 16.0, 64.0], None, {}),
    "four-particle-caps": (FOUR_PARTICLE, [2.0, 8.0], [0.5, 3.0], {}),
    "two-barrier": (
        Topology([1, -1, -1], [2, -1, -1]), [4.0, 32.0], 0.8,
        {"barriers": np.stack([-_T - 0.05, _T * _T + 0.05])},
    ),
    "triangle3-stacked": (Topology.triangle(3), [2.0, 8.0], None, {}),
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


_LEAST_GAP_CASES = {
    "triangle3-least-gap": (Topology.triangle(3), [2.0, 8.0], None, {}),
    # the cap of 0.5 makes columns step again, tamed; 3 is no power of four,
    # so gamma * gap rounds
    "four-particle-restepped": (FOUR_PARTICLE, [3.0, 64.0], 0.5, {}),
    "two-barrier": (
        Topology([1, -1, -1], [2, -1, -1]), [4.0, 32.0], 0.8,
        {"barriers": np.stack([-_T - 0.05, _T * _T + 0.05])},
    ),
    # the lower barrier jumps past the particle at the last grid point only,
    # so every least gap of (particle, barrier) falls there
    "least-at-end": (
        Topology([1, -1], [-1, -1]), 16.0, None,
        {"barriers": np.r_[np.full(_T.size - 1, -0.5), 5.0][None]},
    ),
}


@pytest.mark.parametrize("case", list(_LEAST_GAP_CASES))
def test_least_gap_matches_stored_paths(case):
    topology, gamma, cap, kw = _LEAST_GAP_CASES[case]
    R, M = 60, _T.size - 1
    fixed = kw.get("barriers", np.empty((0, M + 1)))
    P = topology.size - len(fixed)
    inc = ensemble_increments(23, range(R), TimeGrid(0.0, 1.0, M), P)
    least = np.full((len(topology.relations),) + np.shape(gamma) + (R,),
                    np.nan)
    states, clamps, starts = _scan_blocks(topology, inc, gamma, cap,
                                          least_gap=least, **kw)
    assert len(starts) > 2  # the path spans several chunks
    # every row, moving and fixed, at every grid index 0 .. M
    full = np.concatenate(
        [states, np.broadcast_to(fixed.T[:, :, None],
                                 (M + 1, len(fixed), states.shape[2]))],
        axis=1,
    )
    gaps = np.stack([full[:, hi] - full[:, lo]
                     for hi, lo in topology.relations])
    expect = gaps.min(axis=1).reshape(least.shape)
    assert least.tobytes() == expect.tobytes()
    if case == "four-particle-restepped":
        assert clamps.sum() > 0
    if case == "least-at-end":
        assert (gaps.argmin(axis=1) == M).all()


def test_least_gap_rejects_what_it_cannot_fill():
    inc = np.zeros((5, 3, 10))
    tri = Topology.triangle(2)
    with pytest.raises(ValueError, match="one value per relation"):
        ensemble_scan(tri, np.zeros(3), inc, [8.0, 16.0], 0.1, None,
                      least_gap=np.empty((2, 5)))
    # row 1 is fixed, yet its own relation to row 2 has no moving row
    fixed_pair = Topology([-1, -1, -1], [1, 2, -1])
    with pytest.raises(ValueError, match="bound a moving row"):
        ensemble_scan(fixed_pair, np.zeros(1), inc[:, :1], 8.0, 0.1, None,
                      barriers=np.zeros((2, 11)),
                      least_gap=np.empty((2, 5)))
