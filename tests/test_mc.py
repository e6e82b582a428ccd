import os
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from whittaker2d import (
    ModelConfig,
    PathBundle,
    SamplePath,
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
from whittaker2d import mc, sde
from whittaker2d.mc import DegenerateFitError, EmptySampleError
from whittaker2d.noise import IncrementStream, ensemble_increments
from whittaker2d.sde import NonFiniteError


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


@pytest.mark.parametrize(
    "hits, n, name",
    [(5, 3, "hits"), (-1, 10, "hits"), (2.5, 10, "hits"), (2, 10.0, "n")],
)
def test_wilson_interval_rejects_bad_counts(hits, n, name):
    # counts are integers with 0 <= hits <= n, not read through a float
    with pytest.raises(ValueError, match=f"^{name} must be"):
        wilson_interval(hits, n)
    assert wilson_interval(np.int64(3), np.int64(10)) == wilson_interval(3, 10)


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
    for gammas in ([4.0, 8.0], [4.0, 4.0, 8.0]):
        with pytest.raises(ValueError):
            ldp_slope(_cfg(1, 4.0), phi, 0.5, gammas, 100, seed=1)


@pytest.mark.parametrize("values", [
    [], [2.0], [4.0, 4.0, 8.0], [0.0, -0.0, 1.0], [3.0, np.nan, 1.0, np.nan],
    [np.nan], [np.inf, 1.0, np.inf, -np.inf],
])
def test_distinct_counts_as_unique_does(values):
    assert mc._distinct(np.array(values)) == np.unique(values).size


def test_ldp_slope_degenerate_when_no_hits():
    grid = TimeGrid(0.0, 1.0, 100)
    # unreachable target: constant 50 while the process starts at 0
    far = PathBundle.constant(
        1, grid, TriangularConfiguration(1, np.array([50.0]))
    )
    with pytest.raises(DegenerateFitError):
        ldp_slope(_cfg(1, 4.0), far, 0.1, [4.0, 8.0, 16.0], 50, seed=1)
    # hits only at the repeated gamma=2: no line through a single gamma
    rise = PathBundle.linear(1, grid, TriangularConfiguration.zeros(1),
                             TriangularConfiguration(1, np.array([1.0])))
    with pytest.raises(DegenerateFitError):
        ldp_slope(_cfg(1, 2.0), rise, 0.5, [2.0, 2.0, 500.0, 1000.0], 100,
                  seed=1)


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


@pytest.fixture
def cores(monkeypatch):
    """Sets the core count mc tiles for."""
    return lambda n: monkeypatch.setattr(mc, "_cores", lambda: n)


@pytest.fixture
def scorers(monkeypatch):
    """The set of threads that call mc's ensemble_scan or _free_maxdev
    from then on: the caller alone for a batch run inline, and for a batch
    cut in tiles the caller and the tile threads that its call starts."""
    threads = set()
    for name in ("ensemble_scan", "_free_maxdev"):
        def spy(*args, _score=getattr(mc, name), **kwargs):
            threads.add(threading.current_thread())
            return _score(*args, **kwargs)

        monkeypatch.setattr(mc, name, spy)
    return threads


_FREE_GRID = TimeGrid(0.0, 1.0, 500)
_FREE_PHI = PathBundle.linear(
    1, _FREE_GRID, TriangularConfiguration.zeros(1),
    TriangularConfiguration(1, np.array([0.5])),
)
_FREE_GAMMAS = np.array([8.0, 16.0, 32.0, 64.0])


@pytest.mark.parametrize(
    "reps, tile_reps",
    [(range(10, 9000), None), (range(2501), None), (range(7), 3)],
    ids=["range(10,9000)", "2501", "7"],
)
@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_free_particle_tiles_match_one_tile(cores, monkeypatch, n_cores,
                                            reps, tile_reps):
    # a free tile's noise counts half its bytes against _TILE_BYTES (2501
    # replicates: one tile; 7 replicates: tiles of at most 3, under a width
    # floor of one replicate), the count rounded up to a multiple of the
    # cores, none dividing the batch
    if tile_reps is not None:
        monkeypatch.setattr(mc, "_TILE_BYTES",
                            tile_reps * _FREE_GRID.steps * 4)
        monkeypatch.setattr(mc, "_MIN_TILE_WIDTH", _FREE_GRID.npoints)
    cores(n_cores)
    cfg = _cfg(1, 8.0)
    one = mc._free_maxdev(cfg, _FREE_GAMMAS, _FREE_GRID, _FREE_PHI.values,
                          11, reps)
    maxdev, clamps = mc._maxdev(cfg, _FREE_GAMMAS, _FREE_GRID,
                                _FREE_PHI.values, 11, reps)
    assert maxdev.shape == one.shape == (4, len(reps))
    assert maxdev.tobytes() == one.tobytes()
    assert not clamps.any()


def _cumsum_maxdev(x0, gammas, grid, phi_vals, seed, reps):
    """The free particle's max |path - phi| built the way np.cumsum
    builds a path: per gamma, whole rows summed, then x0 added."""
    inc = ensemble_increments(seed, reps, grid, 1)[:, 0, :]
    maxdev = np.empty((len(gammas), len(reps)))
    for row, gamma in zip(maxdev, gammas):
        paths = np.empty((len(reps), grid.npoints))
        paths[:, 0] = x0
        paths[:, 1:] = np.cumsum(inc / np.sqrt(gamma), axis=1) + x0
        row[:] = np.abs(paths - phi_vals[0]).max(axis=1)
    return maxdev


@pytest.mark.parametrize("reps", [range(1), range(3, 10), range(1250)],
                         ids=["R=1", "R=7", "R=1250"])
@pytest.mark.parametrize("gammas", [[8.0], [2.0, 8.0, 50.0, 1e4]],
                         ids=["G=1", "G=4"])
@pytest.mark.parametrize("x0", [0.0, 0.3])
@pytest.mark.parametrize("steps", [1, 1000])
def test_free_maxdev_matches_cumsum_paths(steps, x0, gammas, reps):
    # chunks of 256 steps, or of 52 and 13 for 1250 replicates at G = 1
    # and 4: none divides 1000 steps; phi starts at 0.1, not at x0
    grid = TimeGrid(0.0, 1.0, steps)
    cfg = ModelConfig(N=1, gamma=8.0,
                      initial=TriangularConfiguration(1, np.array([x0])))
    phi = PathBundle.linear(
        1, grid, TriangularConfiguration(1, np.array([0.1])),
        TriangularConfiguration(1, np.array([0.5])),
    )
    gammas = np.array(gammas)
    got = mc._free_maxdev(cfg, gammas, grid, phi.values, 7, reps)
    want = _cumsum_maxdev(x0, gammas, grid, phi.values, 7, reps)
    assert got.tobytes() == want.tobytes()


def test_free_particle_batch_under_a_tile_runs_inline(cores, scorers):
    cores(2)
    ldp_slope(_cfg(1, 8.0), _FREE_PHI, 0.25, _FREE_GAMMAS, 500, seed=2)
    assert scorers == {threading.current_thread()}


def _finishes(fn, timeout):
    """fn's value, once a daemon thread has run it within timeout s."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"still running after {timeout} s"
    return out[0]


def test_free_particle_tiles_under_caller_workers(cores, scorers):
    # each caller thread starts and waits on tile threads of its own
    cores(2)
    fits = []
    for workers in (1, 2):
        fits.append(_finishes(lambda: ldp_slope(
            _cfg(1, 8.0), _FREE_PHI, 0.25, _FREE_GAMMAS, 6000, seed=4,
            batch_size=3000, n_workers=workers), 120))
        if workers == 1:
            # one caller thread and, for each of two batches, a tile thread
            assert len(scorers) == 3
    assert fits[0].results == fits[1].results
    assert fits[0].slope == fits[1].slope


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_free_particle_tiles_in_a_forked_child(cores, scorers):
    cores(2)
    args = (_cfg(1, 8.0), _FREE_PHI, 0.25, _FREE_GAMMAS, 3000)
    fit = ldp_slope(*args, seed=6)
    assert len(scorers) == 2
    # no tile thread outlives the call, so the fork copies one thread
    assert threading.active_count() == 1
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)
            again = ldp_slope(*args, seed=6)
            code = 0 if (again.results, again.slope) == (
                fit.results, fit.slope) else 2
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


_STEP_GRID = TimeGrid(0.0, 0.25, 100)
_STEPPED = {
    "N=2": (_cfg(2, 8.0), PathBundle.linear(
        2, _STEP_GRID, TriangularConfiguration.zeros(2),
        TriangularConfiguration(2, np.array([-0.2125, 0.1, 0.2125])))),
    "drifted N=1": (_cfg(1, 8.0, drifts=np.array([0.3])), PathBundle.linear(
        1, _STEP_GRID, TriangularConfiguration.zeros(1),
        TriangularConfiguration(1, np.array([0.2])))),
}


@pytest.fixture
def small_tiles(monkeypatch):
    """Allows tiles of a few hundred state values and a few replicates'
    noise; returns the list of the replicate counts of the ensemble_scan
    calls mc makes from then on."""
    def allow():
        scans = []
        scan = mc.ensemble_scan

        def counted(topology, start, noise, *args, **kwargs):
            scans.append(noise.shape[0])
            return scan(topology, start, noise, *args, **kwargs)

        monkeypatch.setattr(mc, "ensemble_scan", counted)
        monkeypatch.setattr(mc, "_TILE_BYTES", 100_000)
        monkeypatch.setattr(mc, "_MIN_TILE_WIDTH", 600)
        return scans

    return allow


@pytest.mark.parametrize("case", list(_STEPPED))
@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_stepped_tiles_match_one_scan(cores, small_tiles, n_cores, case):
    # 1009 replicates: prime, so no tile count divides them
    cfg, phi = _STEPPED[case]
    gammas, reps = np.array([4.0, 8.0]), range(5, 1014)
    one = mc._maxdev(cfg, gammas, _STEP_GRID, phi.values, 13, reps)
    cores(n_cores)
    scans = small_tiles()
    tiled = mc._maxdev(cfg, gammas, _STEP_GRID, phi.values, 13, reps)
    assert len(scans) > 1 and sum(scans) == len(reps)
    assert [a.tobytes() for a in tiled] == [a.tobytes() for a in one]


@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_interlace_tiles_match_one_scan(cores, small_tiles, n_cores):
    args = ([4.0, 64.0], 1009, 21)
    kwargs = dict(dt=0.01, margin_scale=0.05, batch_size=1009)
    one = interlace_event_frequency(*args, **kwargs)
    cores(n_cores)
    scans = small_tiles()
    tiled = interlace_event_frequency(*args, **kwargs)
    assert len(scans) > 1 and sum(scans) == 1009
    assert tiled == one
    assert 0 < one[1].c_violation < one[0].c_violation < 1


@pytest.mark.parametrize("n_cores", [2, 3])
def test_tiles_draw_each_noise_block_once(cores, small_tiles, monkeypatch,
                                          n_cores):
    # 1009 replicates from 5: cut at R * i // n, neighbouring tiles would
    # share the block of four that holds the cut
    drawn = []
    draw = mc.ensemble_increments

    def recorded(seed, reps, *args):
        drawn.append(reps)
        return draw(seed, reps, *args)

    class Recorded(IncrementStream):
        def __init__(self, seed, replicates, *args):
            drawn.append(replicates)
            super().__init__(seed, replicates, *args)

    monkeypatch.setattr(mc, "ensemble_increments", recorded)
    monkeypatch.setattr(mc, "IncrementStream", Recorded)
    cores(n_cores)
    small_tiles()
    reps = range(5, 1014)
    free_cfg, (cfg, phi) = _cfg(1, 8.0), _STEPPED["N=2"]
    for tiled in (
        lambda: mc._maxdev(free_cfg, _FREE_GAMMAS, _FREE_GRID,
                           _FREE_PHI.values, 11, reps),
        lambda: mc._maxdev(cfg, np.array([4.0, 8.0]), _STEP_GRID,
                           phi.values, 13, reps),
    ):
        drawn.clear()
        tiled()
        tiles = sorted(drawn, key=lambda t: t.start)
        assert len(tiles) > 2 and all(tiles)
        assert [t.start for t in tiles[1:]] == [t.stop for t in tiles[:-1]]
        assert (tiles[0].start, tiles[-1].stop) == (reps.start, reps.stop)
        blocks = [range(t[0] // mc._Q, t[-1] // mc._Q + 1) for t in tiles]
        assert sum(map(len, blocks)) == len(set().union(*blocks))


def test_tile_scans_draw_in_place(cores, small_tiles, monkeypatch):
    # with one tile per core no core is idle: each tile's scan draws its
    # 2500 steps in place, in a window of at least 2048 and the rest, on
    # the thread that steps it; an inline scan draws ahead on a thread of
    # its own
    drawn, fill = [], IncrementStream.fill

    def recorded(stream, out):
        drawn.append((threading.get_ident(), out.shape[1],
                      getattr(sde._tile_thread, "on", False)))
        return fill(stream, out)

    monkeypatch.setattr(IncrementStream, "fill", recorded)
    monkeypatch.setattr(sde, "_cores", lambda: 2)
    args, kwargs = ([4.0, 64.0], 200, 21), dict(dt=4e-4, batch_size=200)
    one = interlace_event_frequency(*args, **kwargs)
    assert len({t for t, _, _ in drawn}) == 2
    assert not any(on for _, _, on in drawn)
    cores(2)
    scans = small_tiles()
    drawn.clear()
    tiled = interlace_event_frequency(*args, **kwargs)
    assert scans == [100, 100]
    assert tiled == one
    assert all(on for _, _, on in drawn)
    for thread in {t for t, _, _ in drawn}:
        windows = [k for t, k, _ in drawn if t == thread]
        assert len(windows) == 2 and windows[0] >= 2048
        assert sum(windows) == 2500
    assert not getattr(sde._tile_thread, "on", False)


def test_interlace_long_shape_runs_inline(cores, scorers):
    # 100 replicates x 2 gammas x 4 rows: 800 values per call
    cores(2)
    interlace_event_frequency([16.0, 64.0], 100, seed=3, dt=1e-4,
                              batch_size=100)
    assert scorers == {threading.current_thread()}


def test_stepped_tiles_under_caller_workers(cores, scorers):
    # each caller thread starts and waits on stepped tile threads of its own
    cores(2)
    cfg, phi = _STEPPED["N=2"]
    est = []
    for workers in (1, 2):
        est.append(_finishes(lambda: smallball_probability(
            cfg, phi, 0.3, 8000, seed=4, batch_size=4000,
            n_workers=workers), 120))
        if workers == 1:
            # one caller thread and, for each of two batches, a tile thread
            assert len(scorers) == 3
    assert est[0] == est[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_stepped_tiles_in_a_forked_child(cores, scorers):
    cores(2)
    cfg, phi = _STEPPED["N=2"]
    est = smallball_probability(cfg, phi, 0.3, 4000, seed=6)
    assert len(scorers) == 2
    # no tile thread outlives the call, so the fork copies one thread
    assert threading.active_count() == 1
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)
            again = smallball_probability(cfg, phi, 0.3, 4000, seed=6)
            code = 0 if again == est else 2
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


def test_no_thread_outlives_a_call(cores, monkeypatch):
    # free-particle and stepped tiles, an inline scan that draws ahead
    # (interlace-long's shape) and the coupling, on two cores: every thread
    # a call starts is joined before it returns
    cores(2)
    monkeypatch.setattr(sde, "_cores", lambda: 2)
    cfg, phi = _STEPPED["N=2"]
    for call in (
        lambda: ldp_slope(_cfg(1, 8.0), _FREE_PHI, 0.25, _FREE_GAMMAS, 3000,
                          seed=6),
        lambda: smallball_probability(cfg, phi, 0.3, 4000, seed=6),
        lambda: interlace_event_frequency([16.0, 64.0], 100, seed=3,
                                          dt=1e-4, batch_size=100),
        lambda: equivalence_experiment(16.0, 0.1, _STEP_GRID, 300, seed=1),
    ):
        before = threading.enumerate()
        call()
        assert threading.enumerate() == before


class _Poisoned(IncrementStream):
    """A stream whose draw of (replicate, step, particle) in POISON is
    +inf."""

    POISON = [(100, 9, 0), (700, 4, 2), (1000, 4, 1)]

    def __init__(self, seed, replicates, grid, n_streams):
        super().__init__(seed, replicates, grid, n_streams)
        self.reps, self.at = replicates, 0

    def fill(self, out):
        super().fill(out)
        k = out.shape[1]
        for rep, step, particle in self.POISON:
            if rep in self.reps and self.at <= step < self.at + k:
                out[self.reps.index(rep), step - self.at, particle] = np.inf
        self.at += k
        return out


@pytest.mark.parametrize("n_cores", [2, 3])
def test_non_finite_tile_raises_what_one_scan_does(cores, small_tiles,
                                                   monkeypatch, n_cores):
    # tiles stop at steps 10 and 5; one scan reports the earliest step,
    # then the lowest replicate there (700, not 1000), and its particle
    monkeypatch.setattr(mc, "IncrementStream", _Poisoned)
    cfg, phi = _STEPPED["N=2"]

    def call():
        smallball_probability(cfg, phi, 0.3, 1009, seed=8, batch_size=1009)

    with pytest.raises(NonFiniteError) as one:
        call()
    cores(n_cores)
    scans = small_tiles()
    with pytest.raises(NonFiniteError) as tiled:
        call()
    assert len(scans) > 2
    assert (tiled.value.step, tiled.value.particle) == (
        one.value.step, one.value.particle) == (5, 2)


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


def _equivalence_reference(gamma, eta, grid, n_samples, seed):
    """The coupling from the two single-particle steppers, each stepping
    the stored increments of one batch and keeping whole paths."""
    lower = SamplePath.constant(grid, -0.05)
    upper = SamplePath.constant(grid, eta + 0.2)
    budget = sde._gap_budget(gamma, eta, grid)
    tube, gap = [], []
    for r0 in range(0, n_samples, mc._EQUIVALENCE_BATCH):
        reps = range(r0, min(n_samples, r0 + mc._EQUIVALENCE_BATCH))
        inc = ensemble_increments(seed, reps, grid, 1)[:, 0, :]
        full = sde.simulate_two_barrier(lower, upper, inc, 0.0, gamma)
        twin = sde.simulate_lower_barrier_euler(lower, inc, 0.0, gamma)
        tube.append(np.max(full - upper.values, axis=1) <= -eta)
        gap.append(np.max(np.abs(twin - full), axis=1))
    tube, gap = np.concatenate(tube), np.concatenate(gap)
    return mc.EquivalenceReport(
        gamma=gamma,
        eta=eta,
        budget=budget,
        n_samples=n_samples,
        n_in_tube=int(np.count_nonzero(tube)),
        n_violations=int(np.count_nonzero(tube & (gap > budget))),
        max_gap_in_tube=float(np.max(gap[tube])) if tube.any() else 0.0,
    )


@pytest.mark.parametrize("gamma", [8.0, 32.0])
@pytest.mark.parametrize("eta", [0.0, 0.1])
def test_equivalence_equals_two_single_particle_scans(gamma, eta):
    # 2500 samples span two batches; every field must match exactly
    n_samples = 2500
    assert mc._EQUIVALENCE_BATCH < n_samples
    grid = TimeGrid.from_dt(0.0, 1.0, 1e-3)
    want = _equivalence_reference(gamma, eta, grid, n_samples, 23)
    assert want.n_in_tube > 0
    assert equivalence_experiment(gamma, eta, grid, n_samples, 23) == want


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
    ],
    ids=["smallball_probability", "ldp_slope", "interlace_event_frequency"],
)
def test_batch_size_below_one_rejected(call):
    # a batch of 0 would never advance through the replicates
    for b in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            call(b)


# each estimator's reported n_samples, on a ball wide enough that every
# replicate hits
_REPORTED_N_SAMPLES = {
    "smallball_probability": lambda n, **kw: smallball_probability(
        _cfg(1, 4.0), _FLAT1, 10.0, n, seed=1, **kw).n_samples,
    "ldp_slope": lambda n, **kw: ldp_slope(
        _cfg(1, 4.0), _FLAT1, 10.0, [2.0, 4.0, 8.0], n, seed=1,
        **kw).results[0].n_samples,
    "interlace_event_frequency": lambda n, **kw: interlace_event_frequency(
        [16.0], n, seed=1, dt=0.1, **kw)[0].n_samples,
    "equivalence_experiment": lambda n: equivalence_experiment(
        16.0, 0.1, _FLAT1.grid, n, seed=1).n_samples,
}


@pytest.mark.parametrize("name", list(_REPORTED_N_SAMPLES))
def test_non_integer_counts_rejected_at_the_boundary(name):
    reported = _REPORTED_N_SAMPLES[name]
    for bad in (2.5, "10", None):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            reported(bad)
    if name != "equivalence_experiment":  # its batch size is fixed
        with pytest.raises(ValueError, match="batch_size must be an integer"):
            reported(10, batch_size=2.0)
    # a bool or numpy integer is reported as the plain int it stands for
    for n in (True, np.int64(3)):
        got = reported(n)
        assert type(got) is int and got == int(n)


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
