"""Monte Carlo experiments tying the simulator to the asymptotic theory.

All estimators are plain-frequency Monte Carlo over replicate-indexed noise
streams: replicate r always consumes the same increments no matter how the
work is batched, tiled or threaded, so results are bit-identical across
worker counts and tile counts, and hit counts reduce by integer sums.  One
tiling rule (_tiled) cuts each batch that is wide enough into contiguous
tiles of replicates, at multiples of the noise's blocks of four, scored on
the usable cores by the calling thread and threads of the call's own,
joined before it returns: a free-particle tile draws its noise and walks
every gamma's path time-major in one running sum, and every other tile
draws its own noise stream and runs its own ensemble_scan, while a narrow
batch runs as one inline scan.
Each scan's states are reduced to per-replicate extremes as they are
stepped: by an observer of |T - phi| for the small-ball estimators, and for
interlace_event_frequency and equivalence_experiment from the least gap of
each order relation that ensemble_scan reports, with an observer only of
the one gap that is no relation (T+ - T- for event C, |twin - full| for the
coupling).
smallball_probability, ldp_slope (in its per-gamma results) and
interlace_event_frequency report the fraction of replicates whose drift was
clamped; only EstimatorResult, the result of the first two, flags more than
CONTAMINATION_LIMIT (1%) of them as not trusted.  equivalence_experiment
reports no clamps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    InterlaceBounds,
    ModelConfig,
    PathBundle,
    TimeGrid,
    Topology,
    _count,
    tri_offset,
    tri_size,
)
from .noise import _Q, IncrementStream, ensemble_increments
from .rate import default_coincidence_eps, total_rate
from .sde import (
    _CHUNK_BYTES,
    _MAX_CHUNK,
    NonFiniteError,
    _cores,
    _gap_budget,
    _tile_thread,
    ensemble_scan,
)

__all__ = [
    "EstimatorResult",
    "SlopeFit",
    "InterlaceFrequencies",
    "EquivalenceReport",
    "wilson_interval",
    "smallball_probability",
    "ldp_slope",
    "interlace_event_frequency",
    "equivalence_experiment",
]

CONTAMINATION_LIMIT = 0.01


class EmptySampleError(ValueError):
    """An estimator was asked for zero replicates."""


class DegenerateFitError(RuntimeError):
    """Fewer than two distinct gamma points with nonzero hit counts."""


def wilson_interval(hits: int, n: int):
    """95% Wilson score interval for a binomial proportion: hits successes
    in n trials, integer counts with 0 <= hits <= n."""
    hits, n = _count("hits", hits), _count("n", n)
    if n <= 0:
        raise EmptySampleError("need at least one sample")
    if not 0 <= hits <= n:
        raise ValueError(f"hits must be in [0, n={n}], got {hits}")
    p = hits / n
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, float(center - half)), min(1.0, float(center + half))


@dataclass(frozen=True)
class EstimatorResult:
    p_hat: float
    ci_low: float
    ci_high: float
    hits: int
    n_samples: int
    gamma: float
    delta: float
    clamp_contamination: float

    @property
    def trusted(self) -> bool:
        return self.clamp_contamination <= CONTAMINATION_LIMIT


def _batches(n: int, size: int):
    start = 0
    while start < n:
        stop = min(start + size, n)
        yield range(start, stop)
        start = stop


def _distinct(values: np.ndarray) -> int:
    """np.unique(values).size, every NaN one value, without np.unique,
    whose first call imports numpy.ma."""
    a = np.sort(values)  # NaNs last, where every comparison is false
    nan = np.isnan(a)
    return (int(np.count_nonzero(a[1:] > a[:-1]))
            + bool((~nan).any()) + bool(nan.any()))


def _checked_gammas(gammas, n_samples: int, batch_size: int):
    """(gammas as a float array, n_samples, batch_size as ints), once every
    gamma is positive and finite, both counts are integers, n_samples is
    positive and batch_size is at least 1 (a smaller one would make no
    progress)."""
    n_samples = _count("n_samples", n_samples)
    batch_size = _count("batch_size", batch_size)
    if n_samples <= 0:
        raise EmptySampleError("n_samples must be positive")
    gammas = np.asarray(gammas, dtype=float)
    if not np.all(np.isfinite(gammas) & (gammas > 0)):
        raise ValueError("gamma must be positive and finite")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    return gammas, n_samples, batch_size


# The tiling rule, one for every estimator.  A batch of R replicates, each
# holding nbytes in its tile and adding width values to each numpy call of
# the tile, is cut into as few contiguous tiles as keep each under
# _TILE_BYTES, their count rounded up to a multiple of the usable cores, but
# into no more than leave each tile _MIN_TILE_WIDTH values per call (rounded
# down to a multiple of the cores); a batch that makes one tile runs inline.
# A free-particle tile holds only its (R, M) noise, as it walks its paths
# time-major through chunk buffers of about 512 KB, so its noise counts half
# its bytes: a tile keeps the 10 MB that its noise and a whole (R, M+1) path
# buffer took together.  On 2 cores the slope-free batch (2500 replicates,
# M = 1000, 4 gammas) makes two tiles of 1250, and an ldp_slope call took
# 67-72 ms (medians of 60 calls), against 77-85 ms in four tiles of 625 and
# 87-92 ms when each tile summed one whole path per gamma.  Its width counts
# a path's M+1 values, which its chunks' calls cover, so the width floor
# never binds a batch that the byte rule cuts.
# A stepped tile holds its noise, and a narrow one loses to the interpreter
# overhead of each step's calls: on 2 cores, in medians of fresh processes,
# the smallball-tri shape (4000 replicates, N = 2, M = 250) took 0.46-0.50 s
# in one scan, 0.31-0.39 s in two tiles of 2000 replicates (6000 values per
# call) and 0.41-0.45 s in four of 1000.  A criterion-8 batch (20,000
# replicates) took 0.87-0.94 s and 157 MB in one scan, 0.66-0.69 s and 64 MB
# in ten tiles of 2000, 0.53-0.72 s and 99 MB in four of 5000; on one core
# its ten tiles, run in turn, took 0.62-0.77 s against 0.71-0.85 s.  The
# criterion-7 shape (2000 replicates, 2 gammas, 4 rows) went from 0.58 to
# 0.40 s in two tiles, while interlace-long's 100 replicates, 800 values per
# call, stay inline.  An inline scan draws each next noise window on an idle
# core (see sde); a tile's scan draws in place, as at one tile per core none
# is idle.
_TILE_BYTES = 5 << 20
_MIN_TILE_WIDTH = 6000


def _tiled(score, reps, nbytes, width):
    """score(reps), a tuple of arrays whose last axis is the replicate,
    computed in contiguous tiles of reps by the tiling rule above and
    concatenated in replicate order.  A replicate's stream depends only on
    its key, so the result is score(reps)'s, byte for byte."""
    R = len(reps)
    n = -(-R * nbytes // _TILE_BYTES)
    cores = _cores()
    if n > 1 and cores > 1:
        n = -(-n // cores) * cores
    widest = R * width // _MIN_TILE_WIDTH
    if widest > cores:
        widest -= widest % cores
    n = min(n, widest, R)
    # every cut at a multiple of _Q, so that no noise block is drawn by two
    # tiles; a cut that rounds onto the one before it makes no tile
    a, z = reps.start, reps.stop
    cuts = [a, *(max(a, (a + R * i // n) // _Q * _Q) for i in range(1, n)), z]
    tiles = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    n = len(tiles)
    if n <= 1:
        return score(reps)
    from concurrent.futures import ThreadPoolExecutor
    workers = min(n, cores)

    def run(w):
        # every core steps a tile, so the scans draw their noise in place
        _tile_thread.on = True
        try:
            return [score(t) for t in tiles[w::workers]]
        finally:
            _tile_thread.on = False

    parts = [None] * n
    try:
        # the caller scores share 0; leaving the block joins the others
        with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
            futures = [pool.submit(run, w) for w in range(1, workers)]
            parts[::workers] = run(0)
        for w, f in enumerate(futures, 1):
            parts[w::workers] = f.result()
    except NonFiniteError:
        # each tile stops at its own first non-finite step; one scan of the
        # batch raises at the earliest of them, at its lowest column
        return score(reps)
    return tuple(np.concatenate(a, axis=-1) for a in zip(*parts))


def _free_maxdev(config, gammas, grid, phi_vals, seed, reps):
    """_maxdev of the free particle for one tile of replicates, walked
    time-major in chunks of K steps, every gamma at once: each step adds
    one (G, R) row of scaled increments to the last, the left fold that
    np.cumsum makes along a path, then x0 is added (unless 0) and the
    running max of |path - phi| taken.  Only the noise is (R, M); the
    chunk buffers hold about 512 KB each."""
    inc = ensemble_increments(seed, reps, grid, 1)[:, 0, :]
    x0 = config.initial.entries[0]
    G, R, M = len(gammas), len(reps), grid.steps
    K = max(1, min(M, _MAX_CHUNK, _CHUNK_BYTES // (8 * max(G * R, 1))))
    roots = np.sqrt(gammas)[:, None]
    # sums[0] carries the last sum of the chunk before
    sums, dev = np.empty((K + 1, G, R)), np.empty((K, G, R))
    rows = list(sums)
    steps = np.empty((K, 1, R))  # the chunk's increments, step-major
    maxdev = np.full((G, R), abs(x0 - phi_vals[0, 0]))
    add = np.add
    for i0 in range(0, M, K):
        k = min(K, M - i0)
        # transposed once, not once per gamma: the divide then reads rows
        steps[:k, 0] = inc[:, i0 : i0 + k].T
        np.divide(steps[:k], roots, out=sums[1 : k + 1])
        # the first step's sum is its increment
        for j in range(2 if i0 == 0 else 1, k + 1):
            add(rows[j - 1], rows[j], rows[j])
        path, d = sums[1 : k + 1], dev[:k]
        if x0 != 0.0:
            path = np.add(path, x0, out=d)
        np.subtract(path, phi_vals[0, i0 + 1 : i0 + k + 1, None, None], out=d)
        np.abs(d, out=d)
        np.maximum(maxdev, d.max(axis=0), out=maxdev)
        sums[0] = sums[k]
    return maxdev


def _maxdev(
    config: ModelConfig,
    gammas: np.ndarray,
    grid: TimeGrid,
    phi_vals: np.ndarray,
    seed: int,
    reps: range,
):
    """Per-replicate sup deviation from the target bundle at each gamma,
    plus clamp counts, both of shape (G, R), for the replicates reps of
    seed."""
    if config.N == 1 and float(config.drifts[0]) == 0.0:
        # a free tile holds only its noise, counted at half its bytes
        (maxdev,) = _tiled(
            lambda tile: (_free_maxdev(config, gammas, grid, phi_vals, seed,
                                       tile),),
            reps, grid.steps * 4, grid.npoints,
        )
        return maxdev, np.zeros(maxdev.shape, dtype=int)
    P = tri_size(config.N)
    drifts = np.repeat(config.drifts, np.arange(1, config.N + 1))

    def score(tile):
        maxdev = np.zeros(gammas.size * len(tile))
        buf = np.empty((0, P, maxdev.size))

        def observe(i0, block):
            # |block - phi| into a buffer kept across chunks
            nonlocal buf
            if len(buf) < len(block):
                buf = np.empty(block.shape)
            dev = buf[: len(block)]
            np.subtract(block, phi_vals[:, i0 : i0 + len(block)].T[:, :, None],
                        out=dev)
            np.abs(dev, out=dev)
            np.maximum(maxdev, np.max(dev, axis=(0, 1)), out=maxdev)

        clamps = ensemble_scan(
            Topology.triangle(config.N), config.initial.entries,
            IncrementStream(seed, tile, grid, P),
            gammas, grid.dt, config.drift_cap,
            drifts=drifts, observe=observe,
        )
        return maxdev.reshape(clamps.shape), clamps

    return _tiled(score, reps, grid.steps * P * 8, gammas.size * P)


def _smallball(config, gammas, phi, delta, n_samples, seed, batch_size,
               n_workers):
    """One EstimatorResult per gamma, all scored on the same replicates.

    Each batch of increments is drawn once and stepped at every gamma in
    one scan, so replicate r sees the same noise at all of them."""
    stacked, n_samples, batch_size = _checked_gammas(
        gammas, n_samples, batch_size
    )
    if not delta > 0:  # NaN fails too
        raise ValueError(f"delta must be positive, got {delta}")
    if phi.N != config.N:
        raise ValueError("target bundle N does not match config")
    grid = phi.grid

    def work(reps):
        maxdev, clamps = _maxdev(config, stacked, grid, phi.values, seed, reps)
        return np.stack([np.count_nonzero(maxdev <= delta, axis=1),
                         np.count_nonzero(clamps > 0, axis=1)], axis=1)

    batches = list(_batches(n_samples, batch_size))
    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(work, batches))
    else:
        parts = [work(b) for b in batches]
    totals = np.sum(parts, axis=0)
    results = []
    for gamma, (hits, clamped) in zip(gammas, totals.tolist()):
        lo, hi = wilson_interval(hits, n_samples)
        results.append(EstimatorResult(
            p_hat=hits / n_samples,
            ci_low=lo,
            ci_high=hi,
            hits=hits,
            n_samples=n_samples,
            gamma=gamma,
            delta=delta,
            clamp_contamination=clamped / n_samples,
        ))
    return results


def smallball_probability(
    config: ModelConfig,
    phi: PathBundle,
    delta: float,
    n_samples: int,
    seed: int,
    batch_size: int = 5000,
    n_workers: int = 1,
) -> EstimatorResult:
    """Fraction of replicates staying within sup-norm delta of the target
    bundle across every particle, with a 95% Wilson interval."""
    return _smallball(
        config, [config.gamma], phi, delta, n_samples, seed, batch_size,
        n_workers,
    )[0]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of -log p_hat against gamma.

    per_gamma_slope entries are -log(p_hat)/gamma, +inf where no replicate
    hit (the estimator's sentinel for a super-exponentially small target).
    Only gamma points with p_hat > 0 enter the fitted slope.
    """

    gammas: np.ndarray
    minus_log_p: np.ndarray
    per_gamma_slope: np.ndarray
    slope: float
    intercept: float
    predicted_rate: float
    results: tuple

    @property
    def usable(self) -> np.ndarray:
        return np.isfinite(self.minus_log_p)


def ldp_slope(
    config: ModelConfig,
    phi: PathBundle,
    delta: float,
    gammas,
    n_samples: int,
    seed: int,
    batch_size: int = 5000,
    n_workers: int = 1,
) -> SlopeFit:
    """Estimate the exponential decay rate of the small-ball probability.

    Draws each batch of replicates' Brownian increments once and scores it
    at every gamma, so every gamma sees replicate r's same increments
    (common random numbers): the per-gamma estimates are correlated, not
    independent, and each equals smallball_probability at that gamma with
    the same seed.  Then regresses -log p_hat on gamma.  The action of the
    target bundle, at eps = default_coincidence_eps(dt, min gamma), is
    attached for comparison.
    """
    gammas = np.asarray(sorted(gammas), dtype=float)
    if _distinct(gammas) < 3:
        raise ValueError(f"need three distinct gammas, got {gammas.tolist()}")
    results = _smallball(
        config, gammas.tolist(), phi, delta, n_samples, seed, batch_size,
        n_workers,
    )
    p = np.array([r.p_hat for r in results])
    with np.errstate(divide="ignore"):
        mlp = -np.log(p)
    per_gamma = mlp / gammas
    usable = np.isfinite(mlp)
    if _distinct(gammas[usable]) < 2:
        raise DegenerateFitError(
            "fewer than two distinct gammas with nonzero hits"
        )
    slope, intercept = np.polyfit(gammas[usable], mlp[usable], 1)
    eps = default_coincidence_eps(phi.grid.dt, float(np.min(gammas)))
    predicted = total_rate(phi, config, eps).total
    return SlopeFit(
        gammas=gammas,
        minus_log_p=mlp,
        per_gamma_slope=per_gamma,
        slope=float(slope),
        intercept=float(intercept),
        predicted_rate=float(predicted),
        results=tuple(results),
    )


# ---------------------------------------------------------------------------
# almost-interlaced event frequencies (four-particle system)

# T0, T+, T-, T are the triangle's (1,1), (2,1), (2,2) and (3,2); its
# relations are T+ - T0, T0 - T-, T+ - T and T - T-, in that order: A reads
# the least of the first two, B of the next two.  C reads the same-level gap
# T+ - T-, which is no relation, so it is observed
_FOUR_PARTICLE = Topology.triangle(3).restrict(
    [tri_offset(1, 1), tri_offset(2, 1), tri_offset(2, 2), tri_offset(3, 2)]
)


@dataclass(frozen=True)
class InterlaceFrequencies:
    """Violation frequencies of the slack-interlacing events at one gamma.

    Margins: A uses f = 1/sqrt(gamma) on (T+ - T0) and (T0 - T-), B uses
    2g = 4f on (T+ - T) and (T - T-), C uses g = 2f on (T+ - T-).  A and B
    read the least gap of each order relation that the scan reports, C the
    least same-level gap that its observer keeps; each is taken over every
    grid index.
    """

    gamma: float
    n_samples: int
    a_violation: float
    b_violation: float
    c_violation: float
    clamp_contamination: float
    margins: InterlaceBounds


def interlace_event_frequency(
    gammas,
    n_samples: int,
    seed: int,
    dt: float = 1e-4,
    margin_scale: float = 1.0,
    batch_size: int = 1000,
) -> list[InterlaceFrequencies]:
    """Violation frequencies for the four-particle system from zero starts.

    Each batch is drawn once and stepped at every gamma in one scan.  dt
    must divide [0, 1] (TimeGrid.from_dt).  margin_scale multiplies every
    margin (frequencies must not increase when the margins are widened).
    """
    gammas, n_samples, batch_size = _checked_gammas(
        gammas, n_samples, batch_size
    )
    grid = TimeGrid.from_dt(0.0, 1.0, dt)
    if gammas.size == 0:
        return []
    margins = [
        InterlaceBounds(margin_scale * InterlaceBounds.from_gamma(g).f)
        for g in gammas
    ]
    f_col = np.c_[[m.f for m in margins]]
    g_col = np.c_[[m.g for m in margins]]
    # per gamma: a, b, c violations and clamped replicates
    bad = np.zeros((4, gammas.size), dtype=int)

    def score(tile):
        # (relation, gamma, replicate)
        least = np.empty((len(_FOUR_PARTICLE.relations), gammas.size,
                          len(tile)))
        c_min = np.full(gammas.size * len(tile), np.inf)
        buf = np.empty((0, c_min.size))

        def observe(i0, block):
            # T+ - T- into a buffer kept across chunks
            nonlocal buf
            if len(buf) < len(block):
                buf = np.empty(block[:, 0].shape)
            gap = buf[: len(block)]
            np.subtract(block[:, 1], block[:, 2], out=gap)
            np.minimum(c_min, gap.min(axis=0), out=c_min)

        clamps = ensemble_scan(
            _FOUR_PARTICLE, np.zeros(4), IncrementStream(seed, tile, grid, 4),
            gammas, grid.dt, None, observe=observe, least_gap=least,
        )
        return least, c_min.reshape(clamps.shape), clamps

    for reps in _batches(n_samples, batch_size):
        m, c_min, clamps = _tiled(score, reps, grid.steps * 4 * 8,
                                  gammas.size * 4)
        bad += [
            np.count_nonzero(np.min(m[0:2], axis=0) < -f_col, axis=1),
            np.count_nonzero(np.min(m[2:4], axis=0) < -2 * g_col, axis=1),
            np.count_nonzero(c_min < -g_col, axis=1),
            np.count_nonzero(clamps > 0, axis=1),
        ]
    return [
        InterlaceFrequencies(
            gamma=float(gamma),
            n_samples=n_samples,
            a_violation=int(n_a) / n_samples,
            b_violation=int(n_b) / n_samples,
            c_violation=int(n_c) / n_samples,
            clamp_contamination=int(n_clamped) / n_samples,
            margins=m,
        )
        for gamma, m, (n_a, n_b, n_c, n_clamped) in zip(gammas, margins, bad.T)
    ]


# ---------------------------------------------------------------------------
# exponential-equivalence coupling


_EQUIVALENCE_BATCH = 2000  # replicates per equivalence_experiment batch
# rows: the two-barrier particle, its lower-barrier twin, lower, upper
_COUPLING = Topology([2, 2, -1, -1], [3, -1, -1, -1])
_CLEARANCE = _COUPLING.relations.index((3, 0))  # upper - the particle


@dataclass(frozen=True)
class EquivalenceReport:
    gamma: float
    eta: float
    budget: float
    n_samples: int
    n_in_tube: int
    n_violations: int
    max_gap_in_tube: float

    @property
    def violation_fraction(self) -> float:
        return self.n_violations / self.n_in_tube if self.n_in_tube else 0.0


def equivalence_experiment(
    gamma: float,
    eta: float,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
) -> EquivalenceReport:
    """Couple the two-barrier particle with its lower-barrier-only twin.

    Both start at 0, between the constant barriers -0.05 and eta + 0.2, as
    the two moving rows of one tamed Euler scan under identical noise, so
    the observed gap isolates the dynamics difference; only per-replicate
    maxima are kept.  A replicate is in-tube when its two-barrier path keeps
    clearance eta below the upper barrier throughout, read from the least
    gap of that relation that the scan reports; for those replicates the
    sup gap must not exceed exp(-gamma*eta/2) * (b-a).
    """
    _, n_samples, _ = _checked_gammas(gamma, n_samples, _EQUIVALENCE_BATCH)
    if not 0.0 <= eta < np.inf:  # NaN fails too
        raise ValueError(f"eta must be nonnegative and finite, got {eta}")
    upper = eta + 0.2
    barriers = np.array([[-0.05], [upper]]).repeat(grid.npoints, axis=1)
    budget = _gap_budget(gamma, eta, grid)
    in_tube, violations, max_gap = 0, 0, 0.0
    for reps in _batches(n_samples, _EQUIVALENCE_BATCH):
        inc = ensemble_increments(seed, reps, grid, 1)
        # per replicate: each relation's least gap and max |twin - full|
        least = np.empty((len(_COUPLING.relations), len(reps)))
        gap = np.zeros(len(reps))

        def observe(i0, block):
            np.maximum(gap, np.abs(block[:, 1] - block[:, 0]).max(0), out=gap)

        pair = np.broadcast_to(inc, (len(reps), 2, grid.steps))
        ensemble_scan(_COUPLING, np.zeros(2), pair, gamma, grid.dt, None,
                      barriers=barriers, observe=observe, least_gap=least)
        tube = least[_CLEARANCE] >= eta
        in_tube += int(np.count_nonzero(tube))
        violations += int(np.count_nonzero(tube & (gap > budget)))
        max_gap = max(max_gap, float(gap[tube].max(initial=0.0)))
    return EquivalenceReport(
        gamma=gamma,
        eta=eta,
        budget=budget,
        n_samples=n_samples,
        n_in_tube=in_tube,
        n_violations=violations,
        max_gap_in_tube=max_gap,
    )
