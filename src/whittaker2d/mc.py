"""Monte Carlo experiments tying the simulator to the asymptotic theory.

All estimators are plain-frequency Monte Carlo over replicate-indexed noise
streams: replicate r always consumes the same increments no matter how the
work is batched or threaded, so results are bit-identical across worker
counts, and hit counts reduce by integer sums.  Every estimator reports the
fraction of replicates whose drift was clamped; experiments with more than
1% contamination should not be trusted and are flagged.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    InterlaceBounds,
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    Topology,
    tri_offset,
    tri_size,
)
from .noise import IncrementStream, ensemble_increments
from .rate import default_coincidence_eps, total_rate
from .sde import (
    _gap_budget,
    ensemble_scan,
    simulate_lower_barrier_euler,
    simulate_two_barrier,
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
    """Fewer than two gamma points with nonzero hit counts."""


def wilson_interval(hits: int, n: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise EmptySampleError("need at least one sample")
    p = hits / n
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


def _checked_gammas(gammas, batch_size: int) -> np.ndarray:
    """gammas as a float array, once every gamma is positive and finite and
    batch_size is at least 1 (a smaller one would make no progress)."""
    gammas = np.asarray(gammas, dtype=float)
    if not np.all(np.isfinite(gammas) & (gammas > 0)):
        raise ValueError("gamma must be positive and finite")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    return gammas


def _free_maxdev(config, gamma, grid, phi_vals, inc):
    """_maxdev of the free particle at one gamma: the path is an exact
    cumulative sum, built and compared with phi in one (R, M+1) buffer."""
    paths = np.empty((inc.shape[0], grid.npoints))
    paths[:, 0] = config.initial.entries[0]
    steps = paths[:, 1:]
    np.divide(inc[:, 0, :], np.sqrt(gamma), out=steps)
    np.cumsum(steps, axis=1, out=steps)
    steps += config.initial.entries[0]
    paths -= phi_vals[0]
    np.abs(paths, out=paths)
    return np.max(paths, axis=1)


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
        inc = ensemble_increments(seed, reps, grid, 1)
        maxdev = np.stack([
            _free_maxdev(config, gamma, grid, phi_vals, inc) for gamma in gammas
        ])
        return maxdev, np.zeros(maxdev.shape, dtype=int)
    maxdev = np.zeros(gammas.size * len(reps))

    def observe(i0, block):
        dev = block - phi_vals[:, i0 : i0 + len(block)].T[:, :, None]
        np.abs(dev, out=dev)
        np.maximum(maxdev, np.max(dev, axis=(0, 1)), out=maxdev)

    clamps = ensemble_scan(
        Topology.triangle(config.N), config.initial.entries,
        IncrementStream(seed, reps, grid, tri_size(config.N)),
        gammas, grid.dt, config.drift_cap,
        drifts=np.repeat(config.drifts, np.arange(1, config.N + 1)),
        observe=observe,
    )
    return maxdev.reshape(clamps.shape), clamps


def _smallball(config, gammas, phi, delta, n_samples, seed, batch_size,
               n_workers):
    """One EstimatorResult per gamma, all scored on the same replicates.

    Each batch of increments is drawn once and stepped at every gamma in
    one scan, so replicate r sees the same noise at all of them."""
    if n_samples <= 0:
        raise EmptySampleError("n_samples must be positive")
    stacked = _checked_gammas(gammas, batch_size)
    if phi.N != config.N:
        raise ValueError("target bundle N does not match config")
    grid = phi.grid

    def work(reps):
        maxdev, clamps = _maxdev(config, stacked, grid, phi.values, seed, reps)
        return np.stack([np.count_nonzero(maxdev <= delta, axis=1),
                         np.count_nonzero(clamps > 0, axis=1)], axis=1)

    batches = list(_batches(n_samples, batch_size))
    if n_workers > 1:
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
    eps: float | None = None,
    batch_size: int = 5000,
    n_workers: int = 1,
) -> SlopeFit:
    """Estimate the exponential decay rate of the small-ball probability.

    Draws each batch of replicates' Brownian increments once and scores it
    at every gamma, so every gamma sees replicate r's same increments
    (common random numbers): the per-gamma estimates are correlated, not
    independent, and each equals smallball_probability at that gamma with
    the same seed.  Then regresses -log p_hat on gamma.  The action of the
    target bundle is attached for comparison.
    """
    gammas = np.asarray(sorted(gammas), dtype=float)
    if gammas.size < 3:
        raise ValueError("need at least three gamma values")
    results = _smallball(
        config, gammas.tolist(), phi, delta, n_samples, seed, batch_size,
        n_workers,
    )
    p = np.array([r.p_hat for r in results])
    with np.errstate(divide="ignore"):
        mlp = -np.log(p)
    per_gamma = mlp / gammas
    usable = np.isfinite(mlp)
    if np.count_nonzero(usable) < 2:
        raise DegenerateFitError(
            "fewer than two gamma points with nonzero hits"
        )
    slope, intercept = np.polyfit(gammas[usable], mlp[usable], 1)
    e = eps if eps is not None else default_coincidence_eps(
        phi.grid.dt, float(np.min(gammas))
    )
    predicted = total_rate(phi, config, e).total
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

# T0, T+, T-, T are the triangle's (1,1), (2,1), (2,2) and (3,2)
_FOUR_PARTICLE = Topology.triangle(3).restrict(
    [tri_offset(1, 1), tri_offset(2, 1), tri_offset(2, 2), tri_offset(3, 2)]
)
# (hi, lo) rows of the watched gaps T+ - T0, T0 - T-, T+ - T, T - T-, T+ - T-:
# A reads the first two, B the next two, C the last
_GAP_HI, _GAP_LO = [1, 0, 1, 3, 1], [0, 2, 3, 2, 2]


@dataclass(frozen=True)
class InterlaceFrequencies:
    """Violation frequencies of the slack-interlacing events at one gamma.

    Margins: A uses f = 1/sqrt(gamma) on (T+ - T0) and (T0 - T-), B uses
    2g = 4f on (T+ - T) and (T - T-), C uses g = 2f on (T+ - T-).
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
    cap: float | None = None,
    batch_size: int = 1000,
) -> list[InterlaceFrequencies]:
    """Violation frequencies for the four-particle system from zero starts.

    Each batch is drawn once and stepped at every gamma in one scan.  dt
    must divide [0, 1] (TimeGrid.from_dt).  margin_scale multiplies every
    margin (frequencies must not increase when the margins are widened).
    """
    if n_samples <= 0:
        raise EmptySampleError("n_samples must be positive")
    gammas = _checked_gammas(gammas, batch_size)
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
    for reps in _batches(n_samples, batch_size):
        mins = np.full((len(_GAP_HI), gammas.size * len(reps)), np.inf)

        def observe(i0, block):
            gaps = block[:, _GAP_HI] - block[:, _GAP_LO]
            np.minimum(mins, np.min(gaps, axis=0), out=mins)

        clamps = ensemble_scan(
            _FOUR_PARTICLE, np.zeros(4), IncrementStream(seed, reps, grid, 4),
            gammas, grid.dt, cap,
            observe=observe,
        )
        m = mins.reshape(-1, *clamps.shape)  # (gap, gamma, replicate)
        bad += [
            np.count_nonzero(np.min(m[0:2], axis=0) < -f_col, axis=1),
            np.count_nonzero(np.min(m[2:4], axis=0) < -2 * g_col, axis=1),
            np.count_nonzero(m[4] < -g_col, axis=1),
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
    lower: SamplePath | None = None,
    upper: SamplePath | None = None,
    start: float = 0.0,
    cap: float | None = None,
    batch_size: int = 2000,
) -> EquivalenceReport:
    """Couple the two-barrier particle with its lower-barrier-only twin.

    Both are stepped by the same tamed Euler scheme under identical noise,
    so the observed gap isolates the dynamics difference.  A replicate is
    in-tube when its two-barrier path keeps clearance eta below the upper
    barrier throughout; for those replicates the sup gap must not exceed
    exp(-gamma*eta/2) * (b-a).
    """
    if n_samples <= 0:
        raise EmptySampleError("n_samples must be positive")
    _checked_gammas(gamma, batch_size)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if lower is None:
        lower = SamplePath.constant(grid, start - 0.05)
    if upper is None:
        upper = SamplePath.constant(grid, start + eta + 0.2)
    budget = _gap_budget(gamma, eta, grid)
    in_tube = violations = 0
    max_gap = 0.0
    for reps in _batches(n_samples, batch_size):
        inc = ensemble_increments(seed, reps, grid, 1)[:, 0, :]
        full = simulate_two_barrier(lower, upper, inc, start, gamma, cap)
        twin = simulate_lower_barrier_euler(lower, inc, start, gamma, cap)
        tube = np.max(full - upper.values, axis=1) <= -eta
        gap = np.max(np.abs(twin - full), axis=1)
        in_tube += int(np.count_nonzero(tube))
        violations += int(np.count_nonzero(tube & (gap > budget)))
        if np.any(tube):
            max_gap = max(max_gap, float(np.max(gap[tube])))
    return EquivalenceReport(
        gamma=gamma,
        eta=eta,
        budget=budget,
        n_samples=n_samples,
        n_in_tube=in_tube,
        n_violations=violations,
        max_gap_in_tube=max_gap,
    )
