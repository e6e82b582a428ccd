"""Monte Carlo experiments tying the simulator to the asymptotic theory.

All estimators are plain-frequency Monte Carlo over replicate-indexed noise
streams: replicate r always consumes the same increments no matter how the
work is batched or threaded, so results are bit-identical across worker
counts, and hit counts reduce by integer sums.  Every estimator reports the
fraction of replicates whose drift was clamped; experiments with more than
1% contamination should not be trusted and are flagged.
"""

from __future__ import annotations

import dataclasses
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
from .noise import ensemble_increments
from .rate import default_coincidence_eps, total_rate
from .sde import (
    ensemble_scan,
    simulate_lower_barrier_euler,
    simulate_two_barrier,
)

__all__ = [
    "EstimatorResult",
    "SlopeFit",
    "InterlaceFrequencies",
    "EquivalenceReport",
    "EmptySampleError",
    "DegenerateFitError",
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


def _maxdev_batch(
    config: ModelConfig,
    grid: TimeGrid,
    phi_vals: np.ndarray,
    seed: int,
    reps: range,
):
    """Per-replicate sup deviation from the target bundle, plus clamp counts."""
    P = tri_size(config.N)
    inc = ensemble_increments(seed, reps, grid, P)
    R = len(reps)
    if config.N == 1 and float(config.drifts[0]) == 0.0:
        # free particle: the path is an exact cumulative sum
        paths = np.empty((R, grid.npoints))
        paths[:, 0] = config.initial.entries[0]
        np.cumsum(inc[:, 0, :] / np.sqrt(config.gamma), axis=1,
                  out=paths[:, 1:])
        paths[:, 1:] += config.initial.entries[0]
        maxdev = np.max(np.abs(paths - phi_vals[0]), axis=1)
        return maxdev, np.zeros(R, dtype=int)
    maxdev = np.zeros(R)

    def observe(i, vals):
        dev = np.max(np.abs(vals - phi_vals[:, i, None]), axis=0)
        np.maximum(maxdev, dev, out=maxdev)

    clamps = ensemble_scan(
        Topology.triangle(config.N), config.initial.entries, inc,
        config.gamma, grid.dt, config.drift_cap,
        drifts=np.repeat(config.drifts, np.arange(1, config.N + 1)),
        observe=observe,
    )
    return maxdev, clamps


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
    if n_samples <= 0:
        raise EmptySampleError("n_samples must be positive")
    if phi.N != config.N:
        raise ValueError("target bundle N does not match config")
    grid = phi.grid

    def work(reps):
        maxdev, clamps = _maxdev_batch(config, grid, phi.values, seed, reps)
        return (
            int(np.count_nonzero(maxdev <= delta)),
            int(np.count_nonzero(clamps > 0)),
        )

    batches = list(_batches(n_samples, batch_size))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(work, batches))
    else:
        parts = [work(b) for b in batches]
    hits = sum(p[0] for p in parts)
    clamped = sum(p[1] for p in parts)
    lo, hi = wilson_interval(hits, n_samples)
    return EstimatorResult(
        p_hat=hits / n_samples,
        ci_low=lo,
        ci_high=hi,
        hits=hits,
        n_samples=n_samples,
        gamma=config.gamma,
        delta=delta,
        clamp_contamination=clamped / n_samples,
    )


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

    Runs smallball_probability at each gamma with the same seed, so every
    gamma reuses replicate r's Brownian increments (common random numbers):
    the per-gamma estimates are correlated, not independent.  Then regresses
    -log p_hat on gamma.  The action of the target bundle is attached for
    comparison.
    """
    gammas = np.asarray(sorted(gammas), dtype=float)
    if gammas.size < 3:
        raise ValueError("need at least three gamma values")
    results = []
    for g in gammas:
        cfg = dataclasses.replace(config, gamma=float(g))
        results.append(
            smallball_probability(
                cfg, phi, delta, n_samples, seed, batch_size, n_workers
            )
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

    margin_scale multiplies every margin (frequencies must not increase
    when the margins are widened).
    """
    if n_samples <= 0:
        raise EmptySampleError("n_samples must be positive")
    grid = TimeGrid(0.0, 1.0, round(1.0 / dt))
    out = []
    for gamma in gammas:
        gamma = float(gamma)
        bounds = InterlaceBounds.from_gamma(gamma)
        f = margin_scale * bounds.f
        g = margin_scale * bounds.g
        a_bad = b_bad = c_bad = clamped = 0
        for reps in _batches(n_samples, batch_size):
            inc = ensemble_increments(seed, reps, grid, 4)
            R = len(reps)
            mins = np.full((R, 5), np.inf)

            def observe(i, vals):
                t0, tp, tm, t = vals
                gaps = np.column_stack(
                    [tp - t0, t0 - tm, tp - t, t - tm, tp - tm]
                )
                np.minimum(mins, gaps, out=mins)

            clamps = ensemble_scan(
                _FOUR_PARTICLE, np.zeros(4), inc, gamma, grid.dt, cap,
                observe=observe,
            )
            a_bad += int(np.count_nonzero(np.min(mins[:, 0:2], axis=1) < -f))
            b_bad += int(
                np.count_nonzero(np.min(mins[:, 2:4], axis=1) < -2 * g)
            )
            c_bad += int(np.count_nonzero(mins[:, 4] < -g))
            clamped += int(np.count_nonzero(clamps > 0))
        out.append(
            InterlaceFrequencies(
                gamma=gamma,
                n_samples=n_samples,
                a_violation=a_bad / n_samples,
                b_violation=b_bad / n_samples,
                c_violation=c_bad / n_samples,
                clamp_contamination=clamped / n_samples,
                margins=InterlaceBounds(f=f, g=g),
            )
        )
    return out


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
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if lower is None:
        lower = SamplePath.constant(grid, start - 0.05)
    if upper is None:
        upper = SamplePath.constant(grid, start + eta + 0.2)
    budget = float(np.exp(-gamma * eta / 2.0) * (grid.b - grid.a))
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
