"""Time steppers and closed-form solvers for the scaled particle system.

The drift of particle (n, k) is

    a_n + exp(gamma * (T[n-1,k] - T[n,k])) - exp(gamma * (T[n,k] - T[n-1,k-1]))

with either exponential absent when its barrier index leaves the triangle.
Interactions are one-directional (level n reads only level n-1), so the
system is triangular and explicit stepping matches the model structure.
One stepper, ensemble_scan, runs every such system from its Topology: the
triangle, the four-particle sub-system, or one particle between fixed
barrier paths.

The exponential drift is stiff; the Euler stepper tames it by clamping the
net drift to +-D with D = exp(0.25 * gamma) by default, and reports every
clamping event so experiments can detect contamination.  Closed-form edge
solutions integrate exp(gamma * h) by trapezoid in log space, which stays
finite at any gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._logquad import log_cumtrapz_exp
from .model import (
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    Topology,
    tri_size,
)
from .noise import NoiseBundle

__all__ = [
    "TruncationLevels",
    "SimulationResult",
    "NonFiniteError",
    "DomainError",
    "simulate",
    "ensemble_scan",
    "simulate_truncated",
    "solve_edge_exact",
    "simulate_lower_barrier_euler",
    "simulate_two_barrier",
    "equivalence_gap",
    "GapReport",
    "escape_probability_bound",
    "default_drift_cap",
]

_EXP_MAX = 700.0  # exp argument ceiling, just under float64 overflow


class NonFiniteError(RuntimeError):
    """A state value overflowed despite taming."""

    def __init__(self, step: int, particle: int):
        self.step = step
        self.particle = particle
        super().__init__(
            f"non-finite state at step {step}, particle offset {particle}"
        )


class DomainError(ValueError):
    """Inputs outside the domain where a formula is meaningful."""


def default_drift_cap(gamma: float, g_cap: float = 0.25) -> float:
    """Taming cap D = exp(g_cap * gamma).

    Under the almost-interlaced events the drift exponents stay of order
    sqrt(gamma), so the cap only activates on excursions that are already
    super-exponentially rare; clamp counts make any contamination visible.
    """
    return float(np.exp(min(gamma * g_cap, _EXP_MAX)))


@dataclass(frozen=True)
class TruncationLevels:
    """Per-level cutoffs L_1 <= L_2 <= ... <= L_N for the truncated system."""

    levels: np.ndarray

    def __post_init__(self):
        lv = np.array(self.levels, dtype=float)
        if lv.ndim != 1 or lv.size == 0:
            raise ValueError("levels must be a nonempty 1d array")
        if np.any(lv < 0):
            raise ValueError("levels must be nonnegative")
        if np.any(np.diff(lv) < 0):
            raise ValueError("levels must be nondecreasing")
        lv.flags.writeable = False
        object.__setattr__(self, "levels", lv)

    @staticmethod
    def uniform(N: int, L: float) -> "TruncationLevels":
        return TruncationLevels(np.full(N, float(L)))


@dataclass(frozen=True)
class SimulationResult:
    bundle: PathBundle
    clamp_events: int


# ---------------------------------------------------------------------------
# the tamed Euler stepper


def ensemble_scan(
    topology: Topology,
    start,
    increments: np.ndarray,
    gamma: float,
    dt: float,
    cap: float | None,
    drifts=None,
    truncation=None,
    barriers=None,
    observe=None,
) -> np.ndarray:
    """Step an ensemble of replicates of the system wired by topology.

    increments has shape (R, P, M) of raw Normal(0, dt) draws for the P
    moving rows; start holds their P start values.  barriers, shape
    (F, M+1), are the paths of the topology's last F rows, which are fixed:
    they are written into the state at every grid index instead of being
    stepped.  drifts (the constant a of each moving row) and truncation
    (each moving row's cutoff L: T inside a drift exponent is replaced by
    clip(T, -L, L)) have length P.  cap None means default_drift_cap(gamma).

    The step is T <- T + dW / sqrt(gamma) + clamp(drift, +-cap) * dt with
    the whole state read at the start of the step.  observe(i, vals) is
    called with the moving rows' state, shape (P, R), at every grid index i
    including i = 0; the array is a view that the next step overwrites.
    Returns the per-replicate clamp-event counts, shape (R,).
    """
    R, P, M = increments.shape
    F = 0 if barriers is None else barriers.shape[0]
    if topology.size != P + F:
        raise ValueError("increments and barriers do not match the topology")
    if F and barriers.shape != (F, M + 1):
        raise ValueError("barriers must have one value per grid point")
    if np.shape(start) != (P,):
        raise ValueError("start must hold one value per moving row")
    cap = default_drift_cap(gamma) if cap is None else cap
    sqg = np.sqrt(gamma)
    lower, upper = topology.lower[:P], topology.upper[:P]
    pushed_up = np.flatnonzero(lower >= 0)
    pushed_dn = np.flatnonzero(upper >= 0)
    n_up, n_dn = pushed_up.size, pushed_dn.size
    # edge e carries exp(gamma * (v[hi[e]] - v[lo[e]])); upward pushes first
    hi = np.concatenate([lower[pushed_up], pushed_dn])
    lo = np.concatenate([pushed_up, upper[pushed_dn]])
    E = n_up + n_dn
    # row E of push stays 0: the push a row gets from a missing barrier
    up_edge = np.full(P, E)
    up_edge[pushed_up] = np.arange(n_up)
    dn_edge = np.full(P, E)
    dn_edge[pushed_dn] = n_up + np.arange(n_dn)
    base = np.zeros((P, 1)) if drifts is None else np.reshape(drifts, (P, 1))
    if truncation is not None:
        lim = np.concatenate([truncation, np.full(F, np.inf)])[:, None]

    x = np.empty((P + F, R))
    xp = x[:P]
    xp[:] = np.reshape(start, (P, 1))
    if F:
        x[P:] = barriers[:, :1]
    gap, far = np.empty((E, R)), np.empty((E, R))
    push = np.zeros((E + 1, R))
    drift, down, tamed, step = (np.empty((P, R)) for _ in range(4))
    clamped = np.empty((P, R), dtype=bool)
    clamps = np.zeros((P, R), dtype=int)
    if observe is not None:
        observe(0, xp)
    for i in range(M):
        v = x if truncation is None else np.clip(x, -lim, lim)
        np.take(v, hi, axis=0, out=gap, mode="clip")
        np.take(v, lo, axis=0, out=far, mode="clip")
        np.subtract(gap, far, out=gap)
        np.multiply(gap, gamma, out=gap)
        np.minimum(gap, _EXP_MAX, out=gap)
        np.exp(gap, out=push[:E])
        np.take(push, up_edge, axis=0, out=drift, mode="clip")
        np.add(base, drift, out=drift)
        np.take(push, dn_edge, axis=0, out=down, mode="clip")
        np.subtract(drift, down, out=drift)
        np.maximum(drift, -cap, out=tamed)
        np.minimum(tamed, cap, out=tamed)
        np.not_equal(tamed, drift, out=clamped)
        clamps += clamped
        np.divide(increments[:, :, i].T, sqg, out=step)
        xp += step
        np.multiply(tamed, dt, out=tamed)
        xp += tamed
        if not np.isfinite(xp).all():
            bad = np.argwhere(~np.isfinite(xp.T))[0]
            raise NonFiniteError(step=i + 1, particle=int(bad[-1]))
        if F:
            x[P:] = barriers[:, i + 1 : i + 2]
        if observe is not None:
            observe(i + 1, xp)
    return clamps.sum(axis=0)


def _run_single(config, grid, noise, truncation):
    N = config.N
    rows_per_level = np.arange(1, N + 1)
    if truncation is not None:
        if truncation.levels.shape != (N,):
            raise ValueError("truncation levels must have one entry per level")
        truncation = np.repeat(truncation.levels, rows_per_level)
    inc = noise.increments[None, :, :]
    if inc.shape[1:] != (tri_size(N), grid.steps):
        raise ValueError("noise shape does not match config/grid")
    out = np.empty((tri_size(N), grid.npoints))

    def keep(i, vals):
        out[:, i] = vals[:, 0]

    clamps = ensemble_scan(
        Topology.triangle(N), config.initial.entries, inc, config.gamma,
        grid.dt, config.drift_cap,
        drifts=np.repeat(config.drifts, rows_per_level),
        truncation=truncation, observe=keep,
    )
    return SimulationResult(PathBundle(N, grid, out), int(clamps[0]))


def simulate(
    config: ModelConfig, grid: TimeGrid, noise: NoiseBundle
) -> SimulationResult:
    """Tamed Euler run of the full triangle from config.initial, with the
    taming cap config.drift_cap (default exp(0.25 * gamma))."""
    return _run_single(config, grid, noise, None)


def simulate_truncated(
    config: ModelConfig,
    grid: TimeGrid,
    noise: NoiseBundle,
    truncation: TruncationLevels,
) -> SimulationResult:
    """Same stepper, but every T inside a drift exponent is replaced by its
    level cutoff clip(T, -L_n, L_n).  With inactive cutoffs the output is
    bit-identical to simulate under the same noise."""
    return _run_single(config, grid, noise, truncation)


# ---------------------------------------------------------------------------
# closed forms for one particle over a lower barrier


def solve_edge_exact(
    lower: SamplePath, driver: np.ndarray, start: float, gamma: float
) -> SamplePath:
    """Exact solution of dT = dX + exp(gamma * (lower - T)) dt, T(a) = start.

    driver is the diffusion path X on the grid (pass W / sqrt(gamma) for the
    scaled system, or W itself for the unscaled edge equation).  The solution

        T(t) = start + X(t) - X(a)
               + (1/gamma) log{1 + gamma * integral_a^t
                                exp(gamma * (lower - X + X(a) - start)) ds}

    is evaluated with trapezoid quadrature accumulated in log space, so the
    exponent may reach hundreds of units without overflow.
    """
    grid = lower.grid
    x = np.asarray(driver, dtype=float)
    if x.shape != (grid.npoints,):
        raise ValueError("driver and lower barrier must share the grid")
    h = lower.values - x + x[0] - start
    log_integral = log_cumtrapz_exp(gamma * h, grid.dt) + np.log(gamma)
    lift = np.logaddexp(0.0, log_integral) / gamma
    return SamplePath(grid, start + x - x[0] + lift)


# one particle between fixed barrier paths: row 0 moves, rows 1.. are fixed
_LOWER_ONLY = Topology([1, -1], [-1, -1])
_TWO_BARRIER = Topology([1, -1, -1], [2, -1, -1])


def _single_particle(topology, barriers, increments, start, gamma, cap):
    grid = barriers[0].grid
    if any(b.grid != grid for b in barriers):
        raise ValueError("barriers must share a grid")
    R, M = increments.shape
    if M != grid.steps:
        raise ValueError("increments do not match the barrier grid")
    out = np.empty((M + 1, R))

    def keep(i, vals):
        out[i] = vals[0]

    ensemble_scan(
        topology, [start], increments[:, None, :], gamma, grid.dt, cap,
        barriers=np.stack([b.values for b in barriers]), observe=keep,
    )
    return out.T


def simulate_lower_barrier_euler(
    phi_minus: SamplePath,
    increments: np.ndarray,
    start: float,
    gamma: float,
    cap: float | None = None,
) -> np.ndarray:
    """Tamed Euler for dT = dW/sqrt(gamma) + exp(gamma(phi_minus - T)) dt.

    increments has shape (R, M) of raw Normal(0, dt) draws; returns paths of
    shape (R, M+1).
    """
    return _single_particle(
        _LOWER_ONLY, [phi_minus], increments, start, gamma, cap
    )


def simulate_two_barrier(
    phi_minus: SamplePath,
    phi_plus: SamplePath,
    increments: np.ndarray,
    start: float,
    gamma: float,
    cap: float | None = None,
) -> np.ndarray:
    """Tamed Euler for the single particle between two fixed barriers,

        dT = dW/sqrt(gamma) + (exp(gamma(phi_minus - T))
                               - exp(gamma(T - phi_plus))) dt.

    increments (R, M) of Normal(0, dt); returns paths (R, M+1).  With
    gamma = 1 this is also the bounded-coefficient particle used for the
    escape-probability experiments.
    """
    return _single_particle(
        _TWO_BARRIER, [phi_minus, phi_plus], increments, start, gamma, cap
    )


# ---------------------------------------------------------------------------
# pathwise comparisons and a-priori bounds


@dataclass(frozen=True)
class GapReport:
    gap: float
    budget: float
    within_budget: bool


def equivalence_gap(
    path_a: SamplePath, path_b: SamplePath, gamma: float, eta: float
) -> GapReport:
    """Sup-norm gap between two coupled paths against the pathwise budget
    exp(-gamma * eta / 2) * (b - a), valid while the particle keeps
    clearance eta below its upper barrier."""
    if path_a.grid != path_b.grid:
        raise ValueError("paths must share a grid")
    gap = float(np.max(np.abs(path_a.values - path_b.values)))
    budget = float(
        np.exp(-gamma * eta / 2.0) * (path_a.grid.b - path_a.grid.a)
    )
    return GapReport(gap=gap, budget=budget, within_budget=gap <= budget)


def escape_probability_bound(C0: float, C: float, L: float, T: float) -> float:
    """A-priori bound on P{sup_[0,T] X^2 >= L^2} for the bounded-barrier
    particle started at C0 with |barriers| <= C.

    Uses C1 = 1 + 2 exp(C - 1), the analytic supremum of 1 + 2 t e^{C-t},
    and G = C0^2 T + C1^2 T^2 / 2; the bound is G / (L^2 - C1 T - C0^2).
    """
    C1 = 1.0 + 2.0 * np.exp(C - 1.0)
    G = C0 * C0 * T + 0.5 * C1 * C1 * T * T
    denom = L * L - C1 * T - C0 * C0
    if denom <= 0:
        raise DomainError(
            f"bound vacuous: L^2 = {L * L} <= C1*T + C0^2 = {C1 * T + C0 * C0}"
        )
    return float(G / denom)
