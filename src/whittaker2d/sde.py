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
from .noise import IncrementStream

__all__ = [
    "TruncationLevels",
    "SimulationResult",
    "NonFiniteError",
    "DomainError",
    "simulate",
    "ensemble_scan",
    "solve_edge_exact",
    "simulate_lower_barrier_euler",
    "simulate_two_barrier",
    "equivalence_gap",
    "GapReport",
    "escape_probability_bound",
    "default_drift_cap",
]

_EXP_MAX = 700.0  # exp argument ceiling, just under float64 overflow
_CHUNK_BYTES = 1 << 19  # size of each per-chunk buffer of ensemble_scan
# ensemble_scan draws an IncrementStream in windows of _WINDOW steps, fewer
# if that would take more than _WINDOW_BYTES, but never fewer than
# _MIN_WINDOW: every window costs each replicate one more draw call, and a
# replicate split at all opens a generator of its own, which a path of a
# few hundred steps would not repay however wide its batch
_WINDOW, _MIN_WINDOW, _WINDOW_BYTES = 2048, 1024, 1 << 26


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


def default_drift_cap(gamma: float) -> float:
    """Taming cap D = exp(0.25 * gamma).

    Under the almost-interlaced events the drift exponents stay of order
    sqrt(gamma), so the cap only activates on excursions that are already
    super-exponentially rare; clamp counts make any contamination visible.
    """
    return float(np.exp(min(gamma * 0.25, _EXP_MAX)))


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
    noise,
    gamma,
    dt: float,
    cap,
    drifts=None,
    truncation=None,
    barriers=None,
    observe=None,
) -> np.ndarray:
    """Step an ensemble of replicates of the system wired by topology at
    one gamma or at several.

    noise holds the raw Normal(0, dt) draws for the P moving rows, shape
    (R, P, M): an array, or an IncrementStream, which is drawn into a
    step-major (R, W, P) window of W = 2048 steps, or as few as 1024 to
    keep a window under 64 MB, so that a longer path's whole array is
    never held; both step the same values.  start holds the P start
    values.  barriers,
    shape (F, M+1), are the paths of the topology's last F rows, which are
    fixed: they are written into the state at every grid index instead of
    being stepped.  drifts (the constant a of each moving row) and
    truncation (each moving row's cutoff L: T inside a drift exponent is
    replaced by clip(T, -L, L)) have length P.  gamma is a scalar or a 1-d
    array of G values, cap a scalar or one value per gamma (None:
    default_drift_cap).  Every gamma steps the same noise: the state has
    G*R columns, gamma-major, each bit-identical to a call at its gamma
    alone.

    The step is T <- T + dW / sqrt(gamma) + clamp(drift, +-cap) * dt with
    the whole state read at the start of the step.  Steps run in chunks of
    k, sized so that the chunk's scaled noise (k, P, G*R) and its states
    take about 512 KB each.  observe(i0, block) gets the moving rows' states
    at grid indices i0 .. i0+k-1, a (k, P, G*R) view that the next chunk
    overwrites: once for i0 = 0, then once per chunk.  A non-finite state
    raises NonFiniteError at its first step and particle before its chunk
    is observed.  Returns the per-replicate clamp-event counts, shape
    np.shape(gamma) + (R,).
    """
    R, P, M = noise.shape
    F = 0 if barriers is None else barriers.shape[0]
    if topology.size != P + F:
        raise ValueError("noise and barriers do not match the topology")
    if F and barriers.shape != (F, M + 1):
        raise ValueError("barriers must have one value per grid point")
    if np.shape(start) != (P,):
        raise ValueError("start must hold one value per moving row")
    gam = np.asarray(gamma, dtype=float)
    G, GR = gam.size, gam.size * R
    caps = [default_drift_cap(g) for g in gam.flat] if cap is None else cap
    hi_cap = np.tile(np.repeat(np.broadcast_to(caps, (G,)), R), (P, 1))
    lo_cap = -hi_cap
    sqg = np.sqrt(gam).reshape(G, 1)
    lower, upper = topology.lower[:P], topology.upper[:P]
    pushed_up = np.flatnonzero(lower >= 0)
    pushed_dn = np.flatnonzero(upper >= 0)
    n_up, n_dn = pushed_up.size, pushed_dn.size
    # edge e carries exp(gamma * (v[hi[e]] - v[lo[e]])); upward pushes first
    hi = np.concatenate([lower[pushed_up], pushed_dn])
    lo = np.concatenate([pushed_up, upper[pushed_dn]])
    E = n_up + n_dn
    g_row = np.tile(np.repeat(gam, R), (E, 1))
    # row E of push stays 0: the push a row gets from a missing barrier
    up_edge = np.full(P, E)
    up_edge[pushed_up] = np.arange(n_up)
    dn_edge = np.full(P, E)
    dn_edge[pushed_dn] = n_up + np.arange(n_dn)
    base = None if drifts is None else np.reshape(drifts, (P, 1))
    if truncation is not None:
        lim = np.concatenate([truncation, np.full(F, np.inf)])[:, None]
    K = max(1, min(M, _CHUNK_BYTES // (8 * (P + F) * max(GR, 1))))
    streamed = isinstance(noise, IncrementStream)
    if streamed:
        # drawn in windows of whole chunks, so that no chunk straddles two
        steps = _WINDOW_BYTES // (8 * max(R * P, 1))
        steps = min(_WINDOW, max(_MIN_WINDOW, steps))
        W = min(M, -(-steps // K) * K)
        window = np.empty((R, W, P))
    else:
        W, window = M, noise.transpose(0, 2, 1)
    block, dW = np.empty((K + 1, P + F, GR)), np.empty((K, P, GR))
    clamped = np.empty((K, P, GR), dtype=bool)
    gap, far, push = np.empty((E, GR)), np.empty((E, GR)), np.zeros((E + 1, GR))
    drift, down, tamed = (np.empty((P, GR)) for _ in range(3))
    clamps = np.zeros(GR, dtype=int)
    block[0, :P] = np.reshape(start, (P, 1))
    if observe is not None:
        observe(0, block[:1, :P])
    for s in range(0, M, K):
        k = min(K, M - s)
        at = s % W  # the chunk's first step within its window
        if streamed and at == 0:
            noise.fill(window[:, : min(W, M - s)])
        np.divide(window[:, at : at + k].transpose(1, 2, 0)[:, :, None], sqg,
                  out=dW[:k].reshape(k, P, G, R))
        if F:
            block[: k + 1, P:] = barriers[:, s : s + k + 1].T[:, :, None]
        # a state gone non-finite stays so and raises after the chunk, so
        # the inf - inf or overflow it meets on the way is not warned about
        with np.errstate(invalid="ignore", over="ignore"):
            for j in range(k):
                v = block[j] if truncation is None else np.clip(
                    block[j], -lim, lim)
                # the take method skips np.take's Python-level wrapper
                v.take(hi, 0, gap, "clip")
                v.take(lo, 0, far, "clip")
                np.subtract(gap, far, out=gap)
                np.multiply(gap, g_row, out=gap)
                np.minimum(gap, _EXP_MAX, out=gap)
                np.exp(gap, out=push[:E])
                push.take(up_edge, 0, drift, "clip")
                if base is not None:
                    np.add(base, drift, out=drift)
                push.take(dn_edge, 0, down, "clip")
                np.subtract(drift, down, out=drift)
                np.maximum(drift, lo_cap, out=tamed)
                np.minimum(tamed, hi_cap, out=tamed)
                np.not_equal(tamed, drift, out=clamped[j])
                np.multiply(tamed, dt, out=tamed)
                np.add(block[j, :P], dW[j], out=block[j + 1, :P])
                block[j + 1, :P] += tamed
        states = block[1 : k + 1, :P]
        if not np.isfinite(states[-1]).all():
            j, _, p = np.argwhere(~np.isfinite(states).transpose(0, 2, 1))[0]
            raise NonFiniteError(step=s + int(j) + 1, particle=int(p))
        clamps += np.count_nonzero(clamped[:k], axis=(0, 1))
        if observe is not None:
            observe(s + 1, states)
        block[0] = block[k]
    return clamps.reshape(gam.shape + (R,))


def simulate(
    config: ModelConfig,
    grid: TimeGrid,
    noise: np.ndarray,
    truncation: TruncationLevels | None = None,
) -> SimulationResult:
    """Tamed Euler run of the full triangle from config.initial, with the
    taming cap config.drift_cap (default exp(0.25 * gamma)).

    noise holds the raw Normal(0, dt) increments, shape (P, M) for the P
    particles in level-major order.  With truncation, every T inside a drift
    exponent is replaced by its level cutoff clip(T, -L_n, L_n); with
    inactive cutoffs the output is bit-identical to a run without.
    """
    N = config.N
    rows_per_level = np.arange(1, N + 1)
    if truncation is not None:
        if truncation.levels.shape != (N,):
            raise ValueError("truncation levels must have one entry per level")
        truncation = np.repeat(truncation.levels, rows_per_level)
    inc = np.asarray(noise, dtype=float)[None]
    if inc.shape[1:] != (tri_size(N), grid.steps):
        raise ValueError("noise shape does not match config/grid")
    out = np.empty((tri_size(N), grid.npoints))

    def keep(i0, block):
        out[:, i0 : i0 + len(block)] = block[:, :, 0].T

    clamps = ensemble_scan(
        Topology.triangle(N), config.initial.entries, inc, config.gamma,
        grid.dt, config.drift_cap,
        drifts=np.repeat(config.drifts, rows_per_level),
        truncation=truncation, observe=keep,
    )
    return SimulationResult(PathBundle(N, grid, out), int(clamps[0]))


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

    def keep(i0, block):
        out[i0 : i0 + len(block)] = block[:, 0]

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


def _gap_budget(gamma: float, eta: float, grid: TimeGrid) -> float:
    """The pathwise budget exp(-gamma * eta / 2) * (b - a) on the coupling
    gap of a particle that keeps clearance eta below its upper barrier."""
    return float(np.exp(-gamma * eta / 2.0) * (grid.b - grid.a))


def equivalence_gap(
    path_a: SamplePath, path_b: SamplePath, gamma: float, eta: float
) -> GapReport:
    """Sup-norm gap between two coupled paths against the pathwise budget
    exp(-gamma * eta / 2) * (b - a), valid while the particle keeps
    clearance eta below its upper barrier."""
    if path_a.grid != path_b.grid:
        raise ValueError("paths must share a grid")
    gap = float(np.max(np.abs(path_a.values - path_b.values)))
    budget = _gap_budget(gamma, eta, path_a.grid)
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
