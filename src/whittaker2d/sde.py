"""Time steppers and closed-form solvers for the scaled particle system.

The drift of particle (n, k) is

    a_n + exp(gamma * (T[n-1,k] - T[n,k])) - exp(gamma * (T[n,k] - T[n-1,k-1]))

with either exponential absent when its barrier index leaves the triangle.
Interactions are one-directional (level n reads only level n-1), so the
system is triangular and explicit stepping matches the model structure.
One stepper, ensemble_scan, runs every such system from its Topology: the
triangle, the four-particle sub-system, or one particle between fixed
barrier paths.  It draws streamed noise a window at a time.  Where a core
is idle, a path longer than one window is drawn into a ring of two half
windows, the next filled by a draw thread of the call's own while the
current one is stepped, so the draw runs on that core and the two halves
hold what one window would.

The exponential drift is stiff; the Euler stepper tames it by clamping the
net drift to +-D with D = exp(0.25 * gamma) by default, and reports every
clamping event so experiments can detect contamination.  Closed-form edge
solutions integrate exp(gamma * h) by trapezoid in log space, which stays
finite at any gamma.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
    "escape_probability_bound",
    "default_drift_cap",
]

_EXP_MAX = 700.0  # exp argument ceiling, just under float64 overflow
_CHUNK_BYTES = 1 << 19  # size of each per-chunk buffer of ensemble_scan
_MAX_CHUNK = 256  # steps per chunk at most, so its step views stay few
# ensemble_scan holds an IncrementStream's draws in _WINDOW steps (in whole
# chunks), fewer if that would take more than _WINDOW_BYTES, but never
# fewer than _MIN_WINDOW: every window costs each replicate one more draw
# call, and a replicate split at all opens a generator of its own, which a
# path of a few hundred steps would not repay however wide its batch.  A
# path that fits is drawn whole.  A longer one is drawn in place, window by
# window, unless a core is idle: then in two buffers of half the chunks
# each, one stepped while the draw thread fills the other, so the pair
# holds no more than one window: a second full window cost the
# four-particle batch of 100 replicates at M = 10,000 14% of its peak RSS
_WINDOW, _MIN_WINDOW, _WINDOW_BYTES = 2048, 1024, 1 << 26
# .on is set in a thread that steps one of several tiles spread over every
# core (mc._tiled): no core is idle to draw on, so its scans draw each
# window in place, in one buffer of the whole window
_tile_thread = threading.local()


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


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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
    (R, P, M): an array, or an IncrementStream, whose draws are held in
    step-major windows of at most W = 2048 steps, or as few as 1024 to
    keep them under 64 MB, so that a longer path's whole array is never
    held; both step the same values.  A path of at most W steps is drawn
    whole.  Where a core is idle (more than one core, and the calling
    thread is not stepping one of mc's tiles), a longer one is drawn in
    windows of W/2 steps, each by a thread of the call's own while the
    one before it is stepped, so the two buffers hold W steps together;
    elsewhere it is drawn in place in windows of W.  No draw outlives the
    call.  start holds the P start values.  barriers,
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
    take about 512 KB each, and of at most 256 steps, whose views are made
    once per call.  observe(i0, block) gets the moving rows' states at grid
    indices i0 .. i0+k-1, a (k, P, G*R) view that the next chunk
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
    ends = np.concatenate([hi, lo])
    # row E of push stays 0: the push a row gets from a missing barrier
    up_edge = np.full(P, E)
    up_edge[pushed_up] = np.arange(n_up)
    dn_edge = np.full(P, E)
    dn_edge[pushed_dn] = n_up + np.arange(n_dn)
    pushes = np.concatenate([up_edge, dn_edge])
    base = None if drifts is None else np.reshape(drifts, (P, 1))
    if truncation is not None:
        lim = np.concatenate([truncation, np.full(F, np.inf)])[:, None]
    # 0-d operands: a Python float costs each ufunc call a conversion
    exp_max, dt = np.array(_EXP_MAX), np.array(dt, dtype=float)
    K = max(1, min(M, _MAX_CHUNK, _CHUNK_BYTES // (8 * (P + F) * max(GR, 1))))
    streamed = isinstance(noise, IncrementStream)
    if streamed:
        # drawn in windows of whole chunks, so that no chunk straddles two
        steps = _WINDOW_BYTES // (8 * max(R * P, 1))
        chunks = -(-min(_WINDOW, max(_MIN_WINDOW, steps)) // K)
        ring = 1
        if (M > chunks * K and chunks > 1 and _cores() > 1
                and not getattr(_tile_thread, "on", False)):
            ring = 2  # two half windows, one drawn while the other is stepped
        W = min(M, chunks // ring * K)
        windows = [np.empty((R, W, P)) for _ in range(ring)]
    else:
        W, windows = M, [noise.transpose(0, 2, 1)]
    block, dW = np.empty((K + 1, P + F, GR)), np.empty((K, P, GR))
    clamped = np.empty((K, P, GR), dtype=bool)
    both, push = np.empty((2 * E, GR)), np.zeros((E + 1, GR))
    gap, far, push_e = both[:E], both[E:], push[:E]
    rows = np.empty((2 * P, GR))
    drift, down = rows[:P], rows[P:]
    tamed = np.empty((P, GR))
    clamps = np.zeros(GR, dtype=int)
    # each step's views, made once and reused by every chunk
    views = [(block[j], block[j, :P], block[j + 1, :P], dW[j], clamped[j])
             for j in range(K)]
    # out goes positionally, except to np.minimum and np.maximum (deprecated)
    add, sub, mul, exp = np.add, np.subtract, np.multiply, np.exp
    block[0, :P] = np.reshape(start, (P, 1))
    if observe is not None:
        observe(0, block[:1, :P])
    pending = None  # the draw of the next window, while one is running
    # a thread of this call's own, so that no draw outlives it
    drawer = ThreadPoolExecutor(max_workers=1) if len(windows) > 1 else None
    try:
        for s in range(0, M, K):
            k = min(K, M - s)
            at = s % W  # the chunk's first step within its window
            window = windows[s // W % len(windows)]
            if streamed and at == 0:
                if pending is None:
                    noise.fill(window[:, : min(W, M - s)])
                else:
                    pending.result()
                if drawer is not None and s + W < M:
                    ahead = windows[(s // W + 1) % 2][:, : min(W, M - s - W)]
                    pending = drawer.submit(noise.fill, ahead)
            np.divide(window[:, at : at + k].transpose(1, 2, 0)[:, :, None],
                      sqg, out=dW[:k].reshape(k, P, G, R))
            if F:
                block[: k + 1, P:] = barriers[:, s : s + k + 1].T[:, :, None]
            # a state gone non-finite stays so and raises after the chunk,
            # so the inf - inf or overflow it meets on the way is not warned
            # about
            with np.errstate(invalid="ignore", over="ignore"):
                for v, now, nxt, dw, clamp in views[:k]:
                    if truncation is not None:
                        v = np.clip(v, -lim, lim)
                    # the take method skips np.take's Python-level wrapper;
                    # one call gathers both ends of every edge
                    v.take(ends, 0, both, "clip")
                    sub(gap, far, gap)
                    mul(gap, g_row, gap)
                    np.minimum(gap, exp_max, out=gap)
                    exp(gap, push_e)
                    # and one call both pushes of every row
                    push.take(pushes, 0, rows, "clip")
                    if base is not None:
                        add(base, drift, drift)
                    sub(drift, down, drift)
                    np.maximum(drift, lo_cap, out=tamed)
                    np.minimum(tamed, hi_cap, out=tamed)
                    np.not_equal(tamed, drift, clamp)
                    mul(tamed, dt, tamed)
                    add(now, dw, nxt)
                    add(nxt, tamed, nxt)
            states = block[1 : k + 1, :P]
            if not np.isfinite(states[-1]).all():
                j, _, p = np.argwhere(
                    ~np.isfinite(states).transpose(0, 2, 1))[0]
                raise NonFiniteError(step=s + int(j) + 1, particle=int(p))
            clamps += np.count_nonzero(clamped[:k], axis=(0, 1))
            if observe is not None:
                observe(s + 1, states)
            block[0] = block[k]
    finally:
        if drawer is not None:
            # waits for a pending draw; the error raised is the one already
            # on its way
            drawer.shutdown()
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


def _single_particle(topology, barriers, increments, start, gamma):
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
        topology, [start], increments[:, None, :], gamma, grid.dt, None,
        barriers=np.stack([b.values for b in barriers]), observe=keep,
    )
    return out.T


def simulate_lower_barrier_euler(
    phi_minus: SamplePath,
    increments: np.ndarray,
    start: float,
    gamma: float,
) -> np.ndarray:
    """Tamed Euler for dT = dW/sqrt(gamma) + exp(gamma(phi_minus - T)) dt.

    increments has shape (R, M) of raw Normal(0, dt) draws; returns paths of
    shape (R, M+1).
    """
    return _single_particle(_LOWER_ONLY, [phi_minus], increments, start, gamma)


def simulate_two_barrier(
    phi_minus: SamplePath,
    phi_plus: SamplePath,
    increments: np.ndarray,
    start: float,
    gamma: float,
) -> np.ndarray:
    """Tamed Euler for the single particle between two fixed barriers,

        dT = dW/sqrt(gamma) + (exp(gamma(phi_minus - T))
                               - exp(gamma(T - phi_plus))) dt.

    increments (R, M) of Normal(0, dt); returns paths (R, M+1).  With
    gamma = 1 this is also the bounded-coefficient particle used for the
    escape-probability experiments.
    """
    return _single_particle(
        _TWO_BARRIER, [phi_minus, phi_plus], increments, start, gamma
    )


# ---------------------------------------------------------------------------
# pathwise comparisons and a-priori bounds


def _gap_budget(gamma: float, eta: float, grid: TimeGrid) -> float:
    """The pathwise budget exp(-gamma * eta / 2) * (b - a) on the coupling
    gap of a particle that keeps clearance eta below its upper barrier."""
    return float(np.exp(-gamma * eta / 2.0) * (grid.b - grid.a))


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
