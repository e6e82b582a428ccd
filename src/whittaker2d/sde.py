"""Time steppers for the scaled particle system.

The drift of particle (n, k) is

    exp(gamma * (T[n-1,k] - T[n,k])) - exp(gamma * (T[n,k] - T[n-1,k-1]))

with either exponential absent when its barrier index leaves the triangle.
Interactions are one-directional (level n reads only level n-1), so the
system is triangular and explicit stepping matches the model structure.
One stepper, ensemble_scan, runs every such system from its Topology: the
triangle, the four-particle sub-system, or one particle between fixed
barrier paths.  It draws streamed noise a window at a time, in draw order.
Where a core is idle, a path longer than one window is drawn into a ring of
two half windows, the next filled by a draw thread of the call's own while
the current one is stepped, so the draw runs on that core and the two
halves hold what one window would, unless halving would cut each block's
draw call short.

The exponential drift is stiff; the Euler stepper tames it by clamping the
net drift to +-D with D = exp(0.25 * gamma) by default, and reports every
clamping event so experiments can detect contamination.  It steps each
chunk untamed first, and again, tamed, only in the columns whose drift
exponents left the range where clamp and guard change nothing.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    Topology,
    tri_size,
)
from .noise import _Q, IncrementStream

__all__ = [
    "SimulationResult",
    "NonFiniteError",
    "DomainError",
    "simulate",
    "ensemble_scan",
    "simulate_lower_barrier_euler",
    "simulate_two_barrier",
    "escape_probability_bound",
    "default_drift_cap",
]

_EXP_MAX = 700.0  # exp argument ceiling, just under float64 overflow
_CHUNK_BYTES = 1 << 19  # size of each per-chunk buffer of ensemble_scan
_MAX_CHUNK = 256  # steps per chunk at most, so its step views stay few
# ensemble_scan holds an IncrementStream's draws in windows sized by bytes:
# the whole chunks that fit _WINDOW_BYTES, or _MIN_WINDOW steps if that is
# more, since every window costs each block of four replicates one more draw
# call, and a stream split at all opens a generator of its own per block.
# A path that fits a window is drawn whole.  A longer one is drawn in place,
# window by window, unless a core is idle and half a window still gives
# each block's draw call _MIN_WINDOW steps of one stream: then in two
# buffers of half the chunks each, one stepped while the draw thread fills
# the other.  Two windows of 1,053 steps held 6.7 MB of the 47.7 MB peak
# RSS of the four-particle batch of 100 replicates at M = 10,000; two of
# 243 steps hold 1.6 MB.  The equivalence coupling's batch of 1,000
# replicates (one stream, 8 KB a step) draws in place, in windows of 256
# steps: on 2 vCPUs, in medians of 60 interleaved calls, its scan took
# 57-62 ms in two halves of 128 steps, 54-61 ms in place and 51-56 ms
# from its whole (R, 1, M) array
_MIN_WINDOW, _WINDOW_BYTES = 256, 3 << 19
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
    barriers=None,
    observe=None,
    least_gap=None,
) -> np.ndarray:
    """Step an ensemble of replicates of the system wired by topology at
    one gamma or at several.

    noise holds the raw Normal(0, dt) draws for the P moving rows, shape
    (R, P, M), or (R, 1, M) for one stream that every moving row steps: an
    array, or an IncrementStream, whose block-major draws are held a window
    at a time, so that a longer path's whole array is never held; both step
    the same values.  A window is the whole chunks that fit 1.5 MB, or 256
    steps if that is more, and a path that fits one is drawn whole.  Where a
    core is idle (more than one core, and the calling thread is not stepping
    one of mc's tiles), a longer path is drawn in two half windows, each by
    a thread of the call's own while the other is stepped, if a half window
    holds 256 steps of one stream (each block's draw call makes at least
    1,024 normals); elsewhere it is drawn in place, window by window.  No
    draw outlives the call.  start holds the P start values.  barriers,
    shape (F, M+1), are the paths of the topology's last F rows, which are
    fixed: they are written into the state at every grid index instead of
    being stepped.  gamma is a scalar or a 1-d array of G values, cap a
    scalar or one value per gamma (None: default_drift_cap).  Every gamma
    steps the same noise: the state has G*R columns, gamma-major, each
    bit-identical to a call at its gamma alone.  A gamma, dt or cap that is
    not positive, a gamma or dt that is not finite, and a start or barrier
    value that is not finite raise ValueError.

    The step is T <- T + dW / sqrt(gamma) + clamp(drift, +-cap) * dt, the
    whole state read at the start of the step and each exp's argument
    capped at 700.  A chunk is stepped with neither cap first, then again,
    tamed, from its start state in each column where gamma times an edge's
    largest gap over the chunk passed min(log(cap), 700) of the row it
    pushes, rounded down past log's and exp's rounding.  Rounding is
    monotone, so that product is the largest gamma * gap of the chunk, and
    below the bound |drift| <= cap in floating point too: neither cap
    changes a value.  Steps run in chunks of k, sized so that the chunk's
    scaled noise (k, P, G*R) and its states take about 512 KB each, and of
    at most 256 steps, whose views are made once per call.
    observe(i0, block) gets the moving rows' states at grid indices i0 ..
    i0+k-1, a (k, P, G*R) view that the next chunk overwrites: once for
    i0 = 0, then once per chunk.  A non-finite state raises NonFiniteError
    at its first step and particle before its chunk is observed.

    least_gap, if given, is an array of shape (len(topology.relations),) +
    np.shape(gamma) + (R,).  It receives, for each relation (hi, lo) of
    topology.relations in that order, each column's least T[hi] - T[lo]
    over grid indices 0 .. M, start and end included: the least of the gaps
    the step forms for its drift, taken from the tamed states in re-stepped
    columns, so it equals the least rounded difference of the states that
    observe sees.  Every relation must bound a moving row.  Returns the
    per-replicate clamp-event counts, shape np.shape(gamma) + (R,).
    """
    R, S, M = noise.shape
    F = 0 if barriers is None else barriers.shape[0]
    P = topology.size - F
    if P < 0 or S not in (1, P):
        raise ValueError("noise and barriers do not match the topology")
    if F and barriers.shape != (F, M + 1):
        raise ValueError("barriers must have one value per grid point")
    if np.shape(start) != (P,):
        raise ValueError("start must hold one value per moving row")
    if not np.isfinite(start).all():
        raise ValueError("start must be finite")
    if F and not np.isfinite(barriers).all():
        raise ValueError("barriers must be finite")
    if not 0 < dt < np.inf:  # NaN fails too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    gam = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gam) & (gam > 0)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    G, GR = gam.size, gam.size * R
    caps = [default_drift_cap(g) for g in gam.flat] if cap is None else cap
    if not (np.asarray(caps) > 0).all():
        raise ValueError(f"cap must be positive, got {cap}")
    hi_cap = np.tile(np.repeat(np.broadcast_to(caps, (G,)), R), (P, 1))
    sqg = np.sqrt(gam).reshape(G, 1)
    lower, upper = topology.lower[:P], topology.upper[:P]
    pushed_up = np.flatnonzero(lower >= 0)
    pushed_dn = np.flatnonzero(upper >= 0)
    n_up, n_dn = pushed_up.size, pushed_dn.size
    # edge e carries exp(gamma * (v[hi[e]] - v[lo[e]])) and pushes row
    # owner[e]; upward pushes first
    hi = np.concatenate([lower[pushed_up], pushed_dn])
    lo = np.concatenate([pushed_up, upper[pushed_dn]])
    owner = np.concatenate([pushed_up, pushed_dn])
    E = n_up + n_dn
    g_row = np.tile(np.repeat(gam, R), (E, 1))
    ends = np.concatenate([hi, lo])
    # row E of push stays 0: the push a row gets from a missing barrier
    up_edge = np.full(P, E)
    up_edge[pushed_up] = np.arange(n_up)
    dn_edge = np.full(P, E)
    dn_edge[pushed_dn] = n_up + np.arange(n_dn)
    pushes = np.concatenate([up_edge, dn_edge])
    if least_gap is not None:
        # relation (h, l) is the edge (l, h), its gap negated: exactly, as
        # fl(a - b) = -fl(b - a) up to the sign of a zero
        edge_of = {pair: e for e, pair in enumerate(zip(hi.tolist(),
                                                          lo.tolist()))}
        try:
            rel_edge = [edge_of[low, high] for high, low in topology.relations]
        except KeyError:
            raise ValueError(
                "least_gap needs every relation to bound a moving row"
            ) from None
        if np.shape(least_gap) != (len(rel_edge),) + gam.shape + (R,):
            raise ValueError("least_gap must hold one value per relation, "
                             "gamma and replicate")
    room = np.minimum(np.log(hi_cap[owner]), _EXP_MAX)
    bound = room - 1e-12 * (1.0 + np.abs(room))
    # 0-d operands: a Python float costs each ufunc call a conversion
    exp_max, dt = np.array(_EXP_MAX), np.array(dt, dtype=float)
    K = max(1, min(M, _MAX_CHUNK, _CHUNK_BYTES // (8 * (P + F) * max(GR, 1))))
    streamed = isinstance(noise, IncrementStream)
    if streamed:
        # drawn in windows of whole chunks, so that no chunk straddles two
        nb, off = noise.blocks, noise.offset
        fit = _WINDOW_BYTES // (8 * _Q * max(nb * S, 1))
        chunks = max(_MIN_WINDOW, fit) // K
        whole = M <= chunks * K
        ring = 2 if (not whole and chunks // 2 * K * S >= _MIN_WINDOW
                     and _cores() > 1
                     and not getattr(_tile_thread, "on", False)) else 1
        W = M if whole else chunks // ring * K
        windows = [np.empty((nb, W, _Q, S)) for _ in range(ring)]
        # a block's 4·S values of a step move as one item, into K steps of
        # step-major rows, of which the range's replicates are [off, off + R)
        item = np.dtype((np.void, 8 * _Q * S))
        rows = np.empty((K, nb * _Q, S))
        row_items = rows.reshape(K, nb, _Q * S).view(item)[..., 0]
        items = [w.reshape(nb, W, _Q * S).view(item)[..., 0] for w in windows]
    else:
        W, windows = M, [noise.transpose(2, 0, 1)]  # (M, R, P) steps
    block, dW = np.empty((K + 1, P + F, GR)), np.empty((K, P, GR))
    ghist = np.empty((K, E, GR))  # each edge's gap at each step of the chunk
    # each edge's largest gap over the chunk, its product with gamma, and
    # its largest over the chunks so far
    most, scaled = np.empty((E, GR)), np.empty((E, GR))
    top = None if least_gap is None else np.full((E, GR), -np.inf)
    clamps = np.zeros(GR, dtype=int)
    # out goes positionally, except to np.minimum and np.maximum (deprecated)
    add, sub, mul, exp = np.add, np.subtract, np.multiply, np.exp

    def step_views(block, dW, ghist):
        return [(block[j], block[j, :P], block[j + 1, :P], dW[j], ghist[j])
                for j in range(len(ghist))]

    def run(views, g_row, caps=None):
        """Step views, writing each edge's gap to each one's last entry:
        untamed, or tamed by caps and then returning each column's clamp
        events."""
        cols = g_row.shape[1]
        both, push = np.empty((2 * E, cols)), np.zeros((E + 1, cols))
        rows = np.empty((2 * P, cols))
        near, far, push_e = both[:E], both[E:], push[:E]
        drift, down = rows[:P], rows[P:]
        if caps is not None:
            lo, hits = -caps, np.empty((len(views), P, cols), dtype=bool)
        for j, (v, now, nxt, dw, g) in enumerate(views):
            # the take method skips np.take's Python-level wrapper;
            # one call gathers both ends of every edge
            v.take(ends, 0, both, "clip")
            sub(near, far, g)
            mul(g, g_row, far)  # far is spent: it takes gamma * gap
            if caps is not None:
                np.minimum(far, exp_max, out=far)
            exp(far, push_e)
            # and one call both pushes of every row
            push.take(pushes, 0, rows, "clip")
            sub(drift, down, drift)
            step = drift
            if caps is not None:
                step = np.maximum(drift, lo, out=down)  # down is spent
                np.minimum(step, caps, out=step)
                np.not_equal(step, drift, hits[j])
            mul(step, dt, step)
            add(now, dw, nxt)
            add(nxt, step, nxt)
        return None if caps is None else np.count_nonzero(hits, axis=(0, 1))

    views = step_views(block, dW, ghist)  # made once, reused by every chunk
    block[0, :P] = np.reshape(start, (P, 1))
    if F:
        block[0, P:] = barriers[:, :1]
    if observe is not None:
        observe(0, block[:1, :P])
    pending = None  # the draw of the next window, while one is running
    # a thread of this call's own, so that no draw outlives it
    drawer = None
    if len(windows) > 1:
        # imported only where a thread is made, not at package import
        from concurrent.futures import ThreadPoolExecutor
        drawer = ThreadPoolExecutor(max_workers=1)
    try:
        for s in range(0, M, K):
            k = min(K, M - s)
            at = s % W  # the chunk's first step within its window
            cur = s // W % len(windows)
            if streamed:
                if at == 0:
                    if pending is None:
                        noise.fill(windows[cur][:, : min(W, M - s)])
                    else:
                        pending.result()
                    if drawer is not None and s + W < M:
                        ahead = windows[1 - cur][:, : min(W, M - s - W)]
                        pending = drawer.submit(noise.fill, ahead)
                np.copyto(row_items[:k], items[cur][:, at : at + k].T)
            inc = rows[:k, off : off + R] if streamed else windows[0][s : s + k]
            np.divide(inc.transpose(0, 2, 1)[:, :, None], sqg,
                      out=dW[:k].reshape(k, P, G, R))
            if F:
                block[: k + 1, P:] = barriers[:, s : s + k + 1].T[:, :, None]
            # a state gone non-finite stays so and raises after the chunk,
            # so the inf - inf or overflow it meets on the way is not warned
            # about
            with np.errstate(invalid="ignore", over="ignore"):
                run(views[:k], g_row)
                # the columns that may have clamped or met the guard are
                # stepped again, tamed, from the chunk's start state
                np.max(ghist[:k], axis=0, out=most)
                mul(most, g_row, scaled)
                fine = (scaled <= bound).all(0)
                redo = np.flatnonzero(~fine)
                if redo.size:
                    part = block[: k + 1].take(redo, 2)
                    hist = np.empty((k, E, redo.size))
                    clamps[redo] += run(
                        step_views(part, dW[:k].take(redo, 2), hist),
                        g_row[:, redo], hi_cap[:, redo])
                    block[1 : k + 1, :P, redo] = part[1:, :P]
                    most[:, redo] = hist.max(0)
                if top is not None:
                    np.maximum(top, most, out=top)
            states = block[1 : k + 1, :P]
            if not np.isfinite(states[-1]).all():
                j, _, p = np.argwhere(
                    ~np.isfinite(states).transpose(0, 2, 1))[0]
                raise NonFiniteError(step=s + int(j) + 1, particle=int(p))
            if observe is not None:
                observe(s + 1, states)
            block[0] = block[k]
    finally:
        if drawer is not None:
            # waits for a pending draw; the error raised is the one already
            # on its way
            drawer.shutdown()
    if top is not None:
        # the end state's gaps, formed as the step forms them
        ends_now = block[0].take(ends, 0)
        np.maximum(top, ends_now[:E] - ends_now[E:], out=top)
        # 0 - max rather than -max, so that a zero gap reads +0.0, as the
        # difference of two equal states does
        least_gap[...] = (0.0 - top[rel_edge]).reshape(np.shape(least_gap))
    return clamps.reshape(gam.shape + (R,))


def simulate(
    config: ModelConfig,
    grid: TimeGrid,
    noise,
) -> SimulationResult:
    """Tamed Euler run of the full triangle from config.initial, with the
    taming cap config.drift_cap (default exp(0.25 * gamma)).

    noise holds the raw Normal(0, dt) increments for the P particles in
    level-major order: a (P, M) array, or the IncrementStream of one
    replicate, shape (1, P, M), which ensemble_scan draws a window at a
    time.
    """
    N = config.N
    inc = noise
    if not isinstance(noise, IncrementStream):
        inc = np.asarray(noise, dtype=float)[None]
    if inc.shape != (1, tri_size(N), grid.steps):
        raise ValueError("noise shape does not match config/grid")
    out = np.empty((tri_size(N), grid.npoints))

    def keep(i0, block):
        out[:, i0 : i0 + len(block)] = block[:, :, 0].T

    clamps = ensemble_scan(
        Topology.triangle(N), config.initial.entries, inc, config.gamma,
        grid.dt, config.drift_cap, observe=keep,
    )
    return SimulationResult(PathBundle(N, grid, out), int(clamps[0]))


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
    T must be positive, C nonnegative, and all four finite.
    """
    if not (0 < T < np.inf and 0 <= C < np.inf
            and np.isfinite(C0) and np.isfinite(L)):
        raise DomainError(
            f"need finite C0, L, T > 0 and C >= 0, got C0={C0}, C={C}, "
            f"L={L}, T={T}"
        )
    C1 = 1.0 + 2.0 * np.exp(C - 1.0)
    G = C0 * C0 * T + 0.5 * C1 * C1 * T * T
    denom = L * L - C1 * T - C0 * C0
    if not denom > 0:  # NaN fails too
        raise DomainError(
            f"bound vacuous: L^2 = {L * L} <= C1*T + C0^2 = {C1 * T + C0 * C0}"
        )
    return float(G / denom)
