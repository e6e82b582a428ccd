"""Action functionals on discretized sample paths.

Each path is scored cell by cell (a cell is one grid interval) with a
forward-difference slope.  Away from its barriers a particle pays the usual
quadratic action slope^2 / 2.  On a coincidence cell, where the path is
glued to a barrier within eps, only the half of the motion the barrier
resists is charged:

    glued to the lower barrier:  (slope)_- ^2 / 2   (descent costs)
    glued to the upper barrier:  (slope)_+ ^2 / 2   (ascent costs)

This is the canonical convention, matching the one-sided reflection
derivations and the drift directions of the dynamics; the opposite
assignment is available behind convention="theorem" so the discrepancy can
be measured rather than guessed at.  Crossing a barrier by more than eps,
or starting away from the prescribed initial value, yields the +inf
sentinel with an explicit reason.

brute_force_local_rate is an independent oracle: it numerically minimizes
the driver action over all drivers whose upward reflection reproduces the
target path, and verifies feasibility through the forward reflection map.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelConfig,
    PathBundle,
    SamplePath,
    Topology,
    TriIndex,
    tri_indices,
)
from .skorokhod import reflect_above

__all__ = [
    "LEMMA",
    "ALTERNATE",
    "CellLabel",
    "RateBreakdown",
    "InfeasibleError",
    "classify",
    "particle_rate",
    "total_rate",
    "brute_force_local_rate",
    "default_coincidence_eps",
]

LEMMA = "lemma"
ALTERNATE = "theorem"
_CONVENTIONS = (LEMMA, ALTERNATE)
_ORACLE_MAX_STEPS = 64  # the finest grid brute_force_local_rate accepts


class InfeasibleError(RuntimeError):
    """No driver reproduces the target path through the reflection map."""


class CellLabel(enum.IntEnum):
    INTERIOR = 0
    UPPER_COINCIDENT = 1
    LOWER_COINCIDENT = 2
    BOTH_COINCIDENT = 3
    CROSSING = 4


# the labels as plain ints: numpy compares an int8 array with an IntEnum
# member by first widening the array to int64
_INTERIOR, _UPPER, _LOWER, _BOTH, _CROSSING = map(int, CellLabel)


def default_coincidence_eps(dt: float, gamma: float) -> float:
    """Scale-aware default tolerance for coincidence detection.

    Adjacent noisy paths fluctuate by about sqrt(dt / gamma) per step; twice
    that separates glued from merely nearby at the grid's own resolution.
    """
    return 2.0 * np.sqrt(dt / gamma)


def _midpoints(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[..., :-1] + values[..., 1:])


def _cell_labels(
    vals: np.ndarray, topology: Topology, eps: float
) -> np.ndarray:
    """(P, M) labels of every row's cells against its barrier rows, compared
    at cell midpoints; a missing barrier never coincides or is crossed."""
    if not 0 < eps < np.inf:  # NaN fails too
        raise ValueError(f"eps must be positive and finite, got {eps}")
    mid = _midpoints(vals)
    # int8 and row by row, so that a row's work stays in cache
    labels = np.zeros(mid.shape, dtype=np.int8)
    for p, (up, lo) in enumerate(zip(topology.upper, topology.lower)):
        row = labels[p]
        crossing = np.zeros(row.shape, dtype=bool)
        if up >= 0:
            crossing |= mid[p] > mid[up] + eps
            row[np.abs(mid[p] - mid[up]) <= eps] = _UPPER
        if lo >= 0:
            crossing |= mid[p] < mid[lo] - eps
            # _UPPER + _LOWER == _BOTH
            row[np.abs(mid[p] - mid[lo]) <= eps] += _LOWER
        row[crossing] = _CROSSING
    return labels


def _penalized_slopes(
    vals: np.ndarray,
    topology: Topology,
    dt: float,
    eps: float,
    convention: str,
):
    """The one-sided-penalty kernel: (labels, penalized slopes), each (P, M).

    The penalized slope is the full slope on interior and crossing cells.
    A cell glued to the lower barrier keeps only descent, min(slope, 0), one
    glued to the upper barrier only ascent, max(slope, 0) (swapped under
    convention="theorem"), and a both-coincident cell keeps 0.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    labels = _cell_labels(vals, topology, eps)
    pen = np.diff(vals, axis=1)
    pen /= dt
    lower_kept, upper_kept = (
        (np.minimum, np.maximum) if convention == LEMMA
        else (np.maximum, np.minimum)
    )
    glued = labels == _LOWER
    pen[glued] = lower_kept(pen[glued], 0.0)
    glued = labels == _UPPER
    pen[glued] = upper_kept(pen[glued], 0.0)
    pen[labels == _BOTH] = 0.0
    return labels, pen


def _with_barriers(phi, upper, lower):
    """Rows phi, upper, lower (phi stands in for a missing barrier) and the
    Topology wiring the present barriers to row 0."""
    for barrier in (upper, lower):
        if barrier is not None and barrier.grid != phi.grid:
            raise ValueError("barrier grid mismatch")
    vals = np.array(
        [(phi if b is None else b).values for b in (phi, upper, lower)]
    )
    return vals, Topology([-1 if lower is None else 2, -1, -1],
                          [-1 if upper is None else 1, -1, -1])


def classify(
    phi: SamplePath,
    upper: SamplePath | None,
    lower: SamplePath | None,
    eps: float,
) -> np.ndarray:
    """CellLabel of every grid cell (int64, length M) by its position
    relative to the barriers.

    Comparison happens at cell midpoints.  A missing barrier never produces
    coincidence or crossing on its side.
    """
    labels = _cell_labels(*_with_barriers(phi, upper, lower), eps)[0]
    return labels.astype(np.int64)


@dataclass(frozen=True)
class ParticleTerms:
    """Per-particle action pieces; total is +inf when reason != 'none'."""

    interior: float = 0.0
    upper_coincident: float = 0.0
    lower_coincident: float = 0.0
    upper_measure: float = 0.0
    lower_measure: float = 0.0
    both_measure: float = 0.0
    reason: str = "none"

    @property
    def total(self) -> float:
        if self.reason != "none":
            return np.inf
        return self.interior + self.upper_coincident + self.lower_coincident


def _row_terms(labels, pen, dt, start, eps, initial_value) -> ParticleTerms:
    """Action pieces of one row from its kernel labels and penalized slopes."""
    if initial_value is not None and abs(start - initial_value) > eps:
        return ParticleTerms(reason="initial-mismatch")
    counts = np.bincount(labels, minlength=len(CellLabel))
    # both-coincident cells (upper = path = lower) carry no penalty; their
    # measure is reported so callers can see how much of the path they cover
    measures = dict(
        upper_measure=float(counts[_UPPER] * dt),
        lower_measure=float(counts[_LOWER] * dt),
        both_measure=float(counts[_BOTH] * dt),
    )
    if counts[_CROSSING]:
        return ParticleTerms(reason="crossing", **measures)

    def action(label):
        return 0.5 * dt * float(np.sum(pen[labels == label] ** 2))

    return ParticleTerms(
        interior=action(_INTERIOR),
        upper_coincident=action(_UPPER),
        lower_coincident=action(_LOWER),
        **measures,
    )


def particle_rate(
    phi: SamplePath,
    upper: SamplePath | None,
    lower: SamplePath | None,
    eps: float,
    initial_value: float | None = None,
    convention: str = LEMMA,
) -> float:
    """Action of one particle between its (possibly absent) barriers: with
    no barrier it is the Schilder (free quadratic) action, and over one
    barrier the local rate charged on the coincidence set.

    +inf when the path crosses a barrier by more than eps, or starts more
    than eps from initial_value (None: the start is not checked).
    """
    dt = phi.grid.dt
    vals, topo = _with_barriers(phi, upper, lower)
    labels, pen = _penalized_slopes(vals, topo, dt, eps, convention)
    terms = _row_terms(labels[0], pen[0], dt, vals[0, 0], eps, initial_value)
    return terms.total


@dataclass(frozen=True)
class RateBreakdown:
    """Per-particle action terms and the bundle total.

    total is +inf exactly when infinity_reason != 'none'; the offending
    particle is recorded so experiments can point at it.
    """

    terms: dict
    total: float
    infinity_reason: str
    offending: TriIndex | None = None


def total_rate(
    bundle: PathBundle,
    config: ModelConfig,
    eps: float,
    convention: str = LEMMA,
) -> RateBreakdown:
    """Sum of particle actions with barriers wired from the level above.

    Particle (n, k) is scored against upper barrier (n-1, k-1) and lower
    barrier (n-1, k) taken from the same bundle.  Any +inf sentinel
    propagates with its reason.
    """
    if bundle.N != config.N:
        raise ValueError("bundle and config disagree on N")
    dt = bundle.grid.dt
    labels, pen = _penalized_slopes(
        bundle.values, Topology.triangle(bundle.N), dt, eps, convention
    )
    terms = {}
    total = 0.0
    reason = "none"
    offending = None
    for p, idx in enumerate(tri_indices(bundle.N)):
        t = _row_terms(labels[p], pen[p], dt, bundle.values[p, 0], eps,
                       config.initial.entries[p])
        terms[idx] = t
        if t.reason != "none" and reason == "none":
            reason = t.reason
            offending = idx
        total += t.total
    return RateBreakdown(
        terms=terms,
        total=float(total),
        infinity_reason=reason,
        offending=offending,
    )


def brute_force_local_rate(
    phi: SamplePath,
    phi_minus: SamplePath,
    eps: float,
) -> float:
    """Independent variational oracle for the single-lower-barrier action.

    Minimizes the driver action (1/2) sum slope^2 dt over all drivers whose
    upward reflection off phi_minus reproduces phi, parameterized by the
    nonnegative per-cell push increments (the constraint set is convex; the
    reflection map is monotone in the driver).  Push may only act on cells
    where phi sits within eps of the barrier.  The candidate driver is then
    pushed through the forward reflection map and rejected (InfeasibleError)
    if it fails to reproduce phi, so the oracle never trusts the one-sided
    penalty formula it is checking.
    """
    if phi.grid != phi_minus.grid:
        raise ValueError("phi and barrier must share a grid")
    if phi.grid.steps > _ORACLE_MAX_STEPS:
        raise ValueError(
            f"oracle restricted to coarse grids (<= {_ORACLE_MAX_STEPS} steps)"
        )
    if np.any(phi.values < phi_minus.values - eps):
        raise InfeasibleError("target path undercuts the barrier")
    dt = phi.grid.dt
    dphi = np.diff(phi.values)
    support = (
        np.abs(_midpoints(phi.values) - _midpoints(phi_minus.values)) <= eps
    )
    n_push = int(np.count_nonzero(support))

    if n_push == 0:
        push = np.zeros(0)
    else:
        # scipy is imported here, by the one function that needs it, so
        # that importing the package loads numpy alone
        from scipy.optimize import minimize

        target = dphi[support]

        def objective(x):
            r = target - x
            return float(np.dot(r, r) / (2.0 * dt)), -r / dt

        res = minimize(
            objective,
            x0=np.maximum(target, 0.0),
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, None)] * n_push,
            options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12},
        )
        push = res.x

    dpsi = dphi.copy()
    if n_push:
        dpsi[support] -= push
    psi_values = np.concatenate(
        ([phi.values[0]], phi.values[0] + np.cumsum(dpsi))
    )
    psi = SamplePath(phi.grid, psi_values)
    reflected = reflect_above(psi, phi_minus, float(phi.values[0]))
    tol = max(2.0 * eps, 1e-8)
    gap = float(np.max(np.abs(reflected.path.values - phi.values)))
    if gap > tol:
        raise InfeasibleError(
            f"best driver misses the target by {gap:.3e} (> {tol:.3e})"
        )
    return 0.5 * float(np.sum(dpsi**2)) / dt
