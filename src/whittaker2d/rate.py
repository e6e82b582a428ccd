"""Action functionals on discretized sample paths.

Each path is scored cell by cell (a cell is one grid interval) with a
forward-difference slope.  Away from its barriers a particle pays the usual
quadratic action slope^2 / 2.  On a coincidence cell, where the path is
glued to a barrier within eps, only the half of the motion the barrier
resists is charged:

    glued to the lower barrier:  (slope)_- ^2 / 2   (descent costs)
    glued to the upper barrier:  (slope)_+ ^2 / 2   (ascent costs)

There is one convention, the lemma's one-sided reading.  The contraction
principle through the reflection map confirms it at gamma = infinity:
criterion 5's brute-force oracle, which minimizes the driver action over
the drivers whose reflection is the path, matches it to 2.2e-16 on that
criterion's 20 glued pairs, where the opposite assignment (ascent charged
on the lower barrier, descent on the upper) is off by up to 73%.  A
finite-gamma experiment measures how the soft system approaches this
limit, so it needs no second convention to compare against.

Crossing a barrier by more than eps, or starting away from the prescribed
initial value, yields the +inf sentinel with an explicit reason.
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

__all__ = [
    "CellLabel",
    "RateBreakdown",
    "classify",
    "particle_rate",
    "total_rate",
    "default_coincidence_eps",
]

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
    vals: np.ndarray, topology: Topology, dt: float, eps: float
):
    """The one-sided-penalty kernel: (labels, penalized slopes), each (P, M).

    The penalized slope is the full slope on interior and crossing cells.
    A cell glued to the lower barrier keeps only descent, min(slope, 0), one
    glued to the upper barrier only ascent, max(slope, 0), and a
    both-coincident cell keeps 0.
    """
    labels = _cell_labels(vals, topology, eps)
    pen = np.diff(vals, axis=1)
    pen /= dt
    glued = labels == _LOWER
    pen[glued] = np.minimum(pen[glued], 0.0)
    glued = labels == _UPPER
    pen[glued] = np.maximum(pen[glued], 0.0)
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
) -> float:
    """Action of one particle between its (possibly absent) barriers: with
    no barrier it is the Schilder (free quadratic) action, and over one
    barrier the local rate charged on the coincidence set.

    +inf when the path crosses a barrier by more than eps, or starts more
    than eps from initial_value (None: the start is not checked).
    """
    dt = phi.grid.dt
    vals, topo = _with_barriers(phi, upper, lower)
    labels, pen = _penalized_slopes(vals, topo, dt, eps)
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
    bundle: PathBundle, config: ModelConfig, eps: float
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
        bundle.values, Topology.triangle(bundle.N), dt, eps
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
