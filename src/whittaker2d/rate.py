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
from scipy.optimize import minimize

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
    "CellLabel",
    "CoincidenceClassification",
    "ParticleTerms",
    "RateBreakdown",
    "InfeasibleError",
    "classify",
    "local_rate_lower",
    "local_rate_upper",
    "particle_rate",
    "total_rate",
    "schilder_rate",
    "brute_force_local_rate",
    "default_coincidence_eps",
]

LEMMA = "lemma"
ALTERNATE = "theorem"
_CONVENTIONS = (LEMMA, ALTERNATE)


class InfeasibleError(RuntimeError):
    """No driver reproduces the target path through the reflection map."""


class CellLabel(enum.IntEnum):
    INTERIOR = 0
    UPPER_COINCIDENT = 1
    LOWER_COINCIDENT = 2
    BOTH_COINCIDENT = 3
    CROSSING = 4


@dataclass(frozen=True)
class CoincidenceClassification:
    """Per-cell labels (length M) and the tolerance used to assign them."""

    labels: np.ndarray
    eps: float

    def measure(self, label: CellLabel, dt: float) -> float:
        return float(np.count_nonzero(self.labels == label) * dt)

    @property
    def has_crossing(self) -> bool:
        return bool(np.any(self.labels == CellLabel.CROSSING))


def default_coincidence_eps(dt: float, gamma: float) -> float:
    """Scale-aware default tolerance for coincidence detection.

    Adjacent noisy paths fluctuate by about sqrt(dt / gamma) per step; twice
    that separates glued from merely nearby at the grid's own resolution.
    """
    return 2.0 * np.sqrt(dt / gamma)


def _midpoints(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[:-1] + values[1:])


def classify(
    phi: SamplePath,
    upper: SamplePath | None,
    lower: SamplePath | None,
    eps: float,
) -> CoincidenceClassification:
    """Label every grid cell by its position relative to the barriers.

    Comparison happens at cell midpoints.  A missing barrier never produces
    coincidence or crossing on its side.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = phi.grid.steps
    pm = _midpoints(phi.values)
    labels = np.zeros(m, dtype=np.int64)
    up_coinc = np.zeros(m, dtype=bool)
    lo_coinc = np.zeros(m, dtype=bool)
    crossing = np.zeros(m, dtype=bool)
    if upper is not None:
        if upper.grid != phi.grid:
            raise ValueError("upper barrier grid mismatch")
        um = _midpoints(upper.values)
        crossing |= pm > um + eps
        up_coinc = np.abs(pm - um) <= eps
    if lower is not None:
        if lower.grid != phi.grid:
            raise ValueError("lower barrier grid mismatch")
        lm = _midpoints(lower.values)
        crossing |= pm < lm - eps
        lo_coinc = np.abs(pm - lm) <= eps
    labels[up_coinc] = CellLabel.UPPER_COINCIDENT
    labels[lo_coinc] = CellLabel.LOWER_COINCIDENT
    labels[up_coinc & lo_coinc] = CellLabel.BOTH_COINCIDENT
    labels[crossing] = CellLabel.CROSSING
    return CoincidenceClassification(labels=labels, eps=eps)


def _cell_slopes(phi: SamplePath) -> np.ndarray:
    return np.diff(phi.values) / phi.grid.dt


def _one_sided_penalties(slopes: np.ndarray, convention: str):
    """(lower_coincidence_penalty, upper_coincidence_penalty) per cell."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    descent = np.minimum(slopes, 0.0) ** 2
    ascent = np.maximum(slopes, 0.0) ** 2
    if convention == LEMMA:
        return descent, ascent
    return ascent, descent


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


def _particle_terms(
    phi: SamplePath,
    upper: SamplePath | None,
    lower: SamplePath | None,
    eps: float,
    initial_value: float | None,
    convention: str = LEMMA,
) -> ParticleTerms:
    if initial_value is not None and abs(phi.values[0] - initial_value) > eps:
        return ParticleTerms(reason="initial-mismatch")
    cls = classify(phi, upper, lower, eps)
    dt = phi.grid.dt
    if cls.has_crossing:
        return ParticleTerms(
            reason="crossing",
            upper_measure=cls.measure(CellLabel.UPPER_COINCIDENT, dt),
            lower_measure=cls.measure(CellLabel.LOWER_COINCIDENT, dt),
            both_measure=cls.measure(CellLabel.BOTH_COINCIDENT, dt),
        )
    slopes = _cell_slopes(phi)
    lo_pen, up_pen = _one_sided_penalties(slopes, convention)
    lab = cls.labels
    interior = lab == CellLabel.INTERIOR
    upc = lab == CellLabel.UPPER_COINCIDENT
    loc = lab == CellLabel.LOWER_COINCIDENT
    # both-coincident cells (upper = path = lower) carry no penalty; their
    # measure is reported so callers can see how much of the path they cover
    return ParticleTerms(
        interior=0.5 * dt * float(np.sum(slopes[interior] ** 2)),
        upper_coincident=0.5 * dt * float(np.sum(up_pen[upc])),
        lower_coincident=0.5 * dt * float(np.sum(lo_pen[loc])),
        upper_measure=cls.measure(CellLabel.UPPER_COINCIDENT, dt),
        lower_measure=cls.measure(CellLabel.LOWER_COINCIDENT, dt),
        both_measure=cls.measure(CellLabel.BOTH_COINCIDENT, dt),
        reason="none",
    )


def local_rate_lower(
    phi: SamplePath,
    phi_minus: SamplePath,
    eps: float,
    convention: str = LEMMA,
) -> float:
    """Action of a path over a single lower barrier: descent is charged on
    the coincidence set, full quadratic cost elsewhere; +inf on crossing."""
    return _particle_terms(
        phi, None, phi_minus, eps, None, convention
    ).total


def local_rate_upper(
    phi: SamplePath,
    phi_plus: SamplePath,
    eps: float,
    convention: str = LEMMA,
) -> float:
    """Mirror of local_rate_lower under a single upper barrier."""
    return _particle_terms(phi, phi_plus, None, eps, None, convention).total


def particle_rate(
    phi: SamplePath,
    upper: SamplePath | None,
    lower: SamplePath | None,
    eps: float,
    initial_value: float,
    convention: str = LEMMA,
) -> float:
    """Action of one particle between its (possibly absent) barriers.

    +inf when the path starts more than eps from initial_value or crosses a
    barrier by more than eps.
    """
    return _particle_terms(
        phi, upper, lower, eps, initial_value, convention
    ).total


def schilder_rate(phi: SamplePath, initial_value: float, eps: float = 1e-9) -> float:
    """Barrier-free quadratic action (the degenerate strictly-interlaced
    case): half the integral of the squared slope, +inf on initial
    mismatch."""
    if abs(phi.values[0] - initial_value) > eps:
        return np.inf
    slopes = _cell_slopes(phi)
    return 0.5 * phi.grid.dt * float(np.sum(slopes**2))


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
    topo = Topology.triangle(bundle.N)

    def path(row):
        return None if row < 0 else SamplePath(bundle.grid, bundle.values[row])

    terms = {}
    total = 0.0
    reason = "none"
    offending = None
    for p, idx in enumerate(tri_indices(bundle.N)):
        t = _particle_terms(
            path(p),
            path(topo.upper[p]),
            path(topo.lower[p]),
            eps,
            config.initial.entries[p],
            convention,
        )
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
    max_steps: int = 64,
    feas_tol: float | None = None,
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
    if phi.grid.steps > max_steps:
        raise ValueError(
            f"oracle restricted to coarse grids (<= {max_steps} steps)"
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
    tol = feas_tol if feas_tol is not None else max(2.0 * eps, 1e-8)
    gap = float(np.max(np.abs(reflected.path.values - phi.values)))
    if gap > tol:
        raise InfeasibleError(
            f"best driver misses the target by {gap:.3e} (> {tol:.3e})"
        )
    return 0.5 * float(np.sum(dpsi**2)) / dt
