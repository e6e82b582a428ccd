"""One-sided reflection maps with moving barriers.

reflect_above keeps a path on or above a barrier by adding the running
supremum of the barrier excess,

    out(t) = c + psi(t) + max over s <= t of (barrier - psi - c)(s)_+,
    c = start - psi(a),

which is the exact large-scaling limit of the exponential soft barrier.
smoothed_reflection_term evaluates the finite-gamma smoothing

    V_gamma(t) = (1/gamma) log{1 + integral_a^t gamma exp(gamma h(s)) ds}

of the hard running supremum V_inf(t) = max over s <= t of h(s)_+.  Its
integral is a trapezoid sum accumulated in log space, which stays finite
however far gamma * h reaches either way; the closed-form edge solution
of the test oracles is the driver plus this same V_gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SamplePath

__all__ = [
    "ReflectionResult",
    "reflect_above",
    "reflect_below",
    "smoothed_reflection_term",
]


@dataclass(frozen=True)
class ReflectionResult:
    """Reflected path, its push term, and where the push is active.

    push_term is nonnegative and nondecreasing for the upward map; it is
    what the barrier has added so far.  active[i] is True where the running
    supremum is (re)attained, i.e. the barrier is actually in contact.
    """

    path: SamplePath
    push_term: SamplePath
    active: np.ndarray


def running_sup_plus(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix max of values clipped below at 0, plus the activity mask.

    A point is active when the unclipped running max is attained there
    (strictly increased, or equal at the start of a flat stretch of new
    maxima starting from index 0).
    """
    run = np.maximum.accumulate(values)
    sup = np.maximum(run, 0.0)
    active = (values >= run) & (values >= 0.0)
    return sup, active


def _offset(driver: SamplePath, barrier: SamplePath, start: float) -> float:
    """c = start - driver(a) of either map, once its inputs are checked."""
    if driver.grid != barrier.grid:
        raise ValueError("driver and barrier must share a grid")
    if not -np.inf < start < np.inf:  # NaN fails too
        raise ValueError(f"start must be finite, got {start}")
    return start - driver.values[0]


def reflect_above(
    driver: SamplePath, barrier: SamplePath, start: float
) -> ReflectionResult:
    """Reflect the driver upward off the moving barrier, starting at start."""
    c = _offset(driver, barrier, start)
    excess = barrier.values - driver.values - c
    push, active = running_sup_plus(excess)
    out = c + driver.values + push
    return ReflectionResult(
        path=SamplePath(driver.grid, out),
        push_term=SamplePath(driver.grid, push),
        active=active,
    )


def reflect_below(
    driver: SamplePath, barrier: SamplePath, start: float
) -> ReflectionResult:
    """Mirror map keeping the path on or below the barrier:

        out(t) = c + psi(t) - max over s <= t of (-(barrier - psi - c))(s)_+
    """
    c = _offset(driver, barrier, start)
    deficit = -(barrier.values - driver.values - c)
    push, active = running_sup_plus(deficit)
    out = c + driver.values - push
    return ReflectionResult(
        path=SamplePath(driver.grid, out),
        push_term=SamplePath(driver.grid, push),
        active=active,
    )


def _smoothed(h: np.ndarray, gamma: float, dt: float) -> np.ndarray:
    """V_gamma of the values h on a uniform grid of step dt.

    The trapezoid integral of exp(gamma * h) is accumulated in log space,
    cell by cell, so the exponent may reach hundreds of units without
    overflow.
    """
    if not 0 < gamma < np.inf:  # NaN fails too
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    logf = gamma * h
    cell = np.logaddexp(logf[:-1], logf[1:]) + np.log(dt / 2.0)
    log_integral = np.empty(logf.shape[0])
    log_integral[0] = -np.inf
    np.logaddexp.accumulate(cell, out=log_integral[1:])
    log_integral += np.log(gamma)
    return np.logaddexp(0.0, log_integral) / gamma


def smoothed_reflection_term(
    h: SamplePath, gamma: float
) -> tuple[SamplePath, SamplePath]:
    """(V_gamma, V_inf) for the barrier-minus-driver path h.

    V_gamma is the finite-gamma log-integral smoothing of the running
    supremum V_inf; deterministically V_gamma <= V_inf + log(1+gamma)/gamma
    pointwise, and the two converge as gamma grows.
    """
    v_gamma = _smoothed(h.values, gamma, h.grid.dt)
    v_inf, _ = running_sup_plus(h.values)
    return SamplePath(h.grid, v_gamma), SamplePath(h.grid, v_inf)
