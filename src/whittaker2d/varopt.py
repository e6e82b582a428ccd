"""Most-likely paths: minimize the discretized bundle action between fixed
endpoint configurations subject to interlacing.

Projected gradient descent on the node values.  The smooth quadratic cells
contribute their gradient; on coincidence cells the one-sided penalty has a
flat direction and the matching subgradient (zero where the penalty
vanishes) is used.  After every step each time slice is projected back onto
the interlacing cone by sweeping the level pairs top-down and averaging
violating pairs.  Descent is monotone (backtracking line search), so the
final action never exceeds the linear-interpolation baseline the iteration
starts from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PathBundle,
    TimeGrid,
    Topology,
    TriangularConfiguration,
    _count,
    validate_initial_entries,
)
from .rate import _penalized_slopes

__all__ = ["VariationalProblem", "MinimizeResult", "minimize_rate"]

_TOL = 1e-12  # stop once a step would move the interior by less


@dataclass(frozen=True)
class VariationalProblem:
    N: int
    grid: TimeGrid
    initial: TriangularConfiguration
    terminal: TriangularConfiguration
    eps: float = 1e-6
    max_iters: int = 20000

    def __post_init__(self):
        if _count("max_iters", self.max_iters) < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        for name, cfg in (("initial", self.initial), ("terminal", self.terminal)):
            if cfg.N != self.N:
                raise ValueError(f"{name} configuration N mismatch")
            report = validate_initial_entries(self.N, cfg.entries)
            if report:
                raise ValueError(f"{name} configuration not interlaced: {report}")


@dataclass(frozen=True)
class MinimizeResult:
    bundle: PathBundle
    rate: float
    baseline_rate: float
    iterations: int
    converged: bool


def _project_interlacing(vals: np.ndarray, N: int, sweeps: int = 60) -> float:
    """Project every time slice onto the interlacing cone, in place.

    vals has shape (P, T).  Each sweep walks levels top-down and averages
    any violating pair; a handful of sweeps suffice in practice because the
    pairwise averaging is a contraction toward the cone.  Returns the worst
    remaining min(T[hi] - T[lo]) over the order relations (+inf when there
    are none): negative only when the sweeps ran out first.
    """
    relations = Topology.triangle(N).relations
    for _ in range(sweeps):
        clean = True
        for hi, lo in relations:
            gap = vals[hi] - vals[lo]
            bad = gap < 0
            if np.any(bad):
                clean = False
                mid = 0.5 * (vals[hi, bad] + vals[lo, bad])
                vals[hi, bad] = mid
                vals[lo, bad] = mid
        if clean:
            break
    gaps = (np.min(vals[hi] - vals[lo]) for hi, lo in relations)
    return float(min(gaps, default=np.inf))


def _objective_and_grad(vals: np.ndarray, N: int, grid: TimeGrid, eps: float):
    """Bundle action of the node-value array (P, M+1) and its (sub)gradient."""
    dt = grid.dt
    _, pen_slope = _penalized_slopes(vals, Topology.triangle(N), dt, eps)
    value = 0.5 * dt * float(np.sum(pen_slope**2))
    # d(value)/d(vals[:, i]) = pen_slope[:, i-1] - pen_slope[:, i]
    grad = np.zeros_like(vals)
    grad[:, :-1] -= pen_slope
    grad[:, 1:] += pen_slope
    return value, grad


def minimize_rate(problem: VariationalProblem) -> MinimizeResult:
    """Descend the bundle action from the linear-interpolation baseline.

    Endpoint slices stay fixed; every iterate is projected back onto the
    interlacing cone, and steps are accepted only if the action decreases,
    so the reported rate is nonincreasing across iterations.
    """
    N, grid = problem.N, problem.grid
    baseline = PathBundle.linear(N, grid, problem.initial, problem.terminal)
    vals = baseline.values.copy()

    def project(v):
        # an iterate left outside the cone would score +inf as a crossing
        defect = _project_interlacing(v, N)
        if defect < -problem.eps:
            raise RuntimeError(f"projection left a slice {-defect:.3e} "
                               f"outside the interlacing cone")

    project(vals)  # linear interp of cone points stays in cone

    f, grad = _objective_and_grad(vals, N, grid, problem.eps)
    baseline_rate = f
    step = grid.dt / 2.0
    it = 0
    for it in range(1, problem.max_iters + 1):
        # checked before the line search, so that a stationary baseline
        # costs no step halvings
        if np.linalg.norm(grad[:, 1:-1]) * step < _TOL:
            converged = True
            break
        trial = None
        for _ in range(40):
            cand = vals - step * grad
            cand[:, 0] = vals[:, 0]
            cand[:, -1] = vals[:, -1]
            project(cand)
            f_cand, g_cand = _objective_and_grad(cand, N, grid, problem.eps)
            if f_cand < f:
                trial = (cand, f_cand, g_cand)
                break
            step *= 0.5
        if trial is None:
            converged = True
            break
        vals, f, grad = trial
        step *= 1.3
    else:
        # the last allowed step may itself have met the tolerance
        converged = bool(np.linalg.norm(grad[:, 1:-1]) * step < _TOL)

    bundle = PathBundle(N, grid, vals)
    return MinimizeResult(
        bundle=bundle,
        rate=f,
        baseline_rate=baseline_rate,
        iterations=it,
        converged=converged,
    )
