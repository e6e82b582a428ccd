"""Independent oracles that the tests judge the package against.

solve_edge_exact is the closed-form solution of one particle over a lower
barrier: the driver plus the smoothed Skorokhod push V_gamma of the
barrier-minus-driver path.  brute_force_local_rate numerically minimizes
the driver action over all drivers whose upward reflection reproduces a
target path, and verifies feasibility through the forward reflection map.

Neither the package namespace nor the CLI imports this module, so only a
caller of these oracles loads scipy.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .model import SamplePath
from .rate import _midpoints
from .skorokhod import _smoothed, reflect_above

_ORACLE_MAX_STEPS = 64  # the finest grid brute_force_local_rate accepts


class InfeasibleError(RuntimeError):
    """No driver reproduces the target path through the reflection map."""


def solve_edge_exact(
    lower: SamplePath, driver: np.ndarray, start: float, gamma: float
) -> SamplePath:
    """Exact solution of dT = dX + exp(gamma * (lower - T)) dt, T(a) = start.

    driver is the diffusion path X on the grid (pass W / sqrt(gamma) for the
    scaled system, or W itself for the unscaled edge equation).  The solution

        T(t) = start + X(t) - X(a)
               + (1/gamma) log{1 + gamma * integral_a^t
                                exp(gamma * (lower - X + X(a) - start)) ds}

    is the driver plus V_gamma of h = lower - X + X(a) - start.
    """
    grid = lower.grid
    x = np.asarray(driver, dtype=float)
    if x.shape != (grid.npoints,):
        raise ValueError("driver and lower barrier must share the grid")
    lift = _smoothed(lower.values - x + x[0] - start, gamma, grid.dt)
    return SamplePath(grid, start + x - x[0] + lift)


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
