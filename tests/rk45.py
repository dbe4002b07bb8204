"""Adaptive RK45 integration of the master equation: the test oracle of the
exact propagators in spinwehrl.dynamics.evolve.

evolve_rk45 integrates lindblad_rhs on the flattened complex matrix with
scipy's embedded Runge-Kutta 4(5) pair (rtol = tol, atol = tol * 1e-3) and
applies evolve's own contract to the output: every state is Hermitized and
trace-renormalized, and a trace drift above TRACE_DRIFT_BOUND raises.
"""

import numpy as np
from scipy.integrate import solve_ivp

from spinwehrl import DensityMatrix, StiffnessFailure
from spinwehrl.dynamics import TRACE_DRIFT_BOUND, Trajectory, lindblad_rhs


def evolve_rk45(rho0: DensityMatrix, h, d, t_grid, tol: float = 1e-10) -> Trajectory:
    """Integrate the master equation and sample the states on t_grid."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing with at least two points")
    dim = rho0.dim

    def rhs(t, y):
        return lindblad_rhs(y.reshape(dim, dim), t, h, d).ravel()

    sol = solve_ivp(
        rhs,
        (t_grid[0], t_grid[-1]),
        rho0.entries.ravel().astype(complex),
        method="RK45",
        t_eval=t_grid,
        rtol=tol,
        atol=tol * 1e-3,
    )
    if not sol.success:
        raise StiffnessFailure(f"integrator failed: {sol.message}")

    entries = []
    max_trace_drift = 0.0
    max_herm_drift = 0.0
    for k in range(t_grid.size):
        raw = sol.y[:, k].reshape(dim, dim)
        herm = 0.5 * (raw + raw.conj().T)
        max_herm_drift = max(max_herm_drift, float(np.max(np.abs(raw - herm))))
        tr = float(np.trace(herm).real)
        max_trace_drift = max(max_trace_drift, abs(tr - 1.0))
        if abs(tr - 1.0) > TRACE_DRIFT_BOUND:
            raise StiffnessFailure(f"trace drift {abs(tr - 1.0):.3e} exceeds {TRACE_DRIFT_BOUND}")
        entries.append(DensityMatrix(rho0.j, herm / tr).entries)
    return Trajectory(
        times=t_grid,
        entries=np.array(entries),
        max_trace_drift=max_trace_drift,
        max_hermiticity_drift=max_herm_drift,
        orders=tuple(range(dim)),
    )
