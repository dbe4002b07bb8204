"""Lindblad generator and its exact propagators.

The master equation is d rho/dt = -i [H, rho] + D(rho) with either a
dephasing dissipator -(lambda/2) [J_z, [J_z, rho]] or a (possibly
time-dependent) thermal amplitude-damping dissipator

    D(rho) = gamma (nbar+1) (J- rho J+ - {J+ J-, rho}/2)
           + gamma nbar     (J+ rho J- - {J- J+, rho}/2).

evolve propagates it exactly, with numpy alone. The generators at any two
times commute, so each state comes straight from rho0 by one exponential,
in one of two ways:

- A J_z-covariant generator (no Hamiltonian or a static omega J_z, with
  any dissipator) maps each coherence order k = a - b, the k-th diagonal
  of rho, onto itself. The Hamiltonian and dephasing multiply it by a
  number, i k omega - lambda k^2 / 2; damping couples neighbouring entries
  of it, a tridiagonal block A_|k| of size d - |k|. At t_n the state of
  order k is therefore
  exp(Gamma_n A_|k|) exp(i k omega (t_n - t_0) - lambda k^2 (t_n - t_0) / 2)
  applied to that of rho0, where Gamma_n is the integral of gamma(t) from
  t_0 to t_n (Gauss-Legendre per step when it depends on time).
- The rotating field is time-independent in the frame co-rotating with
  the drive: rho(t) = U(t) rho'(t) U(t)^dagger with U = exp(-i w t J_z),
  and rho' follows H' = -(b0 + w) J_z - b1 J_x, so rho'(t_n) is
  exp((t_n - t_0) G) rho'(t_0).

Matrix exponentials use the [13/13] Pade approximant with scaling and
squaring (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005). Both ways
take the exponentials by one rule (_propagate): where the increments of
the exponent are equal (a uniform grid with a constant rate) the first
one is exponentiated once and the states are filled by doubling, R^f
mapping the first f states onto the next f before it is squared; where
they differ (a time-dependent rate such as photon_pulse's, or a
non-uniform grid) each state's exponent is exponentiated directly, all of
them in batches. Every trajectory is finished on its order diagonals
(spin_ops._order_diagonals; the rotating frame's states are gathered
once): each order is Hermitized as (lower + conj(upper))/2, the trace
drift is held to a hard bound, and the states are trace-renormalized and
validated as one stack.

The Trajectory keeps those order diagonals and the coherence orders K of
its states: those of rho0 under a J_z-covariant generator, every order
under the rotating field. The states vanish off the diagonals of K, so
the layers after evolve read the diagonals and need no dense (n, d, d)
stack; Trajectory.entries scatters one on first read. D(rho), the one
dissipator of the package, is formed on the same order diagonals from the
unit-rate damping bands that the propagators use, O(d) per order and
state (_order_dissipation); dissipation is its form on matrices, which
lindblad_rhs and the rotating frame's generator call. The validation and
the von Neumann eigenvalues read a J_z-diagonal stack's populations alone,
and any other stack whole (spin_ops.order_blocks).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    NonMarkovianRate,
    NonPhysicalState,
    StiffnessFailure,
    UnsupportedParameters,
    WrongDimension,
)
from .spin_ops import (
    DensityMatrix,
    SpinQuantumNumber,
    _check_blocks,
    _diagonals_and_orders,
    _from_order_diagonals,
    _order_diagonals,
    coherence_orders,
    make_spin_operators,
    order_blocks,
    order_layout,
)

TRACE_DRIFT_BOUND = 1e-9

# Pade [13/13] numerator coefficients b_0..b_13, scaled to b_0 = 1 so that
# exp(0) is exactly the identity, and the 1-norm up to which the approximant
# is accurate to double precision unscaled (Higham 2005).
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
_THETA13 = 5.371920351148152
# Matrix entries exponentiated per batch when each state has its own exponent.
_EXPM_BATCH = 1 << 18
# Each damping exponent Gamma (2 nbar + 1), of a step or of a state's whole
# integral, is capped here, which keeps scaling and squaring in range at huge
# nbar. The slowest damping rates are gamma (2 nbar + 1) for populations and
# half that for coherences, so a larger exponent gives the same propagator,
# the stationary projector, to e^-50.
_RELAXED = 100.0
# Gauss-Legendre rule for the integral of a time-dependent rate over a step.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _spin_number_for(rho: np.ndarray) -> SpinQuantumNumber:
    d = rho.shape[-1] if rho.ndim else 0
    if rho.ndim < 2 or rho.shape[-2] != d or d < 2:
        raise DimensionMismatch(f"expected square matrices of dim >= 2, got {rho.shape}")
    return SpinQuantumNumber(d - 1)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Hamiltonian variants; all parameters in angular-frequency units."""

    kind: str
    omega: float = 0.0
    b0: float = 0.0
    b1: float = 0.0
    drive_omega: float = 0.0

    KINDS = ("none", "static_jz", "rotating_field")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")

    @classmethod
    def none(cls) -> "HamiltonianSpec":
        return cls(kind="none")

    @classmethod
    def static_jz(cls, omega: float) -> "HamiltonianSpec":
        return cls(kind="static_jz", omega=omega)

    @classmethod
    def rotating_field(cls, b0: float, b1: float, drive_omega: float) -> "HamiltonianSpec":
        return cls(kind="rotating_field", b0=b0, b1=b1, drive_omega=drive_omega)

    def matrix(self, j: SpinQuantumNumber, t) -> np.ndarray:
        """H at the time t, or at each of an array of times (a stack); a
        static Hamiltonian is one (d, d) matrix either way."""
        ops = make_spin_operators(j)
        if self.kind == "none":
            return np.zeros((j.dim, j.dim), dtype=complex)
        if self.kind == "static_jz":
            return self.omega * ops.jz
        if j.two_j != 1:
            raise DimensionMismatch("rotating_field Hamiltonian is defined for spin 1/2")
        wt = np.asarray(self.drive_omega * t)[..., None, None]
        return -self.b0 * ops.jz - self.b1 * (np.cos(wt) * ops.jx + np.sin(wt) * ops.jy)


@dataclass(frozen=True)
class DissipatorSpec:
    """Dissipator variants; rates in inverse-time units."""

    kind: str
    lam: float = 0.0
    gamma: float = 0.0
    nbar: float = 0.0
    gamma_t: Optional[Callable] = None

    KINDS = ("dephasing", "amplitude_damping", "time_dependent_damping")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown dissipator kind {self.kind!r}")
        if self.kind == "time_dependent_damping" and not callable(self.gamma_t):
            raise ValueError(f"time_dependent_damping needs a callable gamma_t, got {self.gamma_t!r}")
        if not all(0.0 <= x < np.inf for x in (self.lam, self.gamma, self.nbar)):  # also refuses nan
            raise NonPhysicalState("dissipator rates and occupation must be finite and non-negative")

    @classmethod
    def dephasing(cls, lam: float) -> "DissipatorSpec":
        return cls(kind="dephasing", lam=lam)

    @classmethod
    def amplitude_damping(cls, gamma: float, nbar: float) -> "DissipatorSpec":
        return cls(kind="amplitude_damping", gamma=gamma, nbar=nbar)

    @classmethod
    def time_dependent_damping(cls, gamma_t: Callable, nbar: float = 0.0) -> "DissipatorSpec":
        """Thermal damping at the rate gamma_t(t); gamma_t takes a time or an
        array of times, and evolve integrates it over each step."""
        return cls(kind="time_dependent_damping", gamma_t=gamma_t, nbar=nbar)


def _gamma_at(d: DissipatorSpec, t):
    """The damping rate of d at the time t, or at an array of times: the
    constant gamma (0 under dephasing), or the array of gamma_t, of which a
    negative rate raises NonMarkovianRate."""
    if d.kind != "time_dependent_damping":
        return d.gamma
    g = np.asarray(d.gamma_t(t), dtype=float)
    if np.any(g < 0):
        n = np.argmax(np.ravel(g) < 0)
        raise NonMarkovianRate(f"gamma_t({np.ravel(t)[n]}) = {np.ravel(g)[n]} is negative")
    return g


def lindblad_rhs(rho: np.ndarray, t, h: HamiltonianSpec, d: DissipatorSpec) -> np.ndarray:
    """d rho/dt = -i [H(t), rho] + D(rho), of one matrix or of a stack (see
    the module docstring)."""
    rho = np.asarray(rho, dtype=complex)
    j = _spin_number_for(rho)
    hm = h.matrix(j, t)
    return -1j * (hm @ rho - rho @ hm) + dissipation(rho, d, t)


@dataclass(frozen=True)
class Trajectory:
    """Validated states on a time grid, held as their read-only order
    diagonals (n, len(K), d, 2) on the coherence orders K of the states,
    the k >= 0 whose diagonals +-k may be nonzero, with the propagation's
    drift diagnostics. diagonals[:, idx, i, 0] is rho_{i+k, i} and
    diagonals[:, idx, i, 1] is rho_{i, i+k} for k = K[idx], in the layout
    of the gather spin_ops._order_diagonals of the states: order 0, the
    populations, in both columns, and zero beyond d - k. Every entry off K
    is exactly zero, so D(rho) works per order of K, and for K = {0}, 2J + 1
    populations per state, the validation and the von Neumann eigenvalues
    read the populations alone (spin_ops.order_blocks). A J_z-covariant
    generator keeps the orders of rho0 (spin_ops.coherence_orders); the
    rotating field keeps every order."""

    times: np.ndarray
    diagonals: np.ndarray
    max_trace_drift: float
    max_hermiticity_drift: float
    orders: tuple

    @property
    def j(self) -> SpinQuantumNumber:
        return SpinQuantumNumber(self.diagonals.shape[-2] - 1)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The states as one read-only (n, d, d) stack of density-matrix
        entries, scattered from the diagonals on first read and cached."""
        entries = _from_order_diagonals(self.diagonals, self.orders)
        entries.setflags(write=False)
        return entries

    def populations(self) -> np.ndarray:
        """(n, d) J_z populations (m descending)."""
        return self.diagonals[:, 0, :, 1].real

    def order_entries(self) -> tuple:
        """The row-major positions a d + b of the entries on the orders
        (spin_ops.order_layout) and their values in each state, (n,
        len(positions)); every other entry is exactly zero."""
        position, slot = order_layout(self.j.dim, self.orders)
        return position, self.diagonals.reshape(len(self.diagonals), -1).take(slot, axis=1)

    @functools.cached_property
    def bloch(self) -> np.ndarray:
        """(n, 3) array of tau vectors tau_i = tr(rho sigma_i), computed on
        first read from the diagonals; spin-1/2 trajectories only."""
        if self.j.two_j != 1:
            raise WrongDimension(f"Bloch representation needs two_j=1, got {self.j.two_j}")
        pops = self.populations()
        tau_z = pops[:, 0] - pops[:, 1]
        if self.orders == (0,):
            tau_x = tau_y = np.zeros_like(tau_z)
        else:  # from rho_10 and rho_01
            lower, upper = self.diagonals[:, 1, 0, 0], self.diagonals[:, 1, 0, 1]
            tau_x, tau_y = lower.real + upper.real, lower.imag - upper.imag
        bloch = np.stack([tau_x, tau_y, tau_z], axis=1)
        bloch.setflags(write=False)  # shared by every reader, as diagonals is
        return bloch


def expm(a: np.ndarray) -> np.ndarray:
    """exp of a square matrix, or of each matrix in a stack (..., n, n): the
    [13/13] Pade approximant with scaling and squaring (Higham 2005), each
    matrix scaled by its own power of two."""
    a = np.asarray(a)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a / np.exp2(squarings)[..., None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0))):
        need = squarings > k  # square only the matrices not yet squared enough
        s = r[need]
        r[need] = s @ s
    return r


def _propagate(x: np.ndarray, weights: np.ndarray, generator: np.ndarray, cap: float,
               finish: Callable = lambda r: r) -> np.ndarray:
    """x[1:] from x[0], each state straight from it:
    x[n] = finish(exp(w_n G)) x[0], with w_n the sum of the first n
    weights (elapsed time, or the integral of the rate) capped at cap.
    When the weights are equal, R = finish(exp(w_1 G)) is taken once and
    the states are filled by doubling: with f states filled and
    m = min(f, len(x) - f), R^f maps x[:m] onto x[f:f + m], then R^f is
    squared and finished, ceil(log2 len(x)) batched products in all.
    Otherwise each w_n is exponentiated directly, in batches of
    _EXPM_BATCH matrix entries."""
    if np.all(weights == weights[0]):
        power, filled = finish(expm(min(weights[0], cap) * generator)), 1
        while True:
            m = min(filled, x.shape[0] - filled)
            np.matmul(power, x[:m], out=x[filled:filled + m])
            filled += m
            if filled == x.shape[0]:
                return x
            power = finish(power @ power)
    w = np.minimum(np.cumsum(weights), cap).reshape((-1,) + (1,) * generator.ndim)
    chunk = max(1, _EXPM_BATCH // generator.size)
    for s in range(0, w.shape[0], chunk):
        np.matmul(finish(expm(w[s:s + chunk] * generator)), x[0], out=x[1 + s:1 + s + chunk])
    return x


def _steps(t_grid: np.ndarray) -> np.ndarray:
    """Step lengths of t_grid, all equal to the mean step where the grid is
    uniform to roundoff (as np.linspace makes it)."""
    n = t_grid.size - 1
    step = (t_grid[-1] - t_grid[0]) / n
    uniform = t_grid[0] + step * np.arange(n + 1)
    if np.max(np.abs(t_grid - uniform)) <= 8 * np.finfo(float).eps * np.max(np.abs(t_grid)):
        return np.full(n, step)
    return np.diff(t_grid)


def _step_integrals(rate: Callable, t_grid: np.ndarray) -> np.ndarray:
    """The integral over each step of a rate callable, which takes an array
    of times, by Gauss-Legendre per step."""
    half = 0.5 * np.diff(t_grid)[:, None]
    nodes = 0.5 * (t_grid[1:] + t_grid[:-1])[:, None] + half * _GL_NODES
    values = np.broadcast_to(np.asarray(rate(nodes), dtype=float), nodes.shape)
    return (values * (half * _GL_WEIGHTS)).sum(axis=1)


def _damping_bands(j: SpinQuantumNumber, nbar: float, orders) -> tuple:
    """Unit-rate damping on each coherence order k in orders, acting on the
    diagonal x_i = rho_{i+k, i} (or rho_{i, i+k}), i < d - k, as its three
    bands (lower, main, upper), each (len(orders), d) and zero beyond
    d - k. With p_a = <a-1|J+|a> (p_0 = p_d = 0):

        dx_i/dt = (nbar+1) p_{i+k} p_i x_{i-1} + nbar p_{i+k+1} p_{i+1} x_{i+1}
                  - [(nbar+1)(p_{i+k+1}^2 + p_{i+1}^2) + nbar (p_{i+k}^2 + p_i^2)] x_i / 2,

    lower[:, i] multiplying x_{i-1} and upper[:, i] x_{i+1}.
    """
    d = j.dim
    p = np.concatenate(([0.0], make_spin_operators(j).jp.diagonal(1).real, [0.0]))
    bands = np.zeros((3, len(orders), d))
    for (lower, main, upper), k in zip(bands.transpose(1, 0, 2), orders):
        i = np.arange(d - k)
        main[i] = -0.5 * ((nbar + 1.0) * (p[i + k + 1] ** 2 + p[i + 1] ** 2) + nbar * (p[i + k] ** 2 + p[i] ** 2))
        lower[i[1:]] = (nbar + 1.0) * p[i[1:] + k] * p[i[1:]]
        upper[i[:-1]] = nbar * p[i[:-1] + k + 1] * p[i[1:]]
    return bands


def _damping_blocks(j: SpinQuantumNumber, nbar: float, orders) -> np.ndarray:
    """The bands of _damping_bands as (len(orders), d, d) tridiagonal
    blocks, zero-padded beyond d - k."""
    lower, main, upper = _damping_bands(j, nbar, orders)
    i = np.arange(j.dim)
    blocks = np.zeros((len(orders), j.dim, j.dim))
    blocks[:, i, i] = main
    blocks[:, i[1:], i[:-1]] = lower[:, 1:]
    blocks[:, i[:-1], i[1:]] = upper[:, :-1]
    return blocks


def _conserve_populations(r: np.ndarray) -> np.ndarray:
    """r, a stack of propagators of the coherence orders (..., orders, d, d)
    whose first order is 0, with the columns of each order-0 block divided
    by their sums. exp(Gamma A_0) conserves the trace exactly, but scaling
    and squaring lets its column sums drift from 1 as Gamma (2 nbar + 1)
    grows: up to the _RELAXED cap, by 2.5e-12 at 2J = 40, whether Gamma is
    one step's increment or a state's whole integral. The powers that the
    doubling of _propagate squares drift the same way, by roundoff, and
    are renormalized too. A nan or inf propagator stays nan, and raises
    StiffnessFailure there."""
    pops = r[..., 0, :, :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pops /= pops.sum(axis=-2, keepdims=True)
    return r


def _covariant(rho0: DensityMatrix, h: HamiltonianSpec, d: DissipatorSpec, t_grid: np.ndarray, orders) -> np.ndarray:
    """The order diagonals (n, len(orders), d, 2) of the states on t_grid
    under a J_z-covariant generator (see spin_ops._order_diagonals),
    propagating only orders, the coherence orders of rho0: the damping
    blocks by _propagate, then each state's phases, one number per order
    and side of the diagonal, from the time elapsed since t_grid[0]."""
    if d.kind == "time_dependent_damping":
        dgamma = _step_integrals(functools.partial(_gamma_at, d), t_grid)
    else:
        dgamma = d.gamma * _steps(t_grid)  # zero for dephasing
    x = np.empty((t_grid.size, len(orders), rho0.dim, 2), dtype=complex)
    x[0] = _order_diagonals(rho0.entries, orders)
    # No damping, no blocks: at huge nbar the unit-rate blocks overflow, and exp(0 * inf) is nan.
    if np.any(dgamma):
        _propagate(x, dgamma, _damping_blocks(rho0.j, d.nbar, orders), 0.5 * _RELAXED / (d.nbar + 0.5),
                   _conserve_populations)
    else:
        x[1:] = x[0]
    ks = np.array(orders)
    elapsed = (t_grid - t_grid[0])[:, None]
    # Lower diagonal (k = a - b > 0) in column 0, upper (k < 0) in column 1.
    lower = np.exp(1j * ks * (h.omega * elapsed) - 0.5 * d.lam * ks**2 * elapsed)
    x *= np.stack([lower, lower.conj()], axis=-1)[:, :, None, :]
    return x


def _rotating_generator(j: SpinQuantumNumber, h: HamiltonianSpec, d: DissipatorSpec) -> np.ndarray:
    """The generator of the co-rotating frame on the flattened matrix,
    (d^2, d^2): H' = -(b0 + w) J_z - b1 J_x and D applied to the stack of
    basis matrices at once, column i the image of the i-th."""
    ops = make_spin_operators(j)
    hf = -(h.b0 + h.drive_omega) * ops.jz - h.b1 * ops.jx
    basis = np.eye(j.dim * j.dim).reshape(-1, j.dim, j.dim)
    images = -1j * (hf @ basis - basis @ hf) + dissipation(basis, d, 0.0)
    return images.reshape(j.dim * j.dim, -1).T


def _rotating_frame(rho0: DensityMatrix, h: HamiltonianSpec, d: DissipatorSpec, t_grid: np.ndarray) -> np.ndarray:
    """States on t_grid under the rotating field: the time-independent
    generator of the co-rotating frame, propagated exactly, then rotated
    back to the lab frame."""
    dim = rho0.dim
    m = rho0.j.m_values()
    # U rho U^dagger with U = exp(-i w t J_z) multiplies rho_ab by exp(-i w t (m_a - m_b)).
    lab = np.exp(-1j * h.drive_omega * t_grid[:, None, None] * (m[:, None] - m[None, :]))
    x = np.empty((t_grid.size, dim * dim, 1), dtype=complex)
    x[0, :, 0] = (rho0.entries * lab[0].conj()).ravel()
    cap = np.inf if d.gamma == 0 else 0.5 * _RELAXED / d.gamma / (d.nbar + 0.5)
    _propagate(x, _steps(t_grid), _rotating_generator(rho0.j, h, d), cap)
    return x.reshape(-1, dim, dim) * lab


def evolve(rho0: DensityMatrix, h: HamiltonianSpec, d: DissipatorSpec, t_grid: np.ndarray) -> Trajectory:
    """The states of the master equation on t_grid, from exact propagators
    (see the module docstring). A time-dependent rate callable takes an
    array of times; a negative damping rate raises NonMarkovianRate, and a
    rotating field with a time-dependent damping rate, whose parts do not
    commute, raises UnsupportedParameters."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or not np.all(np.isfinite(t_grid)) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be finite and strictly increasing with at least two points")
    # At nbar near the largest float the generator has inf entries: its
    # propagators overflow silently, to inf/nan states whose nan trace
    # drift is refused below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # A Hamiltonian defined for another spin, or a negative rate at the
        # start, is refused before integrating.
        h.matrix(rho0.j, t_grid[0])
        _gamma_at(d, t_grid[0])
        if h.kind != "rotating_field":
            orders = coherence_orders(rho0.entries)
            x = _covariant(rho0, h, d, t_grid, orders)
        elif d.kind == "time_dependent_damping":
            raise UnsupportedParameters("a rotating field with a time-dependent damping rate has no exact propagator")
        else:
            orders = tuple(range(rho0.dim))
            x = _order_diagonals(_rotating_frame(rho0, h, d, t_grid), orders)
        # (raw + raw^dagger)/2 per order: (lower + conj(upper))/2 and its mirror.
        # The traces are summed as complex numbers, as np.trace sums them.
        herm = 0.5 * (x + x[..., ::-1].conj())
        traces = herm[:, 0, :, 0].sum(axis=-1).real
        drift = np.abs(traces - 1.0)
        defect = np.abs(x - herm)
    beyond = ~(drift <= TRACE_DRIFT_BOUND)  # a nan drift (overflow) is beyond it too
    if np.any(beyond):
        first = drift[np.argmax(beyond)]
        raise StiffnessFailure(f"trace drift {first:.3e} exceeds {TRACE_DRIFT_BOUND}")
    herm /= traces[:, None, None, None]
    herm.setflags(write=False)
    traj = Trajectory(
        times=t_grid,
        diagonals=herm,
        max_trace_drift=float(drift.max()),
        max_hermiticity_drift=float(defect.max()),
        orders=orders,
    )
    _check_blocks(order_blocks(herm, orders))
    return traj


def _order_dissipation(x: np.ndarray, d: DissipatorSpec, t, orders) -> np.ndarray:
    """D(rho) on the order diagonals x of rho (see spin_ops._order_diagonals)
    on orders, the coherence orders of rho, as a new array of x's layout:
    one matrix at the time t, or a stack (n, len(orders), d, 2) at an array
    of n times. Dephasing multiplies order k by -lambda k^2 / 2, and damping
    applies the unit-rate bands of _damping_bands, O(d) per order and
    matrix, scaled by gamma, or by gamma_t at t. D is J_z-covariant, so it
    has no other order. It is the package's one D(rho): dissipation gives
    it on matrices, and the rates over a trajectory read it here, on
    Trajectory.diagonals."""
    ks = np.array(orders, dtype=float)
    if d.kind == "dephasing":
        return x * ((-0.5 * d.lam * ks) * ks)[:, None, None]
    gamma = np.asarray(_gamma_at(d, t))[..., None, None, None]
    if not np.any(gamma):  # undamped: at huge nbar the unit-rate bands overflow, and 0 * inf is nan
        return np.zeros(x.shape, dtype=complex)
    lower, main, upper = _damping_bands(SpinQuantumNumber(x.shape[-2] - 1), d.nbar, orders)[..., None]
    dx = main * x
    dx[..., 1:, :] += lower[:, 1:] * x[..., :-1, :]
    dx[..., :-1, :] += upper[:, :-1] * x[..., 1:, :]
    dx *= gamma
    return dx


def dissipation(rho, d: DissipatorSpec, t) -> np.ndarray:
    """D(rho) of one (d, d) matrix at the time t, or of an (n, d, d) stack
    or a Trajectory's states at an array of n times: _order_dissipation on
    their coherence orders (spin_ops._diagonals_and_orders), scattered
    back. lindblad_rhs and the rotating frame's generator form D(rho) here."""
    x, orders = _diagonals_and_orders(rho)
    return _from_order_diagonals(_order_dissipation(x, d, t, orders), orders)
