"""Lindblad generator and its exact propagators.

The master equation is d rho/dt = -i [H, rho] + D(rho) with either a
dephasing dissipator -(lambda/2) [J_z, [J_z, rho]] or a (possibly
time-dependent) thermal amplitude-damping dissipator

    D(rho) = gamma (nbar+1) (J- rho J+ - {J+ J-, rho}/2)
           + gamma nbar     (J+ rho J- - {J- J+, rho}/2).

evolve propagates it exactly, with numpy alone, in one of two ways:

- A J_z-covariant generator (a none, static_jz or pulse_effective
  Hamiltonian with any dissipator) maps each coherence order k = a - b,
  the k-th diagonal of rho, onto itself. The Hamiltonian and dephasing
  multiply it by a number, i k omega - lambda k^2 / 2; damping couples
  neighbouring entries of it, a tridiagonal block A_|k| of size d - |k|.
  Over one output step the propagator of order k is therefore
  exp(dGamma A_|k|) exp(i k dTheta - lambda k^2 dt / 2), where dGamma and
  dTheta are the integrals of gamma(t) and omega(t) over the step
  (Gauss-Legendre per step when they depend on time).
- The rotating field is time-independent in the frame co-rotating with
  the drive: rho(t) = U(t) rho'(t) U(t)^dagger with U = exp(-i w t J_z),
  and rho' follows H' = -(b0 + w) J_z - b1 J_x.

Matrix exponentials use the [13/13] Pade approximant with scaling and
squaring (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005). Output
states are Hermitized and trace-renormalized, with the drift monitored
against a hard bound, and validated as one stack.

The Hamiltonian, the dissipators and lindblad_rhs act on one (d, d)
matrix at a time t, or on an (n, d, d) stack of them at n times.
"""

from __future__ import annotations

import functools
import itertools
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
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    SpinQuantumNumber,
    check_density_entries,
    make_spin_operators,
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
# Matrix entries exponentiated per batch when each step has its own propagator.
_EXPM_BATCH = 1 << 18
# Gauss-Legendre rule for the integral of a time-dependent rate over a step.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


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
    omega_t: Optional[Callable] = None

    @classmethod
    def none(cls) -> "HamiltonianSpec":
        return cls(kind="none")

    @classmethod
    def static_jz(cls, omega: float) -> "HamiltonianSpec":
        return cls(kind="static_jz", omega=omega)

    @classmethod
    def rotating_field(cls, b0: float, b1: float, drive_omega: float) -> "HamiltonianSpec":
        return cls(kind="rotating_field", b0=b0, b1=b1, drive_omega=drive_omega)

    @classmethod
    def pulse_effective(cls, omega_t: Callable) -> "HamiltonianSpec":
        """omega_t(t) J_z for spin 1/2; omega_t takes a time or an array of
        times, and evolve integrates it over each step."""
        return cls(kind="pulse_effective", omega_t=omega_t)

    def matrix(self, j: SpinQuantumNumber, t) -> np.ndarray:
        """H at the time t, or at each of an array of times (a stack); a
        static Hamiltonian is one (d, d) matrix either way."""
        ops = make_spin_operators(j)
        if self.kind == "none":
            return np.zeros((j.dim, j.dim), dtype=complex)
        if self.kind == "static_jz":
            return self.omega * ops.jz
        if self.kind == "rotating_field":
            if j.two_j != 1:
                raise DimensionMismatch("rotating_field Hamiltonian is defined for spin 1/2")
            wt = np.asarray(self.drive_omega * t)[..., None, None]
            return -self.b0 * ops.jz - self.b1 * (np.cos(wt) * ops.jx + np.sin(wt) * ops.jy)
        if self.kind == "pulse_effective":
            if j.two_j != 1:
                raise DimensionMismatch("pulse_effective Hamiltonian is defined for spin 1/2")
            return np.asarray(self.omega_t(t))[..., None, None] * ops.jz
        raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")


@dataclass(frozen=True)
class DissipatorSpec:
    """Dissipator variants; rates in inverse-time units."""

    kind: str
    lam: float = 0.0
    gamma: float = 0.0
    nbar: float = 0.0
    gamma_t: Optional[Callable] = None

    def __post_init__(self):
        if self.lam < 0 or self.gamma < 0 or self.nbar < 0:
            raise NonPhysicalState("dissipator rates and occupation must be non-negative")

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

    def apply(self, rho: np.ndarray, t) -> np.ndarray:
        """D(rho) of one matrix at the time t, or of an (n, d, d) stack at
        an array of n times."""
        if self.kind == "dephasing":
            return dephasing_dissipator(rho, self.lam)
        if self.kind == "amplitude_damping":
            return amplitude_damping_dissipator(rho, self.gamma, self.nbar)
        if self.kind == "time_dependent_damping":
            g = np.asarray(self.gamma_t(t), dtype=float)
            if np.any(g < 0):
                n = np.argmax(np.ravel(g) < 0)
                raise NonMarkovianRate(f"gamma_t({np.ravel(t)[n]}) = {np.ravel(g)[n]} is negative")
            return amplitude_damping_dissipator(rho, g[..., None, None], self.nbar)
        raise ValueError(f"unknown dissipator kind {self.kind!r}")


def dephasing_dissipator(rho: np.ndarray, lam: float) -> np.ndarray:
    """-(lambda/2) [J_z, [J_z, rho]]; elementwise -(lambda/2) (m - m')^2 rho."""
    j = _spin_number_for(np.asarray(rho))
    ms = j.m_values()
    diff = ms[:, None] - ms[None, :]
    return -0.5 * lam * diff * diff * np.asarray(rho, dtype=complex)


def amplitude_damping_dissipator(rho: np.ndarray, gamma, nbar: float) -> np.ndarray:
    """Thermal amplitude-damping dissipator targeting the Gibbs state of
    omega*J_z; gamma is a number, or an array that broadcasts against rho."""
    rho = np.asarray(rho, dtype=complex)
    ops = make_spin_operators(_spin_number_for(rho))
    jp, jm = ops.jp, ops.jm
    jpjm = jp @ jm
    jmjp = jm @ jp
    down = jm @ rho @ jp - 0.5 * (jpjm @ rho + rho @ jpjm)
    up = jp @ rho @ jm - 0.5 * (jmjp @ rho + rho @ jmjp)
    return gamma * (nbar + 1.0) * down + gamma * nbar * up


def lindblad_rhs(rho: np.ndarray, t, h: HamiltonianSpec, d: DissipatorSpec) -> np.ndarray:
    """d rho/dt = -i [H(t), rho] + D(rho), of one matrix or of a stack (see
    the module docstring)."""
    rho = np.asarray(rho, dtype=complex)
    j = _spin_number_for(rho)
    hm = h.matrix(j, t)
    return -1j * (hm @ rho - rho @ hm) + d.apply(rho, t)


@dataclass(frozen=True)
class Trajectory:
    """Validated states on a time grid, as one read-only (n, d, d) stack of
    density-matrix entries, with the propagation's drift diagnostics."""

    times: np.ndarray
    entries: np.ndarray
    max_trace_drift: float
    max_hermiticity_drift: float

    @property
    def j(self) -> SpinQuantumNumber:
        return SpinQuantumNumber(self.entries.shape[-1] - 1)

    def populations(self) -> np.ndarray:
        """(n, d) J_z populations (m descending)."""
        return self.entries.diagonal(axis1=1, axis2=2).real

    @functools.cached_property
    def bloch(self) -> np.ndarray:
        """(n, 3) array of tau vectors tau_i = tr(rho sigma_i), computed on
        first read; spin-1/2 trajectories only."""
        if self.j.two_j != 1:
            raise WrongDimension(f"Bloch representation needs two_j=1, got {self.j.two_j}")
        bloch = np.einsum("nab,iba->ni", self.entries, _PAULIS).real
        bloch.setflags(write=False)  # shared by every reader, as entries is
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


def _step_propagators(weights: np.ndarray, generator: np.ndarray, finish: Callable = lambda r: r):
    """finish(exp(w G)) for each step's weight w, in step order: one
    exponential when every step has the same weight, otherwise batches of
    steps; finish maps each exponential, or batch of them, once."""
    if np.all(weights == weights[0]):
        return itertools.repeat(finish(expm(weights[0] * generator)), weights.size)
    chunk = max(1, _EXPM_BATCH // generator.size)
    shape = (-1,) + (1,) * generator.ndim
    return itertools.chain.from_iterable(
        finish(expm(weights[s:s + chunk].reshape(shape) * generator)) for s in range(0, weights.size, chunk)
    )


def _steps(t_grid: np.ndarray) -> np.ndarray:
    """Step lengths of t_grid, all equal to the mean step where the grid is
    uniform to roundoff (as np.linspace makes it)."""
    n = t_grid.size - 1
    step = (t_grid[-1] - t_grid[0]) / n
    uniform = t_grid[0] + step * np.arange(n + 1)
    if np.max(np.abs(t_grid - uniform)) <= 8 * np.finfo(float).eps * np.max(np.abs(t_grid)):
        return np.full(n, step)
    return np.diff(t_grid)


def _step_integrals(rate: Callable, t_grid: np.ndarray) -> tuple:
    """(nodes, rate at the nodes, integral over each step) of a rate
    callable, which takes an array of times, by Gauss-Legendre per step."""
    half = 0.5 * np.diff(t_grid)[:, None]
    nodes = 0.5 * (t_grid[1:] + t_grid[:-1])[:, None] + half * _GL_NODES
    values = np.broadcast_to(np.asarray(rate(nodes), dtype=float), nodes.shape)
    return nodes, values, (values * (half * _GL_WEIGHTS)).sum(axis=1)


def _damping_blocks(j: SpinQuantumNumber, nbar: float, orders: list) -> np.ndarray:
    """Unit-rate damping on each coherence order k in orders, as a (d, d)
    block acting on the diagonal x_i = rho_{i+k, i} (or rho_{i, i+k}),
    i < d - k, zero-padded beyond. With p_a = <a-1|J+|a> (p_0 = p_d = 0):

        dx_i/dt = (nbar+1) p_{i+k} p_i x_{i-1} + nbar p_{i+k+1} p_{i+1} x_{i+1}
                  - [(nbar+1)(p_{i+k+1}^2 + p_{i+1}^2) + nbar (p_{i+k}^2 + p_i^2)] x_i / 2.
    """
    d = j.dim
    p = np.concatenate(([0.0], make_spin_operators(j).jp.diagonal(1).real, [0.0]))
    blocks = np.zeros((len(orders), d, d))
    for block, k in zip(blocks, orders):
        i = np.arange(d - k)
        block[i, i] = -0.5 * ((nbar + 1.0) * (p[i + k + 1] ** 2 + p[i + 1] ** 2) + nbar * (p[i + k] ** 2 + p[i] ** 2))
        block[i[1:], i[:-1]] = (nbar + 1.0) * p[i[1:] + k] * p[i[1:]]
        block[i[:-1], i[1:]] = nbar * p[i[:-1] + k + 1] * p[i[1:]]
    return blocks


def _conserve_populations(r: np.ndarray) -> np.ndarray:
    """r, a stack of propagators of the coherence orders (..., orders, d, d)
    whose first order is 0, with the columns of each order-0 block divided
    by their sums. exp(dGamma A_0) conserves the trace exactly, but scaling
    and squaring lets its column sums drift from 1 as dGamma (2 nbar + 1)
    grows: by 1.4e-4 at gamma dt = 1e12 for spin 1/2, by 5e-3 at 2J = 40,
    which the trace-drift bound would refuse. A nan or inf propagator stays
    nan, and raises StiffnessFailure there."""
    pops = r[..., 0, :, :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pops /= pops.sum(axis=-2, keepdims=True)
    return r


def _covariant(rho0: DensityMatrix, h: HamiltonianSpec, d: DissipatorSpec, t_grid: np.ndarray) -> np.ndarray:
    """States on t_grid under a J_z-covariant generator, propagating only
    the coherence orders where rho0 has a nonzero entry."""
    rho = rho0.entries
    dim = rho0.dim
    steps = _steps(t_grid)
    if d.kind == "time_dependent_damping":
        nodes, gamma, dgamma = _step_integrals(d.gamma_t, t_grid)
        if np.any(gamma < 0):
            n = np.argmax(gamma < 0)
            raise NonMarkovianRate(f"gamma_t({nodes.flat[n]}) = {gamma.flat[n]} is negative")
    else:
        dgamma = d.gamma * steps  # zero for dephasing
    dtheta = _step_integrals(h.omega_t, t_grid)[2] if h.kind == "pulse_effective" else h.omega * steps
    orders = [k for k in range(dim) if np.any(rho.diagonal(-k)) or np.any(rho.diagonal(k))]
    ks = np.array(orders)
    # Lower diagonal (k = a - b > 0) in column 0, upper (k < 0) in column 1.
    lower = np.exp(1j * ks * dtheta[:, None] - 0.5 * d.lam * ks**2 * steps[:, None])
    phases = np.stack([lower, lower.conj()], axis=-1)[:, :, None, :]
    x = np.zeros((t_grid.size, len(orders), dim, 2), dtype=complex)
    for idx, k in enumerate(orders):
        x[0, idx, : dim - k] = np.stack([rho.diagonal(-k), rho.diagonal(k)], axis=-1)
    blocks = _damping_blocks(rho0.j, d.nbar, orders)
    for n, r in enumerate(_step_propagators(dgamma, blocks, _conserve_populations)):
        x[n + 1] = (r @ x[n]) * phases[n]
    states = np.zeros((t_grid.size, dim, dim), dtype=complex)
    for idx, k in enumerate(orders):
        i = np.arange(dim - k)
        states[:, i + k, i] = x[:, idx, : dim - k, 0]
        states[:, i, i + k] = x[:, idx, : dim - k, 1]
    return states


def _rotating_frame(rho0: DensityMatrix, h: HamiltonianSpec, d: DissipatorSpec, t_grid: np.ndarray) -> np.ndarray:
    """States on t_grid under the rotating field: the time-independent
    generator of the co-rotating frame, propagated exactly, then rotated
    back to the lab frame."""
    dim = rho0.dim
    ops = make_spin_operators(rho0.j)
    hf = -(h.b0 + h.drive_omega) * ops.jz - h.b1 * ops.jx
    basis = np.eye(dim * dim).reshape(-1, dim, dim)
    generator = np.array([(-1j * (hf @ e - e @ hf) + d.apply(e, 0.0)).ravel() for e in basis]).T
    m = rho0.j.m_values()
    # U rho U^dagger with U = exp(-i w t J_z) multiplies rho_ab by exp(-i w t (m_a - m_b)).
    lab = np.exp(-1j * h.drive_omega * t_grid[:, None, None] * (m[:, None] - m[None, :]))
    x = np.empty((t_grid.size, dim * dim), dtype=complex)
    x[0] = (rho0.entries * lab[0].conj()).ravel()
    for n, r in enumerate(_step_propagators(_steps(t_grid), generator)):
        x[n + 1] = r @ x[n]
    return x.reshape(-1, dim, dim) * lab


def evolve(rho0: DensityMatrix, h: HamiltonianSpec, d: DissipatorSpec, t_grid: np.ndarray) -> Trajectory:
    """The states of the master equation on t_grid, from exact propagators
    (see the module docstring). A time-dependent rate callable takes an
    array of times; a negative damping rate raises NonMarkovianRate, and a
    rotating field with a time-dependent damping rate, whose parts do not
    commute, raises UnsupportedParameters."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing with at least two points")
    # Refuses an unknown kind, and a Hamiltonian defined for another spin.
    lindblad_rhs(rho0.entries, t_grid[0], h, d)
    # A propagator that overflows (nbar ~ 1e20 and beyond needs hundreds of
    # squarings) gives inf/nan states silently: their nan trace drift is
    # refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        if h.kind != "rotating_field":
            raw = _covariant(rho0, h, d, t_grid)
        elif d.kind == "time_dependent_damping":
            raise UnsupportedParameters("a rotating field with a time-dependent damping rate has no exact propagator")
        else:
            raw = _rotating_frame(rho0, h, d, t_grid)
        herm = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        traces = np.trace(herm, axis1=1, axis2=2).real
        drift = np.abs(traces - 1.0)
    beyond = ~(drift <= TRACE_DRIFT_BOUND)  # a nan drift (overflow) is beyond it too
    if np.any(beyond):
        first = drift[np.argmax(beyond)]
        raise StiffnessFailure(f"trace drift {first:.3e} exceeds {TRACE_DRIFT_BOUND}")
    entries = herm / traces[:, None, None]
    check_density_entries(entries)
    entries.setflags(write=False)
    return Trajectory(
        times=t_grid,
        entries=entries,
        max_trace_drift=float(drift.max()),
        max_hermiticity_drift=float(np.max(np.abs(raw - herm))),
    )
