"""Spin-J algebra, density matrices, Bloch vectors, and thermal states.

Conventions used throughout the package: hbar = k_B = 1, and the J_z
eigenbasis is ordered with m descending from +J to -J, so |J, J> is the
first basis vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidFrequency,
    NonPhysicalState,
    WrongDimension,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class SpinQuantumNumber:
    """Total spin J stored as two_j = 2J, so half-integer spins stay exact."""

    two_j: int

    def __post_init__(self):
        if int(self.two_j) != self.two_j or self.two_j < 1:
            raise NonPhysicalState(f"two_j must be a positive integer, got {self.two_j!r}")
        object.__setattr__(self, "two_j", int(self.two_j))

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order (descending from +J)."""
        return self.j - np.arange(self.dim)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Validated (2J+1)x(2J+1) density matrix.

    Construction enforces Hermiticity, unit trace and positive
    semidefiniteness up to the tolerances below; integrator round-off within
    those bands is accepted.
    """

    j: SpinQuantumNumber
    entries: np.ndarray

    def __post_init__(self):
        rho = np.array(self.entries, dtype=complex)
        d = self.j.dim
        if rho.shape != (d, d):
            raise DimensionMismatch(f"expected {(d, d)} matrix, got {rho.shape}")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > HERMITICITY_TOL:
            raise NonPhysicalState(f"matrix is not Hermitian (defect {herm:.3e})")
        tr = np.trace(rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise NonPhysicalState(f"trace is {tr}, expected 1")
        lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
        if lo < EIGENVALUE_FLOOR:
            raise NonPhysicalState(f"matrix has negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "entries", _freeze(rho))

    @property
    def dim(self) -> int:
        return self.j.dim

    def populations(self) -> np.ndarray:
        """Diagonal in the J_z basis (m descending)."""
        return self.entries.diagonal().real.copy()


@dataclass(frozen=True)
class BlochVector:
    """Spin-1/2 state parametrization rho = (1 + tau.sigma)/2."""

    tau_x: float
    tau_y: float
    tau_z: float

    def __post_init__(self):
        if self.tau > 1.0 + 1e-12:
            raise NonPhysicalState(f"Bloch vector length {self.tau} exceeds 1")

    @property
    def tau(self) -> float:
        return math.sqrt(self.tau_x**2 + self.tau_y**2 + self.tau_z**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.tau_x, self.tau_y, self.tau_z])


@dataclass(frozen=True)
class SpinOperators:
    """Angular-momentum matrices in the descending-m basis (units of hbar)."""

    j: SpinQuantumNumber
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jp: np.ndarray
    jm: np.ndarray


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@lru_cache(maxsize=None)
def _spin_operators_cached(two_j: int) -> SpinOperators:
    j = SpinQuantumNumber(two_j)
    ms = j.m_values()
    d = j.dim
    jz = np.diag(ms.astype(complex))
    jp = np.zeros((d, d), dtype=complex)
    # J+|J,m> = sqrt(J(J+1) - m(m+1)) |J,m+1>; |J,m+1> sits one row above.
    for k in range(1, d):
        m = ms[k]
        jp[k - 1, k] = math.sqrt(j.j * (j.j + 1) - m * (m + 1))
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    return SpinOperators(j, _freeze(jx), _freeze(jy), _freeze(jz), _freeze(jp), _freeze(jm))


def make_spin_operators(j: SpinQuantumNumber) -> SpinOperators:
    """Build J_x, J_y, J_z, J_+, J_- for the given spin."""
    return _spin_operators_cached(j.two_j)


def bloch_to_rho(b: BlochVector) -> DensityMatrix:
    """rho = (1 + tau.sigma)/2 for a spin-1/2 state."""
    if b.tau > 1.0 + 1e-12:
        raise NonPhysicalState(f"Bloch vector length {b.tau} exceeds 1")
    rho = 0.5 * (np.eye(2, dtype=complex) + b.tau_x * PAULI_X + b.tau_y * PAULI_Y + b.tau_z * PAULI_Z)
    return DensityMatrix(SpinQuantumNumber(1), rho)


def rho_to_bloch(rho: DensityMatrix) -> BlochVector:
    """tau_i = tr(rho sigma_i); defined for spin 1/2 only."""
    if rho.j.two_j != 1:
        raise WrongDimension(f"Bloch representation needs two_j=1, got {rho.j.two_j}")
    r = rho.entries
    return BlochVector(
        float(np.trace(r @ PAULI_X).real),
        float(np.trace(r @ PAULI_Y).real),
        float(np.trace(r @ PAULI_Z).real),
    )


def gibbs_state(j: SpinQuantumNumber, omega: float, temperature: float) -> DensityMatrix:
    """Thermal state exp(-H/T)/Z of H = omega*J_z.

    At T = 0 the state is the ground projector of omega*J_z, i.e. |J,-J>
    for omega > 0. Off-diagonal entries are exactly zero by construction.
    """
    if temperature < 0:
        raise NonPhysicalState("temperature must be non-negative")
    ms = j.m_values()
    energies = omega * ms
    if temperature == 0.0:
        pops = np.zeros(j.dim)
        pops[np.argmin(energies)] = 1.0
    elif math.isinf(temperature):
        pops = np.full(j.dim, 1.0 / j.dim)
    else:
        logw = -energies / temperature
        logw -= logw.max()
        pops = np.exp(logw)
        pops /= pops.sum()
    return DensityMatrix(j, np.diag(pops.astype(complex)))


def nbar_from_temperature(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(omega/T) - 1) at the splitting omega."""
    if omega <= 0:
        raise InvalidFrequency("omega must be positive")
    if temperature < 0:
        raise NonPhysicalState("temperature must be non-negative")
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    # Beyond x = 700 the -1 is below double precision, and expm1 overflows.
    return 1.0 / math.expm1(x) if x < 700.0 else math.exp(-x)


def temperature_from_nbar(omega: float, nbar: float) -> float:
    """Inverse of nbar_from_temperature."""
    if omega <= 0:
        raise InvalidFrequency("omega must be positive")
    if nbar < 0:
        raise NonPhysicalState("nbar must be non-negative")
    if nbar == 0.0:
        return 0.0
    return omega / math.log1p(1.0 / nbar)


def expectation(rho: DensityMatrix, op: np.ndarray) -> complex:
    """tr(rho . op)."""
    op = np.asarray(op)
    if op.shape != rho.entries.shape:
        raise DimensionMismatch(f"operator shape {op.shape} does not match state {rho.entries.shape}")
    return complex(np.trace(rho.entries @ op))
