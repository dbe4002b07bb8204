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

from .errors import DimensionMismatch, InvalidFrequency, NonPhysicalState

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# The longest Bloch vector of a spin-1/2 state that check_density_entries
# admits: its eigenvalue (1 - tau)/2 goes down to EIGENVALUE_FLOOR.
BLOCH_LENGTH_MAX = 1.0 - 2.0 * EIGENVALUE_FLOOR


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


def coherence_orders(rho) -> tuple:
    """The coherence orders of rho, one (d, d) matrix or a (..., d, d) stack:
    each k >= 0 for which some matrix has a nonzero entry on its k-th
    diagonal below or above the main one, ascending. A J_z-covariant
    generator keeps the orders of its initial state (see dynamics)."""
    rho = np.asarray(rho)
    a, b = np.nonzero(np.any(rho != 0, axis=tuple(range(rho.ndim - 2))))
    return tuple(np.flatnonzero(np.bincount(np.abs(a - b))).tolist())


def _diagonals_and_orders(states) -> tuple:
    """(order diagonals, coherence orders) of a Trajectory, its own, or of a
    DensityMatrix or (..., d, d) entries, on coherence_orders of them."""
    if hasattr(states, "diagonals"):
        return states.diagonals, states.orders
    entries = getattr(states, "entries", states)
    orders = coherence_orders(entries)
    return _order_diagonals(entries, orders), orders


def _order_diagonals(entries: np.ndarray, orders) -> np.ndarray:
    """The diagonals of each order k in orders of one (d, d) matrix or a
    stack, (..., len(orders), d, 2): [..., idx, i, 0] = rho_{i+k, i} and
    [..., idx, i, 1] = rho_{i, i+k}, zero beyond d - k: the package's one
    gather of them. It is a view with the last two axes swapped, so that
    each diagonal is copied into contiguous memory."""
    rho = np.asarray(entries, dtype=complex)
    d = rho.shape[-1]
    x = np.zeros(rho.shape[:-2] + (len(orders), 2, d), dtype=complex)
    for idx, k in enumerate(orders):
        x[..., idx, 0, : d - k] = rho.diagonal(-k, -2, -1)
        x[..., idx, 1, : d - k] = rho.diagonal(k, -2, -1)
    return x.swapaxes(-1, -2)


@lru_cache(maxsize=None)
def order_layout(d: int, orders: tuple) -> tuple:
    """The package's one map of the order layout: for each entry (a, b) of a
    (d, d) matrix on the diagonals of orders, in row-major order, its
    position a d + b and its slot in the flat (len(orders), d, 2) layout of
    _order_diagonals (order |a - b| at min(a, b), column a <= b)."""
    a, b = np.divmod(np.arange(d * d), d)
    index = np.full(d, -1)
    index[list(orders)] = np.arange(len(orders))
    on = np.flatnonzero(index[np.abs(a - b)] >= 0)
    a, b = a[on], b[on]
    slot = (index[np.abs(a - b)] * d + np.minimum(a, b)) * 2 + (a <= b)
    return _freeze(on), _freeze(slot)


def _from_order_diagonals(x: np.ndarray, orders) -> np.ndarray:
    """The (..., d, d) matrices whose order diagonals are x (see
    _order_diagonals), zero off them: its one scatter, through
    order_layout."""
    d = x.shape[-2]
    position, slot = order_layout(d, tuple(orders))
    states = np.zeros(x.shape[:-3] + (d * d,), dtype=complex)
    states[..., position] = x.reshape(x.shape[:-3] + (-1,))[..., slot]
    return states.reshape(x.shape[:-3] + (d, d))


def order_blocks(x: np.ndarray, orders) -> np.ndarray:
    """The diagonal blocks of the matrices whose order diagonals on orders
    are x: for orders (0,) the populations as (..., d, 1, 1), a view of x,
    and otherwise the matrices whole as (..., 1, d, d). Every state the
    package makes has orders (0,) or orders holding 1, which join every
    index in one block."""
    if tuple(orders) == (0,):
        return x[..., 0, :, 1, None, None]
    return _from_order_diagonals(x, orders)[..., None, :, :]


def check_density_entries(rho) -> None:
    """Raise NonPhysicalState unless rho, one (d, d) matrix or a (..., d, d)
    stack of them, is Hermitian, of unit trace and positive semidefinite up
    to HERMITICITY_TOL, TRACE_TOL and EIGENVALUE_FLOOR, with finite entries.
    For a stack the message names the worst matrix's defect.

    rho is checked on the blocks of its coherence orders (order_blocks): a
    J_z-diagonal matrix's eigenvalues are its populations, O(d) per
    matrix, and any other matrix is checked whole."""
    _check_blocks(order_blocks(*_diagonals_and_orders(rho)))


def _check_blocks(part: np.ndarray) -> None:
    """check_density_entries on the blocks of the matrices, (..., blocks,
    b, b) (see order_blocks)."""
    if not np.all(np.isfinite(part)):
        raise NonPhysicalState("matrix has non-finite entries")
    adj = part.conj().swapaxes(-1, -2)
    herm = float(np.max(np.abs(part - adj)))
    if herm > HERMITICITY_TOL:
        raise NonPhysicalState(f"matrix is not Hermitian (defect {herm:.3e})")
    tr = np.trace(part, axis1=-2, axis2=-1).sum(axis=-1)
    drift = np.abs(tr - 1.0)
    if np.any(drift > TRACE_TOL):
        raise NonPhysicalState(f"trace is {np.ravel(tr)[np.argmax(drift)]}, expected 1")
    lo = float(np.min(np.linalg.eigvalsh(0.5 * (part + adj)) if part.shape[-1] > 1 else part.real))
    if lo < EIGENVALUE_FLOOR:
        raise NonPhysicalState(f"matrix has negative eigenvalue {lo:.3e}")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated (2J+1)x(2J+1) density matrix.

    Construction enforces Hermiticity, unit trace and positive
    semidefiniteness up to the tolerances of check_density_entries;
    round-off of the propagation within those bands is accepted.
    """

    j: SpinQuantumNumber
    entries: np.ndarray

    def __post_init__(self):
        rho = np.array(self.entries, dtype=complex)
        d = self.j.dim
        if rho.shape != (d, d):
            raise DimensionMismatch(f"expected {(d, d)} matrix, got {rho.shape}")
        check_density_entries(rho)
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
        # Components are bounded first: squaring a huge one would overflow.
        parts = (self.tau_x, self.tau_y, self.tau_z)
        if not all(abs(c) <= BLOCH_LENGTH_MAX for c in parts) or self.tau > BLOCH_LENGTH_MAX:
            raise NonPhysicalState(f"Bloch vector length {math.hypot(*parts)} exceeds 1")

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
    rho = 0.5 * (np.eye(2, dtype=complex) + b.tau_x * PAULI_X + b.tau_y * PAULI_Y + b.tau_z * PAULI_Z)
    return DensityMatrix(SpinQuantumNumber(1), rho)


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
        # Log-weights relative to the lowest energy are <= 0: where
        # -omega m / T overflows they reach -inf and their weights 0.
        with np.errstate(over="ignore"):
            logw = -(energies - energies.min()) / temperature
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
    if x < 1e-300:  # 1/x would overflow
        raise NonPhysicalState(f"T/omega = {temperature / omega:g} exceeds 1e300")
    # Beyond x = 700 the -1 is below double precision, and expm1 overflows.
    return 1.0 / math.expm1(x) if x < 700.0 else math.exp(-x)
