"""Husimi-Q fields on spin coherent states, spherical quadrature, Wehrl entropy.

The sphere is sampled by a Gauss-Legendre rule in u = cos(theta) tensored
with a uniform (periodic trapezoid) rule in phi. Nodes never touch the
poles, which keeps the cot(theta) and 1/sin^2(theta) factors appearing in
the phase-space currents finite at every node.

The coherent-state amplitude convention is

    <J, m|theta, phi> = sqrt(C(2J, J+m)) cos^(J+m)(theta/2)
                        sin^(J-m)(theta/2) exp(-i m phi),

i.e. the rotation of |J, J> with the third Euler angle fixed to zero.
Angular derivatives of the amplitudes are analytic (no finite differences).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import _kernels
from ._kernels import Q_FLOOR
from .spin_ops import DensityMatrix, SpinQuantumNumber, _diagonals_and_orders

GRID_MIN = 8  # the smallest n_theta and n_phi of a SphereGrid


def _ln_binomials(two_j: int) -> np.ndarray:
    """ln C(2J, k) for k = 0 .. 2J, i.e. ln C(2J, J+m) with k = J - m."""
    # C(n, 0) = 1; C(n, k) = C(n, k-1) * (n - k + 1) / k, accumulated in logs.
    n = two_j
    steps = np.log((n - np.arange(n)) / (1.0 + np.arange(n)))
    return np.concatenate(([0.0], np.cumsum(steps)))


@functools.lru_cache(maxsize=None)
def _legendre(n_theta: int) -> tuple:
    """The Gauss-Legendre nodes u = cos(theta) and weights of n_theta
    points, u descending (theta ascending), read-only: every grid of
    n_theta rows shares them."""
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    u, wu = u[::-1], wu[::-1]
    u.setflags(write=False)
    wu.setflags(write=False)
    return u, wu


@dataclass(frozen=True)
class SphereGrid:
    """Gauss-Legendre x uniform-phi product rule on the unit sphere, of
    n_theta x n_phi nodes. Node arrays are (..., n_theta, n_phi): row i is
    at theta_nodes[i], column k at phi_nodes[k].

    Only the sizes are stored: the nodes, weights and amplitude tables are
    computed on first use, so a grid that is never integrated over costs
    nothing.
    """

    n_theta: int
    n_phi: int

    def __post_init__(self):
        if self.n_theta < GRID_MIN or self.n_phi < GRID_MIN:
            raise ValueError(f"grid needs n_theta >= {GRID_MIN} and n_phi >= {GRID_MIN}")
        object.__setattr__(self, "_tables", {})

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    @functools.cached_property
    def theta_nodes(self) -> np.ndarray:
        """theta of each row, ascending, (n_theta,)."""
        return np.arccos(_legendre(self.n_theta)[0])

    @functools.cached_property
    def phi_nodes(self) -> np.ndarray:
        """phi of each column, (n_phi,)."""
        return 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

    @functools.cached_property
    def cos_theta(self) -> np.ndarray:
        """cos(theta) of each theta node, (n_theta,)."""
        return np.cos(self.theta_nodes)

    @functools.cached_property
    def sin_theta(self) -> np.ndarray:
        """sin(theta) of each theta node, (n_theta,)."""
        return np.sin(self.theta_nodes)

    @functools.cached_property
    def theta_weights(self) -> np.ndarray:
        """The d(Omega) weight of each theta row, (n_theta,): the
        Gauss-Legendre weight times the uniform phi weight."""
        return _legendre(self.n_theta)[1] * (2.0 * np.pi / self.n_phi)

    def integrate(self, values: np.ndarray):
        """Integral over the sphere of node samples, with d(Omega) weights:
        a float for one (n_theta, n_phi) field, an array for a stack
        (k, n_theta, n_phi). Each theta row is summed over phi, then weighted."""
        sums = np.asarray(values).sum(axis=-1) @ self.theta_weights
        return float(sums) if sums.ndim == 0 else sums

    def amplitude_table(self, j: SpinQuantumNumber, orders: int):
        """Cached separable tables (pairs, harmonics) for spin j and the
        orders s = 0 .. orders - 1 (2J + 1 of them for a full state): see
        _amplitude_table. A request for more orders than the cached table
        holds builds a new one; a request for fewer reads a slice."""
        tab = self._tables.get(j.two_j)
        if tab is None or tab[0].shape[1] < orders:
            tab = _amplitude_table(j.two_j, orders, self.theta_nodes, self.phi_nodes)
            self._tables[j.two_j] = tab
        pairs, harmonics = tab
        return pairs[:, :orders], harmonics[: 2 * orders]


def make_grid(n_theta: int = 96, n_phi: int = 192) -> SphereGrid:
    """Gauss-Legendre x uniform-phi product rule; exact for spherical
    polynomials up to combined degree min(2*n_theta - 1, n_phi - 1).
    Raises ValueError for a size below GRID_MIN."""
    return SphereGrid(n_theta, n_phi)


def _magnitudes(two_j: int, theta: np.ndarray) -> tuple:
    """The moduli mag_m(theta) of the amplitudes <J,m|theta,phi> =
    mag_m(theta) e^{-i m phi} and their theta derivatives, each
    (n_theta, 2J+1), m descending."""
    jj = 0.5 * two_j
    ms = jj - np.arange(two_j + 1)
    half = 0.5 * theta
    c2 = np.cos(half)
    s2 = np.sin(half)
    lnb = _ln_binomials(two_j)
    mag = np.exp(0.5 * lnb[None, :] + np.outer(np.log(c2), jj + ms) + np.outer(np.log(s2), jj - ms))
    dfac = 0.5 * ((jj - ms)[None, :] * (c2 / s2)[:, None] - (jj + ms)[None, :] * (s2 / c2)[:, None])
    return mag, mag * dfac


def _amplitude_table(two_j: int, orders: int, theta: np.ndarray, phi: np.ndarray):
    """Separable tables of the Husimi transform (see _kernels), for the
    orders s = 0 .. orders - 1.

    Returns (pairs, harmonics): the (2, orders, d, n_theta) pair table,
    whose pairs[0, s, a] is (w_s / 2) mag_a mag_{a+s} over the theta nodes
    and pairs[1, s, a] its theta derivative, zero where a + s > 2J; and the
    (2 orders, n_phi) harmonics, cos(s phi) in row 2s and sin(s phi) in row
    2s + 1. Each entry is the same whatever the number of orders.
    """
    d = two_j + 1
    mag, dmag = _magnitudes(two_j, theta)
    a = np.arange(d)
    s = np.arange(orders)[:, None]
    b = np.minimum(a + s, d - 1)  # (s, a)
    half_w = np.where(s == 0, 0.5, 1.0) * (a + s < d)
    mag_a, dmag_a = mag[:, None, :], dmag[:, None, :]
    prod = half_w * mag_a * mag[:, b]  # (n_theta, s, a)
    deriv = half_w * (dmag_a * mag[:, b] + mag_a * dmag[:, b])
    pairs = np.ascontiguousarray(np.stack([prod, deriv]).transpose(0, 2, 3, 1))
    sphi = np.outer(s, phi)
    return pairs, np.stack([np.cos(sphi), np.sin(sphi)], axis=1).reshape(2 * orders, -1)


class OwnFrame(NamedTuple):
    """Each state of a column field in its own frame, tilted from z by beta,
    where Q' depends on theta' alone (see _kernels): coef holds its s = 0
    rows, (2, 2, n_theta) or (2, 2, k, n_theta). A J_z-diagonal field is its
    own frame: coef is the field's coef, the same array, with cos_beta 1 and
    sin2_beta 0. A spin-1/2 field with a coherence has z' along each state's
    Bloch vector b: coef holds the s = 0 rows of the populations
    (tr +- |b|)/2, cos_beta = b_z/|b| and sin2_beta = (b_x^2 + b_y^2)/|b|^2,
    1 and 0 where b = 0."""

    coef: np.ndarray
    cos_beta: np.ndarray
    sin2_beta: np.ndarray


def _own_frames(pairs: np.ndarray, x: np.ndarray) -> OwnFrame:
    """The OwnFrame of each matrix of a stack of k spin-1/2 matrices, given
    as their order diagonals (k, 2, 2, 2) on the orders 0 and 1 (see
    husimi_contract): its rows are the transform, on the s = 0 table of
    pairs, of the J_z-diagonal states of the own-frame populations."""
    rho_00, rho_11 = x[:, 0, 0, 1], x[:, 0, 1, 1]
    trace = (rho_00 + rho_11).real
    b_z = (rho_00 - rho_11).real
    perp2 = np.abs(x[:, 1, 0, 0] + x[:, 1, 0, 1].conj()) ** 2
    length = np.sqrt(perp2 + b_z * b_z)
    tilted = length > 0.0
    length_or_1 = np.where(tilted, length, 1.0)
    populations = 0.5 * (trace[:, None] + np.outer(length, [1.0, -1.0]))
    # Their order-0 diagonals, (k, 1, 2, 2): each population in both columns.
    coef = _kernels.husimi_contract(pairs[:, :1], np.repeat(populations[:, None, :, None], 2, axis=-1))
    return OwnFrame(coef, np.where(tilted, b_z / length_or_1, 1.0), perp2 / length_or_1**2)


@dataclass(frozen=True)
class HusimiField:
    """Q(Omega) = <Omega|rho|Omega> with analytic angular derivatives, held
    as the phi-Fourier coefficients of each theta row (see _kernels).

    coef holds the real coefficients of Q and of dQ/dtheta: (2, 2n, n_theta)
    for one state, or (2, 2n, k, n_theta) for a chunk of k states, for the
    orders s = 0 .. n - 1 up to the largest coherence order of the states
    (see husimi_chunks): n = 2J + 1 for a full state, 1 for a J_z-diagonal
    stack. q, dq_dtheta and dq_dphi are the real node arrays (Q is real for
    Hermitian rho, hence so are its angular derivatives), (n_theta, n_phi)
    or (k, n_theta, n_phi), each evaluated on first use; the quadrature
    reads the coefficients and evaluates its own node rows.
    phase_space_currents gives the complex azimuthal current -i dQ/dphi.
    frame is the states' OwnFrame for a column field (a J_z-diagonal stack,
    or a spin-1/2 one), which the quadrature reduces on one theta' column,
    and None for a full-grid field.
    """

    grid: SphereGrid
    j: SpinQuantumNumber
    coef: np.ndarray
    frame: Optional[OwnFrame] = None

    @property
    def harmonics(self) -> np.ndarray:
        """The (2n, n_phi) harmonics of the orders the field holds."""
        return self.grid.amplitude_table(self.j, self.coef.shape[1] // 2)[1]

    def _nodes(self, rows: np.ndarray) -> np.ndarray:
        return _kernels.node_rows(rows[None], self.harmonics)[0]

    @functools.cached_property
    def q(self) -> np.ndarray:
        return self._nodes(self.coef[0])

    @functools.cached_property
    def dq_dtheta(self) -> np.ndarray:
        return self._nodes(self.coef[1])

    @functools.cached_property
    def dq_dphi(self) -> np.ndarray:
        return self._nodes(_kernels.phi_derivative(self.coef[0], np.empty_like(self.coef[0])))

    def normalization(self):
        """(2J+1)/(4 pi) * integral of Q, of each state; equals 1 for a
        unit-trace state."""
        return (self.j.dim / (4.0 * np.pi)) * self.grid.integrate(self.q)


# Grid nodes per chunk of a full-grid stack (two states on the default
# grid). A chunk is one call of the transform and one of a reduction, which
# evaluates up to three node rows per state. Of one, two and four states per
# chunk on 96 x 192, two ran the six bundled compares fastest. A column
# stack's reductions evaluate no node rows (see husimi_chunks), so its chunks
# are sized by the numbers they hold instead, at most twice this many: the
# (2, 2n, k, n_theta) coefficients and the (2, 2, k, n_theta) frame rows,
# which a J_z-diagonal field shares with its coefficients. That is 192
# states on 96 x 192 for a J_z-diagonal stack whatever 2J, and 64 for a
# spin-1/2 stack with a coherence. Of 16, 64 and 192 spin-1/2 states per
# chunk, 64 ran the two rotating-field compares fastest; a node array read
# from such a chunk (q, wehrl_entropy) takes 9.4 MB.
_CHUNK_NODES = 2 * 96 * 192


def husimi_chunks(states, grid: SphereGrid) -> Iterator[HusimiField]:
    """The Husimi fields of an (n, d, d) stack of density-matrix entries, or
    of a Trajectory's states, in order, a chunk of states per HusimiField.
    The transform reads each chunk's slice of the order diagonals of the
    states on their coherence orders (spin_ops._diagonals_and_orders: a
    Trajectory's own, without a copy), with zeros for the orders below the
    largest one that they lack.

    Each chunk is one call of the transform, so the fields' memory stays
    bounded however many states there are. The transform takes the pair
    table of the orders s = 0 .. max(orders) alone, so the fields hold
    only those coefficient rows. The layout is decided here, once per
    stack, from orders and 2J, and is one of two. A column stack,
    J_z-diagonal (orders (0,)) or spin-1/2, gets each chunk's OwnFrame and
    is reduced on one theta' column of its states' own frames: a
    J_z-diagonal field is its own frame, with beta = 0, and its frame rows
    are its two coefficient rows themselves. Its chunks hold at most 2
    _CHUNK_NODES numbers. Any other stack is a full-grid stack, evaluated
    on every phi column, at _CHUNK_NODES // n_nodes states per chunk.
    Every chunk holds at least one state.
    """
    diagonals, orders = _diagonals_and_orders(states)
    j = SpinQuantumNumber(diagonals.shape[-2] - 1)
    n_orders = max(orders, default=0) + 1
    column = n_orders == 1 or j.dim == 2
    # Half the numbers a column chunk holds per state (see _CHUNK_NODES).
    nodes = (2 if n_orders == 1 else 6) * grid.n_theta if column else grid.n_nodes
    per_chunk = max(1, _CHUNK_NODES // nodes)
    pairs, _ = grid.amplitude_table(j, n_orders)
    for start in range(0, len(diagonals), per_chunk):
        x = diagonals[start : start + per_chunk]
        if len(orders) < n_orders:
            part, x = x, np.zeros((len(x), n_orders, j.dim, 2), dtype=complex)
            x[:, list(orders)] = part
        coef = _kernels.husimi_contract(pairs, x)
        if n_orders == 1:
            frame = OwnFrame(coef, np.ones(len(x)), np.zeros(len(x)))
        else:
            frame = _own_frames(pairs, x) if column else None
        yield HusimiField(grid, j, coef, frame)


def husimi(rho: DensityMatrix, grid: SphereGrid) -> HusimiField:
    """The one-state Husimi field of rho: husimi_chunks' one chunk of rho,
    without its state axis."""
    (chunk,) = husimi_chunks(rho.entries[None], grid)
    frame = chunk.frame
    if frame is not None:
        frame = OwnFrame(frame.coef[:, :, 0], frame.cos_beta[0], frame.sin2_beta[0])
    return HusimiField(grid, rho.j, chunk.coef[:, :, 0], frame)


def wehrl_entropy(field: HusimiField):
    """S = -(2J+1)/(4 pi) * integral of Q ln Q (nats); x ln x -> 0 at Q = 0.
    A float for a one-state field, an array for a chunk. It reads the lab
    Q: the row of a field of s = 0 rows alone, the same on every phi
    column, and else Q on every column."""
    grid = field.grid
    one_column = field.coef.shape[1] == 2
    q = field.coef[0, 0, ..., None] if one_column else _kernels.node_rows(field.coef[:1], field.harmonics)[0]
    integrand = np.maximum(q, Q_FLOOR)
    np.log(integrand, out=integrand)
    integrand *= q
    integrand[~(q > 0.0)] = 0.0
    if one_column:
        integrand *= grid.n_phi
    return -(field.j.dim / (4.0 * np.pi)) * grid.integrate(integrand)


def wehrl_entropy_spin_half(tau):
    """Exact Wehrl entropy of a spin-1/2 state with Bloch length tau, a
    number or elementwise an array:

    S = -(1/tau) [u^2 ln u - u^2/2] from u = (1 - tau)/2 to (1 + tau)/2,

    by its series ln 2 - tau^2/6 - tau^4/60 below tau = 1e-3; tau is
    clamped to 1. Scalar and array calls evaluate the same numpy loops.
    """
    tau = np.minimum(np.abs(tau), 1.0)
    series = math.log(2.0) - tau * tau / 6.0 - tau**4 / 60.0

    def f(u):
        # u^2 ln u - u^2/2 at u > 0, and its limit 0 at u = 0.
        pos = u > 0.0
        v = np.where(pos, u, 1.0)
        return np.where(pos, v * v * np.log(v) - 0.5 * v * v, 0.0)

    small = tau < 1e-3
    t = np.where(small, 0.5, tau)
    s = np.where(small, series, -(f(0.5 * (1.0 + t)) - f(0.5 * (1.0 - t))) / t)
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class PhaseSpaceCurrents:
    """Orbital angular-momentum currents of a Husimi field."""

    j_plus: np.ndarray
    j_minus: np.ndarray
    j_z: np.ndarray


def phase_space_currents(field: HusimiField) -> PhaseSpaceCurrents:
    """J_z(Q) = -i dQ/dphi and the raising/lowering currents

    J_+(Q) = e^{i phi} (d_theta + i cot(theta) d_phi) Q,
    J_-(Q) = -e^{-i phi} (d_theta - i cot(theta) d_phi) Q,

    evaluated at the (interior) grid nodes, in the field's node layout.
    """
    grid = field.grid
    ph = grid.phi_nodes
    cot = (grid.cos_theta / grid.sin_theta)[:, None]
    j_z = -1j * field.dq_dphi
    j_plus = np.exp(1j * ph) * (field.dq_dtheta + 1j * cot * field.dq_dphi)
    j_minus = -np.exp(-1j * ph) * (field.dq_dtheta - 1j * cot * field.dq_dphi)
    return PhaseSpaceCurrents(j_plus=j_plus, j_minus=j_minus, j_z=j_z)
