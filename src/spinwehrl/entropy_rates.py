"""Entropy production and flux rate calculators.

Wehrl (phase-space) rates are available through three routes that
cross-validate each other:

* spherical quadrature of the phase-space integrands (any J),
* closed forms for spin 1/2,
* an exact hypergeometric expression for the damping flux (any J),
  with a dedicated T -> 0 limit.

Von Neumann counterparts are provided for comparison, measured against
the bath's Gibbs state whatever the Hamiltonian: closed forms for spin 1/2
and, for any J, von_neumann_rates from D(rho). They diverge for pure
states and for zero-temperature baths, which is signalled with infinities
rather than exceptions; von_neumann_rates floors the eigenvalues, so its
pure-state rates are large but finite.

The closed forms, the exact flux and the von Neumann rates take one state
or a whole trajectory's arrays: a BlochVector or an (n, 3) array of Bloch
vectors, one density matrix or an (n, d, d) stack, populations of shape
(d,) or (n, d). Scalar calls return floats; array calls return arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .dynamics import DissipatorSpec, Trajectory
from .errors import UnsupportedParameters
from .hypergeom import gauss_2f1
from .phase_space import HusimiField
from .spin_ops import BLOCH_LENGTH_MAX, BlochVector, DensityMatrix, SpinQuantumNumber, order_blocks
from .spin_ops import _diagonals_and_orders, _order_diagonals
from . import _kernels

DIVERGENCE_EDGE = 1e-12
# At tau_bar_z up to this (nbar below about 5e-16) damping_phi_exact gives
# its T -> 0 limit, damping_phi_zero_temperature.
EXACT_FLUX_MIN_TBZ = -1.0 + 1e-15
# Above this nbar the exact flux is not cross-checked: its error grows like
# nbar times the machine epsilon (see damping_phi_exact).
EXACT_FLUX_MAX_NBAR = 1e6


@dataclass(frozen=True)
class BathParams:
    """Amplitude-damping bath: rate gamma and mean occupation nbar. gamma
    may be an array, the rate at each time of a trajectory. An nbar whose
    2 nbar + 1 overflows, which would make tau_bar_z -0, is refused."""

    gamma: float
    nbar: float

    def __post_init__(self):
        gamma = self.gamma
        negative = gamma < 0 if isinstance(gamma, (int, float)) else np.any(np.asarray(gamma) < 0)
        if negative or self.nbar < 0:
            raise UnsupportedParameters("gamma and nbar must be non-negative")
        if 2.0 * self.nbar + 1.0 == math.inf:
            raise UnsupportedParameters(f"nbar = {self.nbar:g} overflows 2 nbar + 1")

    @property
    def tau_bar_z(self) -> float:
        """Bath-induced magnetization -1/(2 nbar + 1), in [-1, 0)."""
        return -1.0 / (2.0 * self.nbar + 1.0)


@dataclass(frozen=True)
class EntropyRates:
    """Rate bundle {dS/dt, Pi, Phi} of one method: floats for one state, or
    arrays of one shape over a trajectory. The energy flux Phi_E belongs to
    the run (see ScenarioResult.phi_energy)."""

    ds_dt: float
    pi: float
    phi: float


# ---------------------------------------------------------------------------
# Helpers shared by the closed forms. Their branches are picked by masks;
# a branch is evaluated where it is not taken at a harmless stand-in
# argument, so that no element raises or warns. A BlochVector goes through
# the array code, so scalar and array calls evaluate the same numpy loops.
# ---------------------------------------------------------------------------


def _out(x):
    """A float for a scalar result, a float array otherwise."""
    x = np.array(x, dtype=float)
    return float(x) if x.ndim == 0 else x


def _rates(ds_dt, pi, phi) -> EntropyRates:
    """EntropyRates of floats, or of arrays of one shape if any is an array."""
    return EntropyRates(*map(_out, np.broadcast_arrays(ds_dt, pi, phi)))


def _bloch_parts(b) -> tuple:
    """(tau_z, tau, tau_x^2 + tau_y^2, tau_z^2) of a BlochVector, or of each
    row of an (..., 3) array of Bloch vectors: the one Bloch length of the
    spin-1/2 closed forms and S_wehrl. tau is clamped to 1 up to
    BLOCH_LENGTH_MAX, the bound of BlochVector and check_density_entries;
    a longer vector keeps its length, which coherence_bracket refuses."""
    bloch = b.as_array() if isinstance(b, BlochVector) else np.asarray(b, dtype=float)
    tx, ty, tz = np.moveaxis(bloch, -1, 0)
    perp2, tz2 = tx**2 + ty**2, tz**2
    tau = np.sqrt(perp2 + tz2)
    return tz, np.where(tau <= BLOCH_LENGTH_MAX, np.minimum(tau, 1.0), tau), perp2, tz2


# Taylor coefficients 2 / ((2k + 1)(2k + 3)) of coherence_bracket in tau^2.
# Forty terms are exact to rounding below |tau| = 0.5, where the direct form
# still cancels most of its digits.
_BRACKET_SERIES = 2.0 / ((2.0 * np.arange(40) + 1.0) * (2.0 * np.arange(40) + 3.0))


def coherence_bracket(tau):
    """g(tau) = [tau - (1 - tau^2) atanh(tau)] / tau^3, of a number or
    elementwise of an array.

    Even in tau, finite on [-1, 1]: g(0) = 2/3 by series below |tau| = 0.5,
    g(+-1) = 1.
    """
    x = np.abs(tau)
    if np.any(x > 1.0):
        raise UnsupportedParameters(f"|tau| = {np.max(x)} exceeds 1")
    series = np.polynomial.polynomial.polyval(x * x, _BRACKET_SERIES)
    small, edge = x < 0.5, x == 1.0
    y = np.where(small | edge, 0.5, x)
    direct = (y - (1.0 - y * y) * np.arctanh(y)) / y**3
    return _out(np.where(small, series, np.where(edge, 1.0, direct)))


def atanh_over(x):
    """atanh(x)/x, of a number or elementwise of an array, with the x -> 0
    limit handled by series below |x| = 0.01."""
    ax = np.abs(x)
    if np.any(ax >= 1.0):
        raise UnsupportedParameters(f"|x| = {np.max(ax)} is outside (-1, 1)")
    x2 = x * x
    series = 1.0 + x2 * (1.0 / 3.0 + x2 * (1.0 / 5.0 + x2 * (1.0 / 7.0 + x2 / 9.0)))
    small = ax < 0.01
    y = np.where(small, 0.5, x)
    return _out(np.where(small, series, np.arctanh(y) / y))


# ---------------------------------------------------------------------------
# Dephasing channel.
# ---------------------------------------------------------------------------


def dephasing_pi_quadrature(field: HusimiField, lam: float):
    """Pi = (lambda/2) (2J+1)/(4 pi) * integral of |J_z(Q)|^2 / Q, a float
    for a one-state field, an array for a chunk.

    Non-negative; zero iff Q is independent of phi at every node.
    """
    raw = _kernels.dephasing_reduce(field.coef, field.harmonics, field.grid.theta_weights, field.frame)
    return _out(0.5 * lam * (field.j.dim / (4.0 * np.pi)) * raw)


def dephasing_pi_spin_half(b, lam: float):
    """Closed form Pi = (lambda/4) (tau_x^2 + tau_y^2) g(tau) for spin 1/2."""
    _, tau, perp2, _ = _bloch_parts(b)
    return _out(0.25 * lam * perp2 * coherence_bracket(tau))


def dephasing_pi_von_neumann(b, lam: float):
    """Pi_vN = (lambda/2) (tau_x^2 + tau_y^2) atanh(tau)/tau.

    Diverges for pure states: +inf once tau >= 1 - 1e-12, or 0 there
    without coherence.
    """
    _, tau, perp2, _ = _bloch_parts(b)
    edge = tau >= 1.0 - DIVERGENCE_EDGE
    finite = 0.5 * lam * perp2 * atanh_over(np.where(edge, 0.0, tau))
    return _out(np.where(edge, np.where(perp2 == 0.0, 0.0, math.inf), finite))


# ---------------------------------------------------------------------------
# Amplitude damping: quadrature route.
# ---------------------------------------------------------------------------


def _damping_vectors(grid, two_j: int, nbar: float) -> tuple:
    """The theta vectors of _kernels.damping_reduce on grid: drift,
    phi_weights, damping_weights, coherence_weights and cos_weights."""
    r = 2.0 * nbar + 1.0
    cos_t, sin_t, weights = grid.cos_theta, grid.sin_theta, grid.theta_weights
    den = r - cos_t
    return (
        two_j * sin_t / den,
        -grid.n_phi * weights * sin_t,
        weights * den,
        weights * (r * cos_t - 1.0) * cos_t / (sin_t * sin_t),
        weights * cos_t,
    )


def damping_quadrature(field: HusimiField, bath: BathParams) -> tuple:
    """(Phi, Pi) of the damping channel from one pass over the grid,
    floats for a one-state field, arrays for a chunk; see
    damping_phi_quadrature and damping_pi_quadrature."""
    j = field.j
    vectors = _damping_vectors(field.grid, j.two_j, bath.nbar)
    phi_raw, pi_damp_raw, pi_coh_raw = _kernels.damping_reduce(field.coef, field.harmonics, *vectors, field.frame)
    norm = j.dim / (4.0 * np.pi)
    pref = 0.5 * bath.gamma * norm
    return _out(norm * bath.gamma * j.j * phi_raw), _out(pref * pi_damp_raw + pref * pi_coh_raw)


def damping_phi_quadrature(field: HusimiField, bath: BathParams) -> float:
    """Phi = (2J+1)/(4 pi) gamma J * integral of
    sin(theta) { 2J Q sin(theta) / [(2 nbar + 1) - cos(theta)] - dQ/dtheta }."""
    return damping_quadrature(field, bath)[0]


def damping_pi_quadrature(field: HusimiField, bath: BathParams):
    """Entropy production of the damping channel, the sum of the drift term
    and the azimuthal-coherence term of _kernels.damping_reduce.

    The coherence term carries the same |J_z(Q)|^2 current as the dephasing
    channel, weighted by a temperature- and latitude-dependent factor.
    """
    return damping_quadrature(field, bath)[1]


# ---------------------------------------------------------------------------
# Amplitude damping: exact flux for general J and its limits.
# ---------------------------------------------------------------------------


def damping_phi_exact(populations: np.ndarray, bath: BathParams, j: SpinQuantumNumber):
    """Exact damping entropy flux from the J_z populations (m descending),
    of one state, shape (d,), or of each row of a (..., d) array.

    The flux depends only on the diagonal of the state, linearly: its
    2(2J+1) 2F1 values depend on J and nbar alone and are evaluated once per
    call. At tau_bar_z <= EXACT_FLUX_MIN_TBZ, the T = 0 boundary, it is
    the limit damping_phi_zero_temperature.

    Its terms cancel at O(nbar), so its error grows like nbar times the
    machine epsilon. Against an mpmath evaluation of the same formula, over
    random and pure states and relative to their largest flux, the error
    is below 1e-9 at nbar = 1e6 (EXACT_FLUX_MAX_NBAR), 5e-9 at 1e7, 1e-7
    at 1e8 and 6e-6 at 1e10, for 2J = 1 to 40.
    """
    tbz = bath.tau_bar_z
    pops = np.asarray(populations, dtype=float)
    if pops.ndim == 0 or pops.shape[-1] != j.dim:
        raise UnsupportedParameters(f"expected {j.dim} populations, got shape {pops.shape}")
    # Sums over m run in basis order, term by term, so that a state's flux
    # does not depend on how many states share the call.
    jz = 0.0
    for k, m in enumerate(j.m_values()):
        jz = jz + pops[..., k] * m
    if tbz <= EXACT_FLUX_MIN_TBZ:
        return damping_phi_zero_temperature(jz, bath.gamma, j)
    jj = j.j
    z = 2.0 * tbz / (tbz - 1.0)
    c = 3.0 + 2.0 * jj
    acc = 0.0
    for k, m in enumerate(j.m_values()):
        f1 = gauss_2f1(1.0, 1.0 + jj + m, c, z)
        f2 = gauss_2f1(1.0, 2.0 + jj + m, c, z)
        weight = ((1.0 + jj - m) / tbz) * f1 + ((1.0 + jj + m) * (1.0 + 4.0 * jj + 1.0 / tbz) / (1.0 - tbz)) * f2
        acc = acc + pops[..., k] * weight
    total = (1.0 + tbz) / tbz + 2.0 * (jj + jz) - 0.5 * ((1.0 + tbz) / (1.0 + jj)) * acc
    return _out(bath.gamma * jj * total)


def damping_phi_zero_temperature(jz_expect, gamma, j: SpinQuantumNumber):
    """T -> 0 damping flux Phi = 2 gamma J (J + <J_z>), valid for any J, of
    numbers or elementwise of arrays that broadcast."""
    jj = j.j
    if not np.all(np.abs(jz_expect) <= jj + 1e-9):
        raise UnsupportedParameters(f"<J_z> = {jz_expect} outside [-J, J]")
    return _out(2.0 * gamma * jj * (jj + jz_expect))


# ---------------------------------------------------------------------------
# Spin-1/2 closed forms.
# ---------------------------------------------------------------------------


def spin_half_damping_rates(b, bath: BathParams) -> EntropyRates:
    """Wehrl rates of the damping channel for spin 1/2.

    The flux bracket and the production correction share the coherence
    bracket g; evaluating g at tau_bar_z = -1 reproduces the T -> 0 forms
    Phi = (gamma/2)(1 + tau_z), so the zero-temperature boundary needs no
    separate formula.
    """
    tbz = bath.tau_bar_z
    g = bath.gamma
    tz, tau, _, tz2 = _bloch_parts(b)
    phi = 0.5 * g * coherence_bracket(tbz) * (tz - tbz)
    correction = 0.5 * g * (2.0 * tbz * tz - (tau * tau + tz2)) / (2.0 * tbz) * coherence_bracket(tau)
    pi = phi + correction
    return _rates(pi - phi, pi, phi)


def spin_half_dephasing_rates(b, lam: float) -> EntropyRates:
    """Wehrl rates of the dephasing channel for spin 1/2 (no flux)."""
    pi = dephasing_pi_spin_half(b, lam)
    return _rates(pi, pi, 0.0)


def spin_half_dephasing_von_neumann(b, lam: float) -> EntropyRates:
    """Von Neumann rates of the dephasing channel for spin 1/2 (no flux)."""
    pi = dephasing_pi_von_neumann(b, lam)
    return _rates(pi, pi, 0.0)


def spin_half_damping_von_neumann(b, bath: BathParams) -> EntropyRates:
    """Von Neumann rates of the damping channel for spin 1/2.

    Phi_vN diverges as tau_bar_z -> -1 (zero-temperature bath) and the
    production diverges for pure states; both are reported as infinities
    (0 where their factor vanishes).
    """
    tbz = bath.tau_bar_z
    g = bath.gamma
    tz, tau, _, _ = _bloch_parts(b)
    dev = tz - tbz
    if tbz <= -1.0 + DIVERGENCE_EDGE:
        phi = np.where(dev == 0.0, 0.0, np.copysign(math.inf, dev))
    else:
        phi = g * atanh_over(tbz) * dev
    shape = tau * tau + tz * (tz - 2.0 * tbz)
    edge = tau >= 1.0 - DIVERGENCE_EDGE
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as for floats
        ds = np.where(
            edge,
            np.where(shape == 0.0, 0.0, np.copysign(math.inf, -shape / tbz)),
            -0.5 * g * atanh_over(np.where(edge, 0.0, tau)) * shape / tbz,
        )
        return _rates(ds, phi + ds, phi)


# ---------------------------------------------------------------------------
# Registry of the Wehrl rate methods: where each applies, what it gives.
# ---------------------------------------------------------------------------


def bath_at(d: DissipatorSpec, t) -> BathParams:
    """The bath of a damping dissipator at time t, or at an array of times."""
    gamma = d.gamma_t(t) if d.kind == "time_dependent_damping" else d.gamma
    return BathParams(gamma=gamma, nbar=d.nbar)


def _quadrature_rates(traj, fields: Iterable[HusimiField], d: DissipatorSpec, times: np.ndarray) -> EntropyRates:
    # dephasing_pi_quadrature or damping_quadrature on each chunk, at its times.
    parts, start = [], 0
    for field in fields:
        stop = start + field.coef.shape[2]
        if d.kind == "dephasing":
            parts.append(dephasing_pi_quadrature(field, d.lam))
        else:
            parts.append(damping_quadrature(field, bath_at(d, times[start:stop])))
        start = stop
    if d.kind == "dephasing":
        pi = np.concatenate(parts)
        return _rates(pi, pi, 0.0)
    phi, pi = map(np.concatenate, zip(*parts))
    return _rates(pi - phi, pi, phi)


def _exact_2f1_rates(traj: Trajectory, fields, d: DissipatorSpec, times: np.ndarray) -> EntropyRates:
    phi = damping_phi_exact(traj.populations(), bath_at(d, times), traj.j)
    return _rates(math.nan, math.nan, phi)


def _closed_form_rates(traj: Trajectory, fields, d: DissipatorSpec, times: np.ndarray) -> EntropyRates:
    if d.kind == "dephasing":
        return spin_half_dephasing_rates(traj.bloch, d.lam)
    return spin_half_damping_rates(traj.bloch, bath_at(d, times))


@dataclass(frozen=True)
class RateMethod:
    """One route from a trajectory to its Wehrl rates.

    applies(two_j, dissipator) says where the method is defined and
    trusted; gives names which of "phi" and "pi" it yields (rate_pairs
    drops "phi" for dephasing, which has no flux). rates(trajectory,
    fields, dissipator, times) returns one EntropyRates of arrays over
    times, NaN in a field the method does not compute (exact-2F1's ds_dt
    and pi). fields is an iterable of the states' Husimi fields in time
    order, a chunk of states per HusimiField (see husimi_chunks), which
    the method consumes once, or None if needs_field is False; a method
    that needs fields reads nothing else of the trajectory.
    """

    name: str
    applies: Callable[[int, DissipatorSpec], bool]
    gives: tuple
    needs_field: bool
    rates: Callable[[Trajectory, Optional[Iterable[HusimiField]], DissipatorSpec, np.ndarray], EntropyRates]


# In the order compare reports them.
RATE_METHODS = {
    m.name: m
    for m in (
        RateMethod("quadrature", lambda two_j, d: True, ("phi", "pi"), True, _quadrature_rates),
        RateMethod("exact-2F1", lambda two_j, d: d.kind != "dephasing" and d.nbar <= EXACT_FLUX_MAX_NBAR,
                   ("phi",), False, _exact_2f1_rates),
        RateMethod("closed-form", lambda two_j, d: two_j == 1, ("phi", "pi"), False, _closed_form_rates),
    )
}


def applicable_rate_methods(two_j: int, d: DissipatorSpec) -> list:
    """Every registered method that applies, in registry order."""
    return [m for m in RATE_METHODS.values() if m.applies(two_j, d)]


def primary_rate_method(two_j: int, d: DissipatorSpec) -> RateMethod:
    """The method whose rates a run reports: the closed form where it applies,
    otherwise the quadrature, which applies to every J, channel and nbar."""
    closed = RATE_METHODS["closed-form"]
    return closed if closed.applies(two_j, d) else RATE_METHODS["quadrature"]


def rate_pairs(methods: list, d: DissipatorSpec) -> list:
    """(label, quantity, a, b) for each pair of methods that both give a
    quantity of d: phi first, then pi, each in the order of methods."""
    quantities = ("pi",) if d.kind == "dephasing" else ("phi", "pi")  # dephasing has no flux
    return [
        (f"{q} {a.name} vs {b.name}", q, a, b)
        for q in quantities
        for a, b in itertools.combinations(methods, 2)
        if q in a.gives and q in b.gives
    ]


def max_relative_deviation(a, b) -> float:
    """max |a - b| over the larger of the two series' maximum magnitudes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    if scale < 1e-12:  # both series vanish identically (equilibrium runs)
        return 0.0
    return float(np.max(np.abs(a - b)) / scale)


# ---------------------------------------------------------------------------
# General-J von Neumann rates and entropies.
# ---------------------------------------------------------------------------

EIG_LOG_FLOOR = 1e-15


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho ln rho) with eigenvalues floored at 1e-15."""
    evals = np.linalg.eigvalsh(rho.entries)
    evals = np.clip(evals, EIG_LOG_FLOOR, None)
    return float(-np.sum(evals * np.log(evals)))


def von_neumann_rates(rho, d_rho: np.ndarray, d: DissipatorSpec) -> EntropyRates:
    """General-J von Neumann bundle in Spohn's form, of a DensityMatrix or of
    each matrix of a stack, from the states and their dissipator images
    d_rho = D(rho) alone: the Hamiltonian's part tr([H, rho] ln rho) is
    zero for any H. rho may also be a Trajectory, with d_rho then the
    order diagonals of D of its states (Trajectory.diagonals' layout).

        dS/dt = -tr(D(rho) ln rho),
        Phi   = tr(D(rho) ln rho_bar) = ln(nbar/(nbar+1)) tr(J_z D(rho)),
        Pi    = dS/dt + Phi,

    with rho_bar the Gibbs state of the damping bath d (so Phi = Phi_E/T
    for H = omega J_z), and Phi = 0 for dephasing. At T = 0, Phi is +inf
    where tr(J_z D(rho)) < 0 and 0 where it is 0.

    ln rho is taken on the blocks of the states' coherence orders, which D
    keeps (spin_ops.order_blocks): a J_z-diagonal state's eigenvalues are
    its populations, O(d) per state, and any other state takes one batched
    eigh. Eigenvalues are floored at EIG_LOG_FLOOR, so a pure state's
    dS/dt is large but finite."""
    x, orders = _diagonals_and_orders(rho)
    if not isinstance(rho, Trajectory):
        d_rho = _order_diagonals(d_rho, orders)
    block, d_block = order_blocks(x, orders), order_blocks(d_rho, orders)
    if block.shape[-1] == 1:  # populations
        log_rho = np.log(np.clip(block.real, EIG_LOG_FLOOR, None))
    else:
        evals, vecs = np.linalg.eigh(block)
        log_rho = (vecs * np.log(np.clip(evals, EIG_LOG_FLOOR, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    # The blocks' traces are summed in basis order, term by term, so that a
    # state's rates do not depend on the memory layout of its blocks.
    traces = np.trace(d_block @ log_rho, axis1=-2, axis2=-1)
    trace = traces[..., 0]
    for k in range(1, traces.shape[-1]):
        trace = trace + traces[..., k]
    ds = -np.real(trace)
    if d.kind == "dephasing":
        return _rates(ds, ds, 0.0)
    d_pops = d_block.diagonal(axis1=-2, axis2=-1).real.reshape(d_block.shape[:-3] + (-1,))
    jz_dot = d_pops @ SpinQuantumNumber(d_pops.shape[-1] - 1).m_values()
    log_ratio = -math.log1p(1.0 / d.nbar) if d.nbar > 0.0 else -math.inf
    phi = np.multiply(log_ratio, jz_dot, out=np.zeros(np.shape(jz_dot)), where=jz_dot != 0.0)
    return _rates(ds, ds + phi, phi)
