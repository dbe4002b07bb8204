"""Entropy production and flux rate calculators.

Wehrl (phase-space) rates are available through three routes that
cross-validate each other:

* spherical quadrature of the phase-space integrands (any J),
* closed forms for spin 1/2,
* an exact hypergeometric expression for the damping flux (any J),
  with a dedicated T -> 0 limit and a large-J/small-coupling
  asymptotic form.

Von Neumann counterparts are provided for comparison; they diverge for
pure states and for zero-temperature baths, which is signalled with
infinities rather than exceptions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynamics import DissipatorSpec, Trajectory
from .errors import TailNotConverged, UndefinedRatio, UnsupportedParameters
from .hypergeom import gauss_2f1
from .phase_space import HusimiField, Q_FLOOR, husimi_of_matrix
from .spin_ops import (
    BlochVector,
    DensityMatrix,
    SpinQuantumNumber,
    rho_to_bloch,
    temperature_from_nbar,
)
from . import _kernels

DIVERGENCE_EDGE = 1e-12
# damping_phi_exact needs tau_bar_z above this: nbar above about 5e-16.
EXACT_FLUX_MIN_TBZ = -1.0 + 1e-15

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class BathParams:
    """Amplitude-damping bath: rate gamma and mean occupation nbar."""

    gamma: float
    nbar: float

    def __post_init__(self):
        if self.gamma < 0 or self.nbar < 0:
            raise UnsupportedParameters("gamma and nbar must be non-negative")

    @property
    def tau_bar_z(self) -> float:
        """Bath-induced magnetization -1/(2 nbar + 1), in [-1, 0)."""
        return -1.0 / (2.0 * self.nbar + 1.0)


@dataclass(frozen=True)
class EntropyRates:
    """Rate bundle {dS/dt, Pi, Phi, Phi_E} with the method that produced it."""

    ds_dt: float
    pi: float
    phi: float
    phi_energy: float
    method: str


class DampingPiTerms(NamedTuple):
    """Damping entropy production split into its two integrand terms."""

    total: float
    damping_part: float
    coherence_part: float


# ---------------------------------------------------------------------------
# Scalar helpers shared by the closed forms.
# ---------------------------------------------------------------------------


def coherence_bracket(tau: float) -> float:
    """g(tau) = [tau - (1 - tau^2) atanh(tau)] / tau^3.

    Even in tau, finite on [-1, 1]: g(0) = 2/3 by series, g(+-1) = 1.
    """
    x = abs(tau)
    if x > 1.0:
        raise UnsupportedParameters(f"|tau| = {x} exceeds 1")
    if x == 1.0:
        return 1.0
    if x < 0.01:
        x2 = x * x
        return 2.0 / 3.0 + x2 * (2.0 / 15.0 + x2 * (2.0 / 35.0 + x2 * (2.0 / 63.0 + x2 * 2.0 / 99.0)))
    return (x - (1.0 - x * x) * math.atanh(x)) / x**3


def atanh_over(x: float) -> float:
    """atanh(x)/x, with the x -> 0 limit handled by series."""
    ax = abs(x)
    if ax >= 1.0:
        raise UnsupportedParameters(f"|x| = {ax} is outside (-1, 1)")
    if ax < 0.01:
        x2 = x * x
        return 1.0 + x2 * (1.0 / 3.0 + x2 * (1.0 / 5.0 + x2 * (1.0 / 7.0 + x2 / 9.0)))
    return math.atanh(x) / x


# ---------------------------------------------------------------------------
# Dephasing channel.
# ---------------------------------------------------------------------------


def dephasing_pi_quadrature(field: HusimiField, lam: float) -> float:
    """Pi = (lambda/2) (2J+1)/(4 pi) * integral of |J_z(Q)|^2 / Q.

    Non-negative; zero iff Q is independent of phi at every node.
    """
    raw = _kernels.dephasing_reduce(field.q, field.dq_dphi, field.grid.weights, Q_FLOOR)
    return 0.5 * lam * (field.j.dim / (4.0 * np.pi)) * raw


def dephasing_pi_spin_half(b: BlochVector, lam: float) -> float:
    """Closed form Pi = (lambda/4) (tau_x^2 + tau_y^2) g(tau) for spin 1/2."""
    perp2 = b.tau_x**2 + b.tau_y**2
    return 0.25 * lam * perp2 * coherence_bracket(b.tau)


def dephasing_pi_von_neumann(b: BlochVector, lam: float) -> float:
    """Pi_vN = (lambda/2) (tau_x^2 + tau_y^2) atanh(tau)/tau.

    Diverges for pure states; returns +inf once tau >= 1 - 1e-12.
    """
    perp2 = b.tau_x**2 + b.tau_y**2
    if b.tau >= 1.0 - DIVERGENCE_EDGE:
        return 0.0 if perp2 == 0.0 else math.inf
    return 0.5 * lam * perp2 * atanh_over(b.tau)


# ---------------------------------------------------------------------------
# Amplitude damping: quadrature route.
# ---------------------------------------------------------------------------


def damping_quadrature(field: HusimiField, bath: BathParams) -> tuple:
    """(Phi, Pi terms) of the damping channel from one pass over the grid;
    see damping_phi_quadrature and damping_pi_quadrature."""
    grid = field.grid
    phi_raw, pi_damp_raw, pi_coh_raw = _kernels.damping_reduce(
        field.q, field.dq_dtheta, field.dq_dphi, grid.cos_theta, grid.sin_theta, grid.weights,
        field.j.two_j, bath.nbar, Q_FLOOR,
    )
    norm = field.j.dim / (4.0 * np.pi)
    phi = norm * bath.gamma * field.j.j * phi_raw
    pref = 0.5 * bath.gamma * norm
    damping_part = pref * pi_damp_raw
    coherence_part = pref * pi_coh_raw
    return phi, DampingPiTerms(damping_part + coherence_part, damping_part, coherence_part)


def damping_phi_quadrature(field: HusimiField, bath: BathParams) -> float:
    """Phi = (2J+1)/(4 pi) gamma J * integral of
    sin(theta) { 2J Q sin(theta) / [(2 nbar + 1) - cos(theta)] - dQ/dtheta }."""
    return damping_quadrature(field, bath)[0]


def damping_pi_quadrature(field: HusimiField, bath: BathParams) -> DampingPiTerms:
    """Entropy production of the damping channel, split into the drift term
    and the azimuthal-coherence term of the integrand.

    The coherence term carries the same |J_z(Q)|^2 current as the dephasing
    channel, weighted by a temperature- and latitude-dependent factor.
    """
    return damping_quadrature(field, bath)[1]


# ---------------------------------------------------------------------------
# Amplitude damping: exact flux for general J and its limits.
# ---------------------------------------------------------------------------


def damping_phi_exact(populations: np.ndarray, bath: BathParams, j: SpinQuantumNumber) -> float:
    """Exact damping entropy flux from the J_z populations (m descending).

    The flux depends only on the diagonal of the state. Valid for
    tau_bar_z in (-1, 0); the T = 0 boundary must use
    damping_phi_zero_temperature instead.
    """
    tbz = bath.tau_bar_z
    if tbz <= EXACT_FLUX_MIN_TBZ:
        raise UnsupportedParameters("tau_bar_z = -1: use damping_phi_zero_temperature")
    pops = np.asarray(populations, dtype=float)
    if pops.shape != (j.dim,):
        raise UnsupportedParameters(f"expected {j.dim} populations, got shape {pops.shape}")
    jj = j.j
    ms = j.m_values()
    jz = float(np.dot(pops, ms))
    z = 2.0 * tbz / (tbz - 1.0)
    c = 3.0 + 2.0 * jj
    acc = 0.0
    for p, m in zip(pops, ms):
        f1 = gauss_2f1(1.0, 1.0 + jj + m, c, z)
        f2 = gauss_2f1(1.0, 2.0 + jj + m, c, z)
        acc += p * (
            ((1.0 + jj - m) / tbz) * f1
            + ((1.0 + jj + m) * (1.0 + 4.0 * jj + 1.0 / tbz) / (1.0 - tbz)) * f2
        )
    total = (1.0 + tbz) / tbz + 2.0 * (jj + jz) - 0.5 * ((1.0 + tbz) / (1.0 + jj)) * acc
    return bath.gamma * jj * total


def damping_phi_zero_temperature(jz_expect: float, gamma: float, j: SpinQuantumNumber) -> float:
    """T -> 0 damping flux Phi = 2 gamma J (J + <J_z>), valid for any J."""
    jj = j.j
    if not -jj - 1e-9 <= jz_expect <= jj + 1e-9:
        raise UnsupportedParameters(f"<J_z> = {jz_expect} outside [-J, J]")
    return 2.0 * gamma * jj * (jj + jz_expect)


def damping_phi_asymptotic(populations: np.ndarray, bath: BathParams, j: SpinQuantumNumber) -> float:
    """Large-J / small-|tau_bar_z| approximation of the exact damping flux.

    Exact in the limits J -> infinity and/or tau_bar_z -> 0; the relative
    deviation from damping_phi_exact shrinks with |tau_bar_z| at fixed state.
    """
    tbz = bath.tau_bar_z
    pops = np.asarray(populations, dtype=float)
    if pops.shape != (j.dim,):
        raise UnsupportedParameters(f"expected {j.dim} populations, got shape {pops.shape}")
    jj = j.j
    ms = j.m_values()
    jz = float(np.dot(pops, ms))
    c = 3.0 + 2.0 * jj
    avg = 0.0
    for p, m in zip(pops, ms):
        avg += p * (
            (1.0 + jj + m) * (1.0 + (1.0 + 4.0 * jj) * tbz) / (c + (2.0 * m + 1.0) * tbz)
            - (1.0 + jj - m) * (tbz - 1.0) / (c + (2.0 * m - 1.0) * tbz)
        )
    bracket = 1.0 - (c / (2.0 * (1.0 + jj))) * avg
    return 2.0 * bath.gamma * jj * (jj + jz + ((1.0 + tbz) / (2.0 * tbz)) * bracket)


def energy_flux(rho: DensityMatrix, bath: BathParams, omega: float) -> float:
    """Phi_E = (gamma omega / tau_bar_z) [tau_bar_z (J(J+1) - <J_z^2>) - <J_z>].

    Equals -tr(H D(rho)) for H = omega J_z.
    """
    tbz = bath.tau_bar_z
    jj = rho.j.j
    ms = rho.j.m_values()
    pops = rho.populations()
    jz = float(np.dot(pops, ms))
    jz2 = float(np.dot(pops, ms * ms))
    return (bath.gamma * omega / tbz) * (tbz * (jj * (jj + 1.0) - jz2) - jz)


# ---------------------------------------------------------------------------
# Spin-1/2 closed forms.
# ---------------------------------------------------------------------------


def spin_half_damping_rates(b: BlochVector, bath: BathParams, omega: float) -> EntropyRates:
    """Wehrl rates of the damping channel for spin 1/2.

    The flux bracket and the production correction share the coherence
    bracket g; evaluating g at tau_bar_z = -1 reproduces the T -> 0 forms
    Phi = (gamma/2)(1 + tau_z), so the zero-temperature boundary needs no
    separate formula (only a method tag).
    """
    tbz = bath.tau_bar_z
    g = bath.gamma
    tau = b.tau
    phi = 0.5 * g * coherence_bracket(tbz) * (b.tau_z - tbz)
    correction = (
        0.5 * g
        * (2.0 * tbz * b.tau_z - (tau * tau + b.tau_z**2))
        / (2.0 * tbz)
        * coherence_bracket(tau)
    )
    pi = phi + correction
    phi_e = (g * omega / (2.0 * tbz)) * (tbz - b.tau_z)
    method = "zero_T" if tbz == -1.0 else "closed_form_spin_half"
    return EntropyRates(ds_dt=pi - phi, pi=pi, phi=phi, phi_energy=phi_e, method=method)


def spin_half_dephasing_rates(b: BlochVector, lam: float) -> EntropyRates:
    """Wehrl rates of the dephasing channel for spin 1/2 (no flux)."""
    pi = dephasing_pi_spin_half(b, lam)
    return EntropyRates(ds_dt=pi, pi=pi, phi=0.0, phi_energy=0.0, method="closed_form_spin_half")


def spin_half_dephasing_von_neumann(b: BlochVector, lam: float) -> EntropyRates:
    """Von Neumann rates of the dephasing channel for spin 1/2 (no flux)."""
    pi = dephasing_pi_von_neumann(b, lam)
    return EntropyRates(ds_dt=pi, pi=pi, phi=0.0, phi_energy=0.0, method="von_neumann")


def spin_half_damping_von_neumann(b: BlochVector, bath: BathParams, omega: float) -> EntropyRates:
    """Von Neumann rates of the damping channel for spin 1/2.

    Phi_vN diverges as tau_bar_z -> -1 (zero-temperature bath) and the
    production diverges for pure states; both are reported as infinities.
    """
    tbz = bath.tau_bar_z
    g = bath.gamma
    tau = b.tau
    dev = b.tau_z - tbz
    if tbz <= -1.0 + DIVERGENCE_EDGE:
        phi = 0.0 if dev == 0.0 else math.copysign(math.inf, dev)
    else:
        phi = g * atanh_over(tbz) * dev
    shape = tau * tau + b.tau_z * (b.tau_z - 2.0 * tbz)
    if tau >= 1.0 - DIVERGENCE_EDGE:
        ds = 0.0 if shape == 0.0 else math.copysign(math.inf, -shape / tbz)
    else:
        ds = -0.5 * g * atanh_over(tau) * shape / tbz
    phi_e = (g * omega / (2.0 * tbz)) * (tbz - b.tau_z)
    return EntropyRates(ds_dt=ds, pi=phi + ds, phi=phi, phi_energy=phi_e, method="von_neumann")


# ---------------------------------------------------------------------------
# Registry of the Wehrl rate methods: where each applies, what it gives.
# ---------------------------------------------------------------------------


def bath_at(d: DissipatorSpec, t: float) -> BathParams:
    """The bath of a damping dissipator at time t."""
    gamma = d.gamma_t(t) if d.kind == "time_dependent_damping" else d.gamma
    return BathParams(gamma=gamma, nbar=d.nbar)


def _quadrature_rates(state: DensityMatrix, field: HusimiField, d: DissipatorSpec, t: float) -> EntropyRates:
    if d.kind == "dephasing":
        pi = dephasing_pi_quadrature(field, d.lam)
        return EntropyRates(ds_dt=pi, pi=pi, phi=0.0, phi_energy=0.0, method="quadrature")
    phi, pi_terms = damping_quadrature(field, bath_at(d, t))
    pi = pi_terms.total
    return EntropyRates(ds_dt=pi - phi, pi=pi, phi=phi, phi_energy=0.0, method="quadrature")


def _exact_2f1_rates(state: DensityMatrix, field, d: DissipatorSpec, t: float) -> EntropyRates:
    phi = damping_phi_exact(state.populations(), bath_at(d, t), state.j)
    return EntropyRates(ds_dt=math.nan, pi=math.nan, phi=phi, phi_energy=0.0, method="exact-2F1")


def _closed_form_rates(state: DensityMatrix, field, d: DissipatorSpec, t: float) -> EntropyRates:
    b = rho_to_bloch(state)
    if d.kind == "dephasing":
        return spin_half_dephasing_rates(b, d.lam)
    return spin_half_damping_rates(b, bath_at(d, t), omega=0.0)


def _exact_2f1_applies(two_j: int, d: DissipatorSpec) -> bool:
    return d.kind != "dephasing" and BathParams(gamma=0.0, nbar=d.nbar).tau_bar_z > EXACT_FLUX_MIN_TBZ


def _pi_and_phi(d: DissipatorSpec) -> tuple:
    return ("pi",) if d.kind == "dephasing" else ("phi", "pi")  # dephasing has no flux


@dataclass(frozen=True)
class RateMethod:
    """One route from a state to its Wehrl rates.

    applies(two_j, dissipator) says where the method is defined and
    trusted; gives(dissipator) names which of "pi" and "phi" it yields.
    rates(state, field, dissipator, t) returns EntropyRates with
    phi_energy left at 0; field is the state's HusimiField, or None if
    needs_field is False.
    """

    name: str
    applies: Callable[[int, DissipatorSpec], bool]
    gives: Callable[[DissipatorSpec], tuple]
    needs_field: bool
    rates: Callable[[DensityMatrix, Optional[HusimiField], DissipatorSpec, float], EntropyRates]


# In the order compare reports them. Neither the exact flux, singular at
# nbar = 0, nor the quadrature, whose (2 nbar + 1) - cos(theta) denominator
# vanishes at the north pole there, is cross-checked on a T = 0 bath.
RATE_METHODS = {
    m.name: m
    for m in (
        RateMethod("quadrature", lambda two_j, d: d.kind == "dephasing" or d.nbar > 0,
                   _pi_and_phi, True, _quadrature_rates),
        RateMethod("exact-2F1", _exact_2f1_applies, lambda d: ("phi",), False, _exact_2f1_rates),
        RateMethod("closed-form", lambda two_j, d: two_j == 1, _pi_and_phi, False, _closed_form_rates),
    )
}


def applicable_rate_methods(two_j: int, d: DissipatorSpec) -> list:
    """Every registered method that applies, in registry order."""
    return [m for m in RATE_METHODS.values() if m.applies(two_j, d)]


def primary_rate_method(two_j: int, d: DissipatorSpec) -> RateMethod:
    """The method whose rates a run reports: the closed form where it applies,
    otherwise the quadrature, the one route defined for every J and channel,
    evaluated also where it is not cross-checked."""
    closed = RATE_METHODS["closed-form"]
    return closed if closed.applies(two_j, d) else RATE_METHODS["quadrature"]


def rate_pairs(methods: list, d: DissipatorSpec) -> list:
    """(label, quantity, a, b) for each pair of methods that both give a
    quantity: phi first, then pi, each in the order of methods."""
    return [
        (f"{q} {a.name} vs {b.name}", q, a, b)
        for q in ("phi", "pi")
        for a, b in itertools.combinations(methods, 2)
        if q in a.gives(d) and q in b.gives(d)
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


def von_neumann_rates(
    rho: DensityMatrix, rho_dot: np.ndarray, bath: BathParams, omega: float
) -> EntropyRates:
    """General-J von Neumann bundle: dS/dt = -tr(rho_dot ln rho),
    Phi = Phi_E / T, Pi = dS/dt + Phi. T = 0 is flagged with infinities."""
    evals, vecs = np.linalg.eigh(rho.entries)
    log_rho = (vecs * np.log(np.clip(evals, EIG_LOG_FLOOR, None))) @ vecs.conj().T
    ds = float(-np.trace(np.asarray(rho_dot) @ log_rho).real)
    phi_e = energy_flux(rho, bath, omega)
    if bath.nbar == 0.0:
        phi = 0.0 if phi_e == 0.0 else math.copysign(math.inf, phi_e)
    else:
        phi = phi_e / temperature_from_nbar(omega, bath.nbar)
    return EntropyRates(ds_dt=ds, pi=ds + phi, phi=phi, phi_energy=phi_e, method="von_neumann")


# ---------------------------------------------------------------------------
# Balance and bookkeeping.
# ---------------------------------------------------------------------------


def clausius_ratio(rates: EntropyRates, temperature: float, j: SpinQuantumNumber) -> float:
    """Phi * T * (1 + 1/J) / Phi_E; tends to 1 in the high-temperature limit."""
    if rates.phi_energy == 0.0:
        raise UndefinedRatio("energy flux is zero")
    return rates.phi * temperature * (1.0 + 1.0 / j.j) / rates.phi_energy


def dissipative_entropy_rate(field: HusimiField, dissipator_field: np.ndarray) -> float:
    """dS/dt|_diss = -(2J+1)/(4 pi) * integral of D(Q) ln Q.

    dissipator_field holds <Omega|D(rho)|Omega> on the same grid (see
    phase_space.husimi_of_matrix).
    """
    lnq = np.log(np.maximum(field.q, Q_FLOOR))
    return -(field.j.dim / (4.0 * np.pi)) * field.grid.integrate(np.asarray(dissipator_field) * lnq)


def generator_entropy_rate(
    generator_matrix: np.ndarray, field: HusimiField
) -> float:
    """Entropy rate contributed by an arbitrary generator matrix G:
    -(2J+1)/(4 pi) * integral of <Omega|G|Omega> ln Q. Vanishes for the
    commutator generator of any Hamiltonian linear in J_i."""
    gfield = husimi_of_matrix(generator_matrix, field.j, field.grid)
    return dissipative_entropy_rate(field, gfield)


def integrate_rate_series(times: np.ndarray, values: np.ndarray, tail_tol: float = 1e-10) -> float:
    """Trapezoid integral of a rate series whose tail must have decayed."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if abs(values[-1]) >= tail_tol:
        raise TailNotConverged(f"|rate| = {abs(values[-1]):.3e} at the final time, >= {tail_tol}")
    return float(_trapezoid(values, times))


def total_entropy_produced(
    trajectory: Trajectory,
    rate_fn: Callable[[DensityMatrix, float], float],
    tail_tol: float = 1e-10,
) -> float:
    """Sigma = integral of Pi(t) dt along the trajectory."""
    pis = np.array([rate_fn(s, t) for s, t in zip(trajectory.states, trajectory.times)])
    return integrate_rate_series(trajectory.times, pis, tail_tol)
