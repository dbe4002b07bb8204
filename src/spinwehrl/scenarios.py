"""End-to-end applications: spontaneous emission, thermal quench, driven
spin in a rotating field, and a two-level atom hit by a single-photon pulse.

Every scenario is a Model (initial state, Hamiltonian and dissipator) run
through one pipeline, simulate: evolve the master equation exactly on a
uniform output grid, then reduce the trajectory's arrays to Wehrl and von
Neumann rate series with the primary method of the entropy_rates registry.
compare instead cross-checks every method that applies. Outputs are
deterministic for fixed inputs (exact propagators and fixed quadrature
grids).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import DissipatorSpec, HamiltonianSpec, Trajectory, _damping_blocks, _gamma_at, _order_dissipation, evolve
from .entropy_rates import (
    BathParams,
    EntropyRates,
    RateMethod,
    _bloch_parts,
    _spohn_rates,
    applicable_rate_methods,
    bath_at,
    coherence_bracket,
    damping_phi_exact,
    max_relative_deviation,
    primary_rate_method,
    rate_pairs,
    spin_half_damping_von_neumann,
    spin_half_dephasing_von_neumann,
)
from .errors import AmplitudeUnderflow, NonMarkovianRegime, NonPhysicalState, NothingToCompare, UnsupportedParameters
from .phase_space import SphereGrid, husimi_chunks, make_grid, wehrl_entropy, wehrl_entropy_spin_half
from .spin_ops import (
    BlochVector,
    DensityMatrix,
    SpinQuantumNumber,
    _from_order_diagonals,
    bloch_to_rho,
    gibbs_state,
    nbar_from_temperature,
)

SIGMA_TAIL_TOL = 1e-10
# Every rate a run reports is linear in the dissipator's rate and grows with
# the bath and the spin like (2 nbar + 1) d^2, d = 2J + 1 (a pure state's
# von Neumann rate at 2J = 40 is ~700 gamma). Up to this bound on their
# product, the rates, and the products and sums that form them, stay well
# inside the range of doubles (1.8e308).
RATE_SCALE_MAX = 1e305


@dataclass(frozen=True)
class Model:
    """What a scenario integrates."""

    rho0: DensityMatrix
    h: HamiltonianSpec
    d: DissipatorSpec


@dataclass(frozen=True)
class ScenarioResult:
    """What simulate computed for one model: the trajectory, its Wehrl and
    von Neumann rates (EntropyRates whose fields are arrays over the
    trajectory's times; the von Neumann flux is tr(D(rho) ln rho_bar)
    against the bath's Gibbs state rho_bar, see _von_neumann), the energy
    flux phi_energy = -tr(H(t) D(rho)), the Wehrl entropy, the total Wehrl
    production sigma_wehrl (from the entropy balance, see _sigma_or_none;
    None where Pi has not decayed), the checks among the field-free methods
    (see _agreement), and the model."""

    trajectory: Trajectory
    wehrl: EntropyRates
    von_neumann: EntropyRates
    phi_energy: np.ndarray
    entropy: np.ndarray
    sigma_wehrl: Optional[float]
    agreement: dict
    model: Model

    @property
    def times(self) -> np.ndarray:
        return self.trajectory.times


def _check_rate_scale(model: Model, times: np.ndarray) -> float:
    """Raise UnsupportedParameters, before integrating, for a dissipator
    whose rate times (2 nbar + 1) d^2 exceeds RATE_SCALE_MAX: lambda for
    dephasing, gamma for damping, and the largest gamma_t at the output
    times for a time-dependent damping. An undamped bath is left to
    BathParams, which refuses an nbar whose 2 nbar + 1 overflows. Returns
    the product."""
    d, dim = model.d, model.rho0.dim
    rate = d.lam if d.kind == "dephasing" else float(np.max(_gamma_at(d, times))) * (2.0 * d.nbar + 1.0)
    if rate * dim * dim > RATE_SCALE_MAX:  # False at gamma = 0 with an infinite 2 nbar + 1 (nan)
        raise UnsupportedParameters(
            f"rate {rate:g} times (2J + 1)^2 = {dim * dim} exceeds {RATE_SCALE_MAX:g}: the rates would overflow"
        )
    return rate * dim * dim


def _uniform_grid(t_max: float, dt: float) -> np.ndarray:
    n = int(round(t_max / dt))
    if n < 2:
        raise ValueError("t_max/dt must give at least two output steps")
    return np.linspace(0.0, t_max, n + 1)


@functools.lru_cache(maxsize=None)
def _flux_potential(two_j: int, nbar: float) -> np.ndarray:
    """g, read-only, with A_0^T g = c for the unit-rate flux c of each J_z level
    and the unit-rate order-0 damping block A_0, solvable since Phi vanishes at
    A_0's null vector. Under damping alone the integral of Phi is g.(p(t) - p(0))."""
    c = damping_phi_exact(np.eye(two_j + 1), BathParams(1.0, nbar))
    g = np.linalg.lstsq(_damping_blocks(SpinQuantumNumber(two_j), nbar, (0,))[0].T, c, rcond=None)[0]
    g.setflags(write=False)
    return g


def _sigma_or_none(model: Model, traj: Trajectory, entropy: np.ndarray, pi: np.ndarray) -> Optional[float]:
    """The integral of Pi over the run from the entropy balance at its two
    ends: S(t_max) - S(0) + the integral of Phi, 0 under dephasing or with
    unmoved populations (no block is formed; it overflows at huge nbar). None
    where Pi is not finite, |Pi(t_max)| >= SIGMA_TAIL_TOL, or a damped
    rotating field with b1 != 0 moves the populations through the coherences."""
    h, d, dp = model.h, model.d, traj.populations()[-1] - traj.populations()[0]
    driven = d.kind != "dephasing" and h.kind == "rotating_field" and h.b1 != 0.0
    if driven or not np.all(np.isfinite(pi)) or abs(pi[-1]) >= SIGMA_TAIL_TOL:
        return None
    flux = _flux_potential(traj.j.two_j, d.nbar) @ dp if d.kind != "dephasing" and np.any(dp) else 0.0
    return float(entropy[-1] - entropy[0] + flux)


def _von_neumann(traj: Trajectory, d: DissipatorSpec, dx: np.ndarray) -> EntropyRates:
    """The von Neumann rates against the bath's Gibbs state, from the closed
    forms for spin 1/2, on the trajectory's Bloch array, and otherwise as
    von_neumann_rates gives them, from dx, the order diagonals of D(rho)."""
    if traj.j.two_j == 1:
        if d.kind == "dephasing":
            return spin_half_dephasing_von_neumann(traj.bloch, d.lam)
        return spin_half_damping_von_neumann(traj.bloch, bath_at(d, traj.times))
    return _spohn_rates(traj.diagonals, dx, traj.orders, d)


def _energy_flux(h: HamiltonianSpec, traj: Trajectory, dx: np.ndarray) -> np.ndarray:
    """Phi_E = -tr(H(t) D(rho)) of each state, from dx, the order diagonals
    of D(rho): for a static omega J_z, or no Hamiltonian, only D's order 0
    enters; the rotating field (spin 1/2) takes the 2 x 2 matrices whole."""
    if h.kind == "rotating_field":
        dr = _from_order_diagonals(dx, traj.orders)
        return -np.trace(h.matrix(traj.j, traj.times) @ dr, axis1=-2, axis2=-1).real
    return -(dx[:, 0, :, 1].real @ (h.omega * traj.j.m_values()))


def _recording_entropy(chunks, entropy: np.ndarray):
    """The Husimi chunks unchanged, writing the Wehrl entropies of their
    states into entropy, in order, as they pass."""
    start = 0
    for chunk in chunks:
        s = wehrl_entropy(chunk)
        entropy[start : start + s.size] = s
        start += s.size
        yield chunk


def _agreement(methods: list, d: DissipatorSpec, series: Callable[[RateMethod], EntropyRates]) -> dict:
    """Maximum relative deviation of each check in rate_pairs among methods,
    by label, from series(method), each method's rates over a trajectory.
    Nothing is evaluated when there is no check."""
    pairs = rate_pairs(methods, d)
    if not pairs:
        return {}
    rates = {m.name: series(m) for m in methods}
    return {
        label: max_relative_deviation(getattr(rates[a.name], quantity), getattr(rates[b.name], quantity))
        for label, quantity, a, b in pairs
    }


def simulate(model: Model, t_max: float, dt: float, grid: Optional[SphereGrid] = None) -> ScenarioResult:
    """Evolve a model and reduce its trajectory to rate series: the one
    pipeline behind every scenario and the CLI's run and sweep.

    The registry's primary method gives the Wehrl rates: the closed forms
    for spin 1/2, on the trajectory's Bloch array, and otherwise the
    quadrature, whose one pass over the Husimi fields (built a few states
    at a time on grid, by default make_grid()) also gives the Wehrl
    entropy. Spin-1/2 runs take the entropy from its closed form and build
    no field. The agreement checks the primary series against the other
    methods that need no field. D(rho) of the states, formed on the
    trajectory's order diagonals (dynamics._order_dissipation), gives both
    phi_energy and the von Neumann rates of _von_neumann. Nothing here
    forms a dense (n, d, d) stack for a J_z-diagonal trajectory. A rate
    that would overflow (RATE_SCALE_MAX) raises UnsupportedParameters
    before integrating, and so does phi_energy, whose scale is the rates'
    times the largest absolute row sum of H at the output times.
    """
    rho0, h, d = model.rho0, model.h, model.d
    j = rho0.j
    method = primary_rate_method(j.two_j, d)
    times = _uniform_grid(t_max, dt)
    scale = _check_rate_scale(model, times)
    h_norm = float(np.max(np.abs(h.matrix(j, times)).sum(axis=-1)))
    if scale * h_norm > RATE_SCALE_MAX:
        raise UnsupportedParameters(f"rate scale {scale:g} times |H| = {h_norm:g}: the energy flux would overflow")
    traj = evolve(rho0, h, d, times)
    if method.needs_field:
        entropy = np.empty(times.size)
        grid = grid if grid is not None else make_grid()
        fields = _recording_entropy(husimi_chunks(traj, grid), entropy)
    else:
        fields = None
        entropy = wehrl_entropy_spin_half(_bloch_parts(traj.bloch)[1])
    wehrl = method.rates(traj, fields, d)
    field_free = [m for m in applicable_rate_methods(j.two_j, d) if not m.needs_field]
    agreement = _agreement(field_free, d, lambda m: wehrl if m is method else m.rates(traj, None, d))
    dx = _order_dissipation(traj.diagonals, d, times, traj.orders)
    return ScenarioResult(
        trajectory=traj,
        wehrl=wehrl,
        von_neumann=_von_neumann(traj, d, dx),
        phi_energy=_energy_flux(h, traj, dx),
        entropy=entropy,
        sigma_wehrl=_sigma_or_none(model, traj, entropy, wehrl.pi),
        agreement=agreement,
        model=model,
    )


def compare(model: Model, t_max: float, dt: float, grid: SphereGrid) -> dict:
    """Integrate once and give the maximum relative deviation of each check
    in rate_pairs among every rate method that applies, by label, building
    each state's Husimi field on grid once. Raises NothingToCompare, before
    integrating, when no two of them give a common quantity, and
    UnsupportedParameters, as simulate does, for a rate that would
    overflow."""
    d = model.d
    methods = applicable_rate_methods(model.rho0.j.two_j, d)
    if not rate_pairs(methods, d):
        names = ", ".join(m.name for m in methods)
        raise NothingToCompare(
            f"fewer than two rate methods apply to 2J = {model.rho0.j.two_j}, {d.kind}, "
            f"nbar = {d.nbar:g}: {names}"
        )
    times = _uniform_grid(t_max, dt)
    _check_rate_scale(model, times)
    traj = evolve(model.rho0, model.h, d, times)
    return _agreement(methods, d, lambda m: m.rates(traj, husimi_chunks(traj, grid) if m.needs_field else None, d))


def spontaneous_emission_model(omega: float, gamma: float, temperature: float) -> Model:
    """Decay of the excited state |z+> under the thermal damping bath at
    nbar_from_temperature(omega, temperature). Raises InvalidFrequency for
    omega <= 0, the level splitting of the bath."""
    return Model(
        bloch_to_rho(BlochVector(0.0, 0.0, 1.0)),
        HamiltonianSpec.static_jz(omega),
        DissipatorSpec.amplitude_damping(gamma, nbar_from_temperature(omega, temperature)),
    )


def quench_tau_z(t: np.ndarray, tau_z0: float, bath: BathParams) -> np.ndarray:
    """Relaxation law tau_z(t) = tau_bar_z + exp(-gamma t/|tau_bar_z|) (tau_z(0) - tau_bar_z)."""
    tbz = bath.tau_bar_z
    return tbz + np.exp(-bath.gamma * np.asarray(t) / abs(tbz)) * (tau_z0 - tbz)


def thermal_quench_model(t0_temperature: float, bath_temperature: float, omega: float, gamma: float) -> Model:
    """Gibbs state prepared at T0 relaxing toward the bath at temperature T.

    The evolved state remains thermal with a time-dependent temperature;
    quench_tau_z gives its tau_z(t) in closed form. Raises InvalidFrequency
    for omega <= 0, the level splitting of the bath.
    """
    return Model(
        gibbs_state(SpinQuantumNumber(1), omega, t0_temperature),
        HamiltonianSpec.static_jz(omega),
        DissipatorSpec.amplitude_damping(gamma, nbar_from_temperature(omega, bath_temperature)),
    )


def rotating_field_steady_state(b0: float, b1: float, drive_omega: float, bath: BathParams) -> dict:
    """Long-time state and rates for the driven, damped spin 1/2.

    In the frame co-rotating with the drive the stationary Bloch vector is
    analytic; Pi = Phi there, with the Wehrl value staying finite at T -> 0
    while the von Neumann value diverges.
    """
    tbz = bath.tau_bar_z
    g = bath.gamma
    gt = g / abs(tbz)
    det2 = 4.0 * (b0 + drive_omega) ** 2
    denom = g * g + 2.0 * tbz * tbz * (b1 * b1 + 2.0 * (b0 + drive_omega) ** 2)
    tau_z = tbz * (gt * gt + det2) / (gt * gt + det2 + 2.0 * b1 * b1)
    # tau_bar_z + (tau_bar_z^2 - 1) atanh(tau_bar_z) = tau_bar_z^3 g(tau_bar_z)
    bracket = tbz**3 * coherence_bracket(tbz)
    pi_wehrl = -g * b1 * b1 * bracket / denom
    if tbz <= -1.0 + 1e-12:
        pi_vn = math.inf
    else:
        pi_vn = -2.0 * g * b1 * b1 * tbz * tbz * math.atanh(tbz) / denom
    return {"tau_z": tau_z, "pi_wehrl": pi_wehrl, "pi_vn": pi_vn}


def rotating_field_model(
    b0: float, b1: float, drive_omega: float, dissipator: DissipatorSpec, initial_state: DensityMatrix
) -> Model:
    """Spin 1/2 driven by a rotating transverse field, with dephasing or
    damping. Energy flux is reported as -tr(H(t) D(rho)) for the
    instantaneous Hamiltonian. With damping, rotating_field_steady_state
    gives the long-time state and rates."""
    if initial_state.j.two_j != 1:
        raise NonPhysicalState("rotating_field scenario is defined for spin 1/2")
    return Model(initial_state, HamiltonianSpec.rotating_field(b0, b1, drive_omega), dissipator)


# ---------------------------------------------------------------------------
# Single-photon pulse.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PulseParams:
    """Resonant, exponentially decaying single-photon pulse hitting a
    two-level atom: gamma0 is the free-space decay rate, capital_omega the
    pulse bandwidth, a0 the initial excited amplitude."""

    gamma0: float
    capital_omega: float
    a0: float

    def __post_init__(self):
        if self.gamma0 <= 0 or self.capital_omega <= self.gamma0:
            raise NonPhysicalState("requires capital_omega > gamma0 > 0")
        if not 0.0 < self.a0 <= 1.0:
            raise NonPhysicalState("requires 0 < a0 <= 1")

    @property
    def normalization(self) -> float:
        """Pulse norm N = sqrt(1 - a0^2)."""
        return math.sqrt(max(1.0 - self.a0 * self.a0, 0.0))


def markov_threshold(params: PulseParams) -> float:
    """Smallest a0 keeping the effective decay rate non-negative:
    a0 >= sqrt(delta/(1+delta)) with delta = 4 r / (1 - r)^2, r = bandwidth ratio."""
    r = params.capital_omega / params.gamma0
    delta = 4.0 * r / (1.0 - r) / (1.0 - r)  # not (1 - r)**2, which overflows
    return math.sqrt(delta / (1.0 + delta))


def is_markovian(params: PulseParams) -> bool:
    return params.a0 >= markov_threshold(params) - 1e-12


def pulse_xi(params: PulseParams, t):
    """Pulse wave function: N sqrt(Omega) exp(-Omega t / 2) for t >= 0."""
    t = np.asarray(t, dtype=float)
    xi = params.normalization * math.sqrt(params.capital_omega) * np.exp(-0.5 * params.capital_omega * t)
    return np.where(t >= 0.0, xi, 0.0)


def pulse_amplitude(params: PulseParams, t):
    """Excited-state amplitude a(t) for the resonant pulse, t >= 0, real.

    Closed form of the retarded integral: with kappa = (gamma0 - Omega)/2,

        a(t) = e^{-gamma0 t/2} [a0 - sqrt(gamma0 Omega) N (e^{kappa t} - 1)/kappa].
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("pulse amplitude is defined for t >= 0")
    g0 = params.gamma0
    om = params.capital_omega
    kappa = 0.5 * (g0 - om)
    integral = t if abs(kappa) < 1e-14 else (np.exp(kappa * t) - 1.0) / kappa
    amp = np.exp(-0.5 * g0 * t) * (params.a0 - math.sqrt(g0 * om) * params.normalization * integral)
    return amp if amp.ndim else float(amp)


def pulse_effective_rates(params: PulseParams, t):
    """Gamma_t = -2 a'/a, from the amplitude's equation of motion
    a' = -(gamma0/2) a - sqrt(gamma0) xi(t); a float for a time, an array
    for an array of times. Raises AmplitudeUnderflow where |a| < 1e-12."""
    a = np.asarray(pulse_amplitude(params, t))
    if np.any(np.abs(a) < 1e-12):
        raise AmplitudeUnderflow("excited amplitude below 1e-12")
    a_dot = -0.5 * params.gamma0 * a - math.sqrt(params.gamma0) * pulse_xi(params, t)
    gamma_t = -2.0 * (a_dot / a)
    return gamma_t if gamma_t.ndim else float(gamma_t)


def photon_pulse_model(params: PulseParams) -> Model:
    """Master-equation evolution with the time-dependent decay rate Gamma_t
    of pulse_effective_rates and no Hamiltonian: at resonance the pulse
    acts on the atom through Gamma_t alone.

    The bath is at zero temperature (tau_bar_z = -1); Wehrl rates use the
    spin-1/2 closed forms with gamma -> Gamma_t, so the flux reduces to
    Phi(t) = (Gamma_t/2)(1 + tau_z(t)), and pulse_amplitude gives the
    excited amplitude a(t), with tau_z = 2 a^2 - 1. Raises
    NonMarkovianRegime below the Markovianity threshold (markov_threshold).
    """
    if not is_markovian(params):
        raise NonMarkovianRegime(
            f"a0 = {params.a0} below the threshold {markov_threshold(params):.6f}"
        )
    p_exc = params.a0 ** 2
    rho0 = DensityMatrix(
        SpinQuantumNumber(1), np.diag([p_exc, 1.0 - p_exc]).astype(complex)
    )
    # evolve asks for the rate on an array of quadrature nodes, and the
    # rates and the CSV on the array of output times.
    return Model(
        rho0,
        HamiltonianSpec.none(),
        DissipatorSpec.time_dependent_damping(functools.partial(pulse_effective_rates, params), nbar=0.0),
    )


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

# write_csv lays out the %.17g text of a cell in 48 bytes, six 8-byte words,
# from which NUL bytes are then deleted: a sign, "0." and up to three zeros
# (a fixed layout below 1), the 17 digits each followed by a possible decimal
# point (digit i at byte 6 + 2i), and "e", the exponent's sign and digits.
# Each word comes from a table and is masked by the cell's class: its
# layout (fixed at exponent X in [-4, 16], or scientific) and how many of
# its 17 digits are trailing zeros.
_CELL_WORDS = 6
# The most text a block of rows formatted at once may hold (a block holds at
# least one row): 2048 cells of 48 bytes, fewer with literal words. Every
# array of a block then stays below 128 KiB, whose pages the C allocator
# keeps and reuses; blocks of 8192 cells faulted ~2,100 fresh pages in per
# pass of the five long spin-1/2 runs and formatted ~1.5 times slower.
_BLOCK_BYTES = 96 * 1024
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter


def _split(a: np.ndarray) -> tuple:
    """Dekker's split of a into halves of 26 bits a1 + a2 = a; |a| < 1e290."""
    c = _SPLIT * a
    a1 = c - (c - a)
    return a1, a - a1


def _two_product(a: np.ndarray, b: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> tuple:
    """(p, e) with p = fl(a b) and p + e = a b exactly, from b's halves b1,
    b2 (_split), without a fused multiply-add."""
    a1, a2 = _split(a)
    p = a * b
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


@functools.cache
def _cell_tables() -> dict:
    """The tables of _format_cells, built on its first call; those indexed
    by a decimal exponent X in [-200, 199] are at X + 200.

    hi, hi1, hi2, lo: 10^(16 - X) as a double-double hi + lo, to within
    2^-100 of it, and hi's halves (_split). 10^k, k >= 0, is the product of
    10^(22 a), exact from ints, and 10^b, b < 22, an exact double; 10^-n is
    the double-double reciprocal of 10^n. lead: the first word, "-0.000"
    d0 "." with the sign a NUL for a positive cell, at 10 sign + d0; group:
    the word "d.d.d.d." of each base-10^4 group; zeros: a group's trailing
    zeros (4 for 0). exponent: the last word, "e+05" or "e-200" and NULs,
    all NULs for a fixed layout; layout: 17 times X's layout, 0-20 fixed at
    X + 4, 21 scientific. masks: the masks of the six words of each class
    17 layout + trailing zeros (the last all ones).
    """
    big, hi, lo = 1, [], []  # 10^(22 a), a < 10, from ints
    for _ in range(10):
        h = float(big)
        hi.append(h)
        lo.append(float(big - int(h)))
        big *= 10**22
    small = [1.0]  # 10^b, b < 22, exact
    for _ in range(21):
        small.append(small[-1] * 10.0)
    small = np.array(small)
    p, e = _two_product(np.array(hi)[:, None], small, *_split(small))
    e += np.array(lo)[:, None] * small
    p, e = p.ravel()[:217], e.ravel()[:217]  # 10^k = 10^(22 a) 10^b, k < 217
    hi = p + e
    lo = e - (hi - p)
    inv = 1.0 / hi[1:184]
    q, e = _two_product(inv, hi[1:184], *_split(hi[1:184]))
    inv_lo = (((1.0 - q) - e) - inv * lo[1:184]) / hi[1:184]
    hi, lo = np.concatenate((hi[::-1], inv)), np.concatenate((lo[::-1], inv_lo))

    pair = np.full((10, 10, 4), ord("."), np.uint8)  # "d.d." for 00-99
    pair[..., 0] = np.arange(48, 58, dtype=np.uint8)[:, None]
    pair[..., 2] = np.arange(48, 58, dtype=np.uint8)
    pair = pair.reshape(100, 4)
    group = np.empty((100, 100, 2), np.uint32)
    group[..., 0] = pair.view(np.uint32)
    group[..., 1] = pair.view(np.uint32)[:, 0]
    zeros = np.zeros(10000, np.intp)
    for count, step in enumerate((10, 100, 1000, 10000), 1):
        zeros[::step] = count
    x = np.arange(-200, 200)
    fixed = (x >= -4) & (x <= 16)
    exponent = np.zeros((400, 8), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exponent[:, 2] = 48 + np.abs(x) // 100
    exponent[:, 3:5] = pair[np.abs(x) % 100, ::2]
    two = np.abs(x) < 100
    exponent[two, 2:5] = exponent[two, 3:6]

    layout, trailing = np.divmod(np.arange(22 * 17), 17)
    x_fixed = np.where(layout < 21, layout - 4, 0)  # scientific: the point follows digit 0
    last = 16 - trailing  # the last digit kept
    keep = np.zeros((layout.size, 8 * _CELL_WORDS), np.uint8)
    byte = keep.T
    byte[0] = 1  # the sign, a NUL in a positive cell's first word
    byte[1] = byte[2] = x_fixed < 0
    byte[3:6] = x_fixed <= -np.arange(2, 5)[:, None]
    byte[6:40:2] = np.arange(17)[:, None] <= np.maximum(last, x_fixed)
    byte[7:40:2] = (np.arange(17)[:, None] == x_fixed) & (last > x_fixed)
    byte[40:] = 1
    keep *= 255
    lead = np.empty((2, 10, 8), np.uint8)  # by sign and digit 0
    lead[...] = np.frombuffer(b"-0.000d.", np.uint8)
    lead[0, :, 0] = 0
    lead[..., 6] = np.arange(48, 58, dtype=np.uint8)
    hi1, hi2 = _split(hi)
    return {
        "hi": hi,
        "hi1": hi1,
        "hi2": hi2,
        "lo": lo,
        "lead": lead.reshape(20, 8).view(np.uint64)[:, 0],
        "group": group.reshape(10000, 2).view(np.uint64)[:, 0],
        "zeros": zeros,
        "exponent": np.where(fixed, 0, exponent.view(np.uint64)[:, 0]),
        "layout": 17 * np.where(fixed, x + 4, 21),
        "masks": keep.view(np.uint64),
    }


def _format_cells(x: np.ndarray) -> np.ndarray:
    """The %.17g text of each cell of x (2-D) as its _CELL_WORDS words, an
    array of x's shape plus one, from which the NULs are to be deleted.

    A cell with 1e-200 <= |x| <= 1e200 is scaled by 10^(16 - X), X from
    log10, in double-double arithmetic, to within 1e-13 of the exact
    product y, and rounded to the 17-digit integer D. Its digits are D's
    when they are certain: y is not within 1e-6 of a half-integer and
    10^16 < D < 10^17. Every other cell (zeros, infinities, nans,
    subnormal or extreme magnitudes, near-ties, D = 10^16, an X one off)
    is formatted by b"%.17g" % x, once per distinct value.
    """
    t = _cell_tables()
    a = np.abs(x)
    s = np.fmax(np.fmin(a, 1e200), 1e-200)  # nan -> 1e200
    ok = s == a
    at = np.floor(np.log10(s)).astype(np.intp)
    at += 200  # the tables' index of the exponent X
    p, e = _two_product(s, *(t[k].take(at, mode="clip") for k in ("hi", "hi1", "hi2")))
    y = t["lo"].take(at, mode="clip")
    y *= s
    y += e  # y - p, below 20 in magnitude; p is an integer once y >= 2^53
    r = np.rint(y)
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    y -= r
    ok &= np.abs(y) < 0.5 - 1e-6
    ok &= (d > 10**16) & (d < 10**17)

    high = d // 10**8
    low = d - high * 10**8
    lead = high // 10**8
    g1 = high - lead * 10**8
    g3 = low // 10**4
    groups = [g1 // 10**4, g1 % 10**4, g3, low - g3 * 10**4]
    zeros = [t["zeros"].take(g, mode="clip") for g in groups]
    trailing = zeros[0]
    for z in zeros[1:]:
        trailing *= z == 4
        trailing += z
    cls = t["layout"].take(at, mode="clip")
    cls += trailing
    lead += 10 * np.signbit(x)
    words = np.empty(x.shape + (_CELL_WORDS,), np.uint64)
    for w, (table, index) in enumerate(
        [(t["lead"], lead)] + [(t["group"], g) for g in groups] + [(t["exponent"], at)]
    ):
        table.take(index, mode="clip", out=words[..., w])
    words &= t["masks"].take(cls, axis=0, mode="clip")

    slow = np.nonzero(~ok)
    if slow[0].size:
        values, which = np.unique(x[slow].view(np.int64), return_inverse=True)
        cells = np.array([b"%.17g" % v for v in values.view(float).tolist()], dtype=f"S{8 * _CELL_WORDS}")
        words[slow] = cells.view(np.uint64).reshape(-1, _CELL_WORDS)[which]
    return words


def write_csv(path, header: list, table, columns=None) -> None:
    """A table (2-D, or 1-D as one column) as CSV under a header line, each
    cell at %.17g, byte for byte as numpy's savetxt writes it; divergences
    appear as literal inf tokens. The package's one CSV writer. A column
    that is +0.0 in every row is the literal 0, "%.17g" % 0.0, with no cell
    formatted (-0.0 reads -0). With columns, increasing, the table's
    columns sit at those header positions, and every other position is the
    literal 0.

    The cells are formatted in numpy (_format_cells), a block of whole rows
    (_BLOCK_BYTES) at a time, each certified per cell; the few cells that
    cannot be fall back to Python's %.17g. Each cell's words are followed
    by the literal text after it (a separator and literal zeros), its first
    three bytes in the NULs that end the cell, all padded with NULs, which
    are then deleted. The literal zeros that open a row close the row
    before, and the header."""
    table = np.asarray(table, dtype=float)
    if table.ndim == 1:
        table = table[:, None]
    zero = np.all(table == 0.0, axis=0) & ~np.any(np.signbit(table), axis=0)
    width = table.shape[1] if columns is None else len(header)
    at = np.flatnonzero(~zero) if columns is None else np.asarray(columns, dtype=int)[~zero]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not at.size:
            fh.write((",".join(["0"] * width) + "\n").encode() * len(table))
            return
        lead = "0," * at[0]
        literals = ["," + "0," * g for g in (np.diff(at) - 1).tolist()] + [",0" * (width - 1 - at[-1]) + "\n" + lead]
        size = -(-max(len(a) - 3 for a in literals) // 8)  # the words after a cell's
        rows = min(len(table), max(1, _BLOCK_BYTES // (8 * at.size * (_CELL_WORDS + size))))
        words = np.zeros((rows, at.size, _CELL_WORDS + size), np.uint64)
        text = words.view(np.uint8)[..., 8 * _CELL_WORDS - 3 :]
        for c, literal in enumerate(literals):
            text[:, c, : len(literal)] = np.frombuffer(literal.encode(), np.uint8)
        tail = words[0, :, _CELL_WORDS - 1].copy()  # each literal's first three bytes
        cells = words[..., :_CELL_WORDS].view(f"V{8 * _CELL_WORDS}")  # copied whole, a cell at a time
        fh.write(lead.encode())
        values = table[:, ~zero] if zero.any() else table
        for start in range(0, len(table), rows):
            block = _format_cells(values[start : start + rows])
            block[..., -1] |= tail
            cells[: len(block)] = block.view(cells.dtype)
            out = words[: len(block)].tobytes().translate(None, b"\0")
            fh.write(out[: len(out) - len(lead)] if start + rows >= len(table) else out)


def write_scenario_csv(result: ScenarioResult, path) -> None:
    """CSV with columns t, tau_x, tau_y, tau_z, S_wehrl, Pi_wehrl, Phi_wehrl,
    Pi_vN, Phi_vN, Phi_E and, for a time-dependent damping rate such as a
    pulse's, gamma_t (see write_csv)."""
    cols = ["t", "tau_x", "tau_y", "tau_z", "S_wehrl", "Pi_wehrl", "Phi_wehrl", "Pi_vN", "Phi_vN", "Phi_E"]
    bloch = result.trajectory.bloch if result.trajectory.j.two_j == 1 else np.full((result.times.size, 3), math.nan)
    w, v = result.wehrl, result.von_neumann
    table = [result.times, *bloch.T, result.entropy, w.pi, w.phi, v.pi, v.phi, result.phi_energy]
    d = result.model.d
    if d.kind == "time_dependent_damping":
        cols.append("gamma_t")
        table.append(d.gamma_t(result.times))
    write_csv(path, cols, np.column_stack(table))
