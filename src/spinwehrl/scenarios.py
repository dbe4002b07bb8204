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

from .dynamics import DissipatorSpec, HamiltonianSpec, Trajectory, _gamma_at, _order_dissipation, evolve
from .entropy_rates import (
    BathParams,
    EntropyRates,
    RateMethod,
    _bloch_parts,
    applicable_rate_methods,
    bath_at,
    coherence_bracket,
    max_relative_deviation,
    primary_rate_method,
    rate_pairs,
    spin_half_damping_von_neumann,
    spin_half_dephasing_von_neumann,
    von_neumann_rates,
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

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


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
    production sigma_wehrl (None where Pi has not decayed or the output
    grid does not resolve it), the checks among the field-free methods
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


def _check_rate_scale(model: Model, times: np.ndarray) -> None:
    """Raise UnsupportedParameters, before integrating, for a dissipator
    whose rate times (2 nbar + 1) d^2 exceeds RATE_SCALE_MAX: lambda for
    dephasing, gamma for damping, and the largest gamma_t at the output
    times for a time-dependent damping. An undamped bath is left to
    BathParams, which refuses an nbar whose 2 nbar + 1 overflows."""
    d, dim = model.d, model.rho0.dim
    gamma = float(np.max(_gamma_at(d, times))) if d.kind == "time_dependent_damping" else d.gamma
    rate = d.lam if d.kind == "dephasing" else gamma * (2.0 * d.nbar + 1.0)
    if rate * dim * dim > RATE_SCALE_MAX:  # False at gamma = 0 with an infinite 2 nbar + 1 (nan)
        raise UnsupportedParameters(
            f"rate {rate:g} times (2J + 1)^2 = {dim * dim} exceeds {RATE_SCALE_MAX:g}: the rates would overflow"
        )


def _uniform_grid(t_max: float, dt: float) -> np.ndarray:
    n = int(round(t_max / dt))
    if n < 2:
        raise ValueError("t_max/dt must give at least two output steps")
    return np.linspace(0.0, t_max, n + 1)


def _sigma_or_none(times, pi_values) -> Optional[float]:
    """The trapezoid integral T(h) of Pi over the output times, or None when
    Pi is not finite, its final value is not below SIGMA_TAIL_TOL, or the
    Richardson estimate |T(h) - T(2h)|/3 of the trapezoid's error, with
    T(2h) over every second output point, exceeds both 1e-2 |T(h)| and
    SIGMA_TAIL_TOL (Pi decaying within a few output steps)."""
    pi_values = np.asarray(pi_values, dtype=float)
    if not np.all(np.isfinite(pi_values)) or abs(pi_values[-1]) >= SIGMA_TAIL_TOL:
        return None
    sigma = float(_trapezoid(pi_values, times))
    coarse = float(_trapezoid(pi_values[::2], times[::2]))
    return None if abs(sigma - coarse) / 3.0 > max(1e-2 * abs(sigma), SIGMA_TAIL_TOL) else sigma


def _von_neumann(traj: Trajectory, d: DissipatorSpec, dx: np.ndarray) -> EntropyRates:
    """The von Neumann rates against the bath's Gibbs state, from the closed
    forms for spin 1/2, on the trajectory's Bloch array, and otherwise from
    von_neumann_rates on the trajectory and dx, the order diagonals of
    D(rho)."""
    if traj.j.two_j == 1:
        if d.kind == "dephasing":
            return spin_half_dephasing_von_neumann(traj.bloch, d.lam)
        return spin_half_damping_von_neumann(traj.bloch, bath_at(d, traj.times))
    return von_neumann_rates(traj, dx, d, traj.orders)


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
    before integrating.
    """
    rho0, h, d = model.rho0, model.h, model.d
    j = rho0.j
    method = primary_rate_method(j.two_j, d)
    times = _uniform_grid(t_max, dt)
    _check_rate_scale(model, times)
    traj = evolve(rho0, h, d, times)
    if method.needs_field:
        entropy = np.empty(times.size)
        grid = grid if grid is not None else make_grid()
        fields = _recording_entropy(husimi_chunks(traj, grid, traj.orders), entropy)
    else:
        fields = None
        entropy = wehrl_entropy_spin_half(_bloch_parts(traj.bloch)[1])
    wehrl = method.rates(traj, fields, d, times)
    field_free = [m for m in applicable_rate_methods(j.two_j, d) if not m.needs_field]
    agreement = _agreement(field_free, d, lambda m: wehrl if m is method else m.rates(traj, None, d, times))
    dx = _order_dissipation(traj.diagonals, d, times, traj.orders)
    return ScenarioResult(
        trajectory=traj,
        wehrl=wehrl,
        von_neumann=_von_neumann(traj, d, dx),
        phi_energy=_energy_flux(h, traj, dx),
        entropy=entropy,
        sigma_wehrl=_sigma_or_none(times, wehrl.pi),
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

    def series(m):
        return m.rates(traj, husimi_chunks(traj, grid, traj.orders) if m.needs_field else None, d, traj.times)

    return _agreement(methods, d, series)


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


def _cell_formats(table: np.ndarray) -> np.ndarray:
    """The cell format of each column of a 2-D table: the literal 0 for a
    column that is +0.0 in every row, which is "%.17g" % 0.0, and %.17g
    otherwise; a column holding -0.0 keeps %.17g and reads -0."""
    zero = np.all(table == 0.0, axis=0) & ~np.any(np.signbit(table), axis=0)
    return np.where(zero, "0", "%.17g").astype(object)


def _write_rows(path, header: list, formats: np.ndarray, cells: np.ndarray) -> None:
    """CSV of a header line and one row per row of cells, a 2-D float
    array: each row is the template of formats, a format per column, whose
    %.17g columns take the row's cells in order. The whole table is
    formatted in one % pass over bytes, which copies the literal text
    between formats in blocks (a str template is scanned character by
    character, and most of a spin-J dump's template is literal 0 cells)."""
    row = (",".join(formats) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write((row * len(cells)) % tuple(cells.ravel().tolist()))


def write_csv(path, header: list, table) -> None:
    """A table (2-D, or 1-D as one column) as CSV under a header line, each
    cell at %.17g, so at full double precision; divergences appear as
    literal inf tokens. A column that is +0.0 in every row is written as
    the literal 0, without formatting its cells (see _cell_formats)."""
    table = np.asarray(table, dtype=float)
    if table.ndim == 1:
        table = table[:, None]
    formats = _cell_formats(table)
    _write_rows(path, header, formats, table[:, formats != "0"])


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
