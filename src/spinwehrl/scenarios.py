"""End-to-end applications: spontaneous emission, thermal quench, driven
spin in a rotating field, and a two-level atom hit by a single-photon pulse.

Every scenario is a Model (initial state, Hamiltonian, dissipator, and a
hook adding the scenario's own scalars and extras) run through one
pipeline, simulate: evolve the master equation on a uniform output grid,
then reduce each state to Wehrl and von Neumann rates with the primary
method of the entropy_rates registry. compare instead cross-checks every
method that applies. Outputs are deterministic for fixed inputs (fixed
integrator tolerances and quadrature grids).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .dynamics import DissipatorSpec, HamiltonianSpec, Trajectory, evolve, lindblad_rhs
from .entropy_rates import (
    BathParams,
    EntropyRates,
    applicable_rate_methods,
    bath_at,
    coherence_bracket,
    integrate_rate_series,
    max_relative_deviation,
    primary_rate_method,
    rate_pairs,
    spin_half_damping_von_neumann,
    spin_half_dephasing_von_neumann,
    von_neumann_rates,
)
from .errors import AmplitudeUnderflow, NonMarkovianRegime, NonPhysicalState, NothingToCompare
from .phase_space import SphereGrid, husimi_fields, make_grid, wehrl_entropy, wehrl_entropy_spin_half
from .spin_ops import (
    BlochVector,
    DensityMatrix,
    SpinQuantumNumber,
    bloch_to_rho,
    gibbs_state,
    nbar_from_temperature,
)

SIGMA_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class Model:
    """What a scenario integrates. finish, if given, maps the finished
    result to the scenario's own (scalars, extras)."""

    rho0: DensityMatrix
    h: HamiltonianSpec
    d: DissipatorSpec
    finish: Optional[Callable[[ScenarioResult], tuple]] = None


@dataclass(frozen=True)
class ScenarioResult:
    """Trajectory plus rate series and summary scalars for one scenario,
    and the model it came from."""

    trajectory: Trajectory
    wehrl: list
    von_neumann: list
    entropy: np.ndarray
    bloch: Optional[np.ndarray]
    scalars: dict
    extras: dict
    model: Model

    @property
    def times(self) -> np.ndarray:
        return self.trajectory.times

    def series(self, name: str) -> np.ndarray:
        """Extract a rate field ('pi', 'phi', 'ds_dt', 'phi_energy') as arrays."""
        method, _, field = name.partition(".")
        bundles = {"wehrl": self.wehrl, "von_neumann": self.von_neumann}[method]
        return np.array([getattr(r, field) for r in bundles])


def _uniform_grid(t_max: float, dt: float) -> np.ndarray:
    n = int(round(t_max / dt))
    if n < 2:
        raise ValueError("t_max/dt must give at least two output steps")
    return np.linspace(0.0, t_max, n + 1)


def _sigma_or_none(times, pi_values) -> Optional[float]:
    pi_values = np.asarray(pi_values, dtype=float)
    if not np.all(np.isfinite(pi_values)) or abs(pi_values[-1]) >= SIGMA_TAIL_TOL:
        return None
    return integrate_rate_series(times, pi_values, SIGMA_TAIL_TOL)


def _von_neumann(
    state: DensityMatrix, b: Optional[BlochVector], t: float, h: HamiltonianSpec, d: DissipatorSpec
) -> EntropyRates:
    """Closed forms for spin 1/2 (b is the state's Bloch vector), the
    eigendecomposition route for thermal damping against a static J_z
    Hamiltonian, NaN otherwise."""
    if b is not None:
        if d.kind == "dephasing":
            return spin_half_dephasing_von_neumann(b, d.lam)
        return spin_half_damping_von_neumann(b, bath_at(d, t), omega=0.0)
    if d.kind == "amplitude_damping" and h.kind == "static_jz":
        rd = lindblad_rhs(state.entries, t, h, d)
        return von_neumann_rates(state, rd, bath_at(d, t), h.omega)
    return EntropyRates(math.nan, math.nan, math.nan, 0.0, method="von_neumann")


def simulate(
    model: Model,
    t_max: float,
    dt: float,
    grid: Optional[SphereGrid] = None,
    tol: float = 1e-10,
) -> ScenarioResult:
    """Evolve a model and reduce each state to rates: the one pipeline
    behind every scenario and the CLI's run and sweep.

    The registry's primary method gives the Wehrl rates. The Wehrl
    entropy is in closed form for spin 1/2, otherwise on the grid. Husimi
    fields are built, once per state and on grid (by default make_grid()),
    only where a rate or the entropy needs them.
    """
    rho0, h, d = model.rho0, model.h, model.d
    j = rho0.j
    method = primary_rate_method(j.two_j, d)
    traj = evolve(rho0, h, d, _uniform_grid(t_max, dt), tol)
    bloch = traj.bloch_series() if j.two_j == 1 else None
    if method.needs_field or bloch is None:
        fields = husimi_fields(traj.states, grid if grid is not None else make_grid())
    else:
        fields = itertools.repeat(None)
    entropy = np.empty(traj.times.size)
    wehrl = []
    von_neumann = []
    for k, (t, state, q) in enumerate(zip(traj.times, traj.states, fields)):
        entropy[k] = wehrl_entropy(q) if bloch is None else wehrl_entropy_spin_half(math.hypot(*bloch[k]))
        fe = float(-np.trace(h.matrix(j, t) @ d.apply(state.entries, t)).real)
        wehrl.append(replace(method.rates(state, q, d, t), phi_energy=fe))
        bv = None if bloch is None else BlochVector(*bloch[k])
        von_neumann.append(replace(_von_neumann(state, bv, t, h, d), phi_energy=fe))
    result = ScenarioResult(
        trajectory=traj,
        wehrl=wehrl,
        von_neumann=von_neumann,
        entropy=entropy,
        bloch=bloch,
        scalars={"sigma_wehrl": _sigma_or_none(traj.times, [r.pi for r in wehrl])},
        extras={},
        model=model,
    )
    if model.finish is None:
        return result
    scalars, extras = model.finish(result)
    return replace(result, scalars={**result.scalars, **scalars}, extras=extras)


def cross_check(
    d: DissipatorSpec, traj: Trajectory, methods: list, grid: Optional[SphereGrid] = None
) -> dict:
    """Maximum relative deviation along traj of each check in
    rate_pairs(methods, d), by label. Each state's Husimi field is built
    once, on grid, if a method needs one; no state is visited when there is
    no check."""
    pairs = rate_pairs(methods, d)
    if not pairs:
        return {}
    rates = {m.name: [] for m in methods}
    if any(m.needs_field for m in methods):
        fields = husimi_fields(traj.states, grid)
    else:
        fields = itertools.repeat(None)
    for t, state, q in zip(traj.times, traj.states, fields):
        for m in methods:
            rates[m.name].append(m.rates(state, q, d, t))
    return {
        label: max_relative_deviation(
            [getattr(r, quantity) for r in rates[a.name]],
            [getattr(r, quantity) for r in rates[b.name]],
        )
        for label, quantity, a, b in pairs
    }


def compare(model: Model, t_max: float, dt: float, grid: SphereGrid, tol: float = 1e-10) -> dict:
    """Integrate once and cross-check every rate method that applies (see
    cross_check). Raises NothingToCompare, before integrating, when no two
    of them give a common quantity."""
    methods = applicable_rate_methods(model.rho0.j.two_j, model.d)
    if not rate_pairs(methods, model.d):
        names = ", ".join(m.name for m in methods) or "none"
        raise NothingToCompare(
            f"fewer than two rate methods apply to 2J = {model.rho0.j.two_j}, {model.d.kind}, "
            f"nbar = {model.d.nbar:g}: {names}"
        )
    traj = evolve(model.rho0, model.h, model.d, _uniform_grid(t_max, dt), tol)
    return cross_check(model.d, traj, methods, grid)


def spontaneous_emission(
    omega: float,
    gamma: float,
    temperature: float,
    t_max: float,
    dt: float,
    grid: Optional[SphereGrid] = None,
    tol: float = 1e-10,
) -> ScenarioResult:
    """Decay of the excited state |z+> under the thermal damping bath."""
    return simulate(spontaneous_emission_model(omega, gamma, temperature), t_max, dt, grid, tol)


def spontaneous_emission_model(omega: float, gamma: float, temperature: float) -> Model:
    """The Model that spontaneous_emission integrates. Raises
    InvalidFrequency for omega <= 0, the level splitting of the bath."""
    nbar = nbar_from_temperature(omega, temperature)
    return Model(
        bloch_to_rho(BlochVector(0.0, 0.0, 1.0)),
        HamiltonianSpec.static_jz(omega),
        DissipatorSpec.amplitude_damping(gamma, nbar),
        lambda result: ({"temperature": temperature, "nbar": nbar}, {}),
    )


def quench_tau_z(t: np.ndarray, tau_z0: float, bath: BathParams) -> np.ndarray:
    """Relaxation law tau_z(t) = tau_bar_z + exp(-gamma t/|tau_bar_z|) (tau_z(0) - tau_bar_z)."""
    tbz = bath.tau_bar_z
    return tbz + np.exp(-bath.gamma * np.asarray(t) / abs(tbz)) * (tau_z0 - tbz)


def thermal_quench(
    t0_temperature: float,
    bath_temperature: float,
    omega: float,
    gamma: float,
    t_max: float,
    dt: float = 0.01,
    grid: Optional[SphereGrid] = None,
    tol: float = 1e-10,
) -> ScenarioResult:
    """Gibbs state prepared at T0 relaxing toward the bath at temperature T.

    The evolved state remains thermal with a time-dependent temperature;
    the closed-form tau_z(t) is attached under extras["tau_z_closed_form"].
    """
    model = thermal_quench_model(t0_temperature, bath_temperature, omega, gamma)
    return simulate(model, t_max, dt, grid, tol)


def thermal_quench_model(t0_temperature: float, bath_temperature: float, omega: float, gamma: float) -> Model:
    """The Model that thermal_quench integrates. Raises InvalidFrequency
    for omega <= 0, the level splitting of the bath."""
    nbar = nbar_from_temperature(omega, bath_temperature)
    bath = BathParams(gamma=gamma, nbar=nbar)

    def finish(result: ScenarioResult) -> tuple:
        return {"nbar": nbar}, {"tau_z_closed_form": quench_tau_z(result.times, result.bloch[0, 2], bath)}

    return Model(
        gibbs_state(SpinQuantumNumber(1), omega, t0_temperature),
        HamiltonianSpec.static_jz(omega),
        DissipatorSpec.amplitude_damping(gamma, nbar),
        finish,
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


def rotating_field(
    b0: float,
    b1: float,
    drive_omega: float,
    dissipator: DissipatorSpec,
    initial_state: DensityMatrix,
    t_max: float,
    dt: float = 0.01,
    grid: Optional[SphereGrid] = None,
    tol: float = 1e-10,
) -> ScenarioResult:
    """Spin 1/2 driven by a rotating transverse field, with dephasing or
    damping. Energy flux is reported as -tr(H(t) D(rho)) for the
    instantaneous Hamiltonian."""
    model = rotating_field_model(b0, b1, drive_omega, dissipator, initial_state)
    return simulate(model, t_max, dt, grid, tol)


def rotating_field_model(
    b0: float, b1: float, drive_omega: float, dissipator: DissipatorSpec, initial_state: DensityMatrix
) -> Model:
    """The Model that rotating_field integrates."""
    if initial_state.j.two_j != 1:
        raise NonPhysicalState("rotating_field scenario is defined for spin 1/2")

    def finish(result: ScenarioResult) -> tuple:
        scalars = {}
        if dissipator.kind == "amplitude_damping":
            bath = BathParams(gamma=dissipator.gamma, nbar=dissipator.nbar)
            scalars["steady_state"] = rotating_field_steady_state(b0, b1, drive_omega, bath)
            scalars["pi_wehrl_final"] = result.wehrl[-1].pi
            scalars["phi_wehrl_final"] = result.wehrl[-1].phi
        return scalars, {"phi_energy_direct": result.series("wehrl.phi_energy")}

    return Model(initial_state, HamiltonianSpec.rotating_field(b0, b1, drive_omega), dissipator, finish)


# ---------------------------------------------------------------------------
# Single-photon pulse.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PulseParams:
    """Exponentially decaying single-photon pulse hitting a two-level atom.

    gamma0 is the free-space decay rate, capital_omega the pulse bandwidth,
    a0 the initial excited amplitude; omega0/omega_p are the atomic and
    pulse centre frequencies (resonant by default).
    """

    gamma0: float
    capital_omega: float
    a0: float
    omega0: float = 0.0
    omega_p: float = 0.0

    def __post_init__(self):
        if self.gamma0 <= 0 or self.capital_omega <= self.gamma0:
            raise NonPhysicalState("requires capital_omega > gamma0 > 0")
        if not 0.0 < self.a0 <= 1.0:
            raise NonPhysicalState("requires 0 < a0 <= 1")

    @property
    def detuning(self) -> float:
        return self.omega0 - self.omega_p

    @property
    def normalization(self) -> float:
        """Pulse norm N = sqrt(1 - a0^2)."""
        return math.sqrt(max(1.0 - self.a0 * self.a0, 0.0))


def markov_threshold(params: PulseParams) -> float:
    """Smallest a0 keeping the effective decay rate non-negative:
    a0 >= sqrt(delta/(1+delta)) with delta = 4 r / (1 - r)^2, r = bandwidth ratio."""
    r = params.capital_omega / params.gamma0
    delta = 4.0 * r / (1.0 - r) ** 2
    return math.sqrt(delta / (1.0 + delta))


def is_markovian(params: PulseParams) -> bool:
    return params.a0 >= markov_threshold(params) - 1e-12


def pulse_xi(params: PulseParams, t):
    """Pulse wave function: N sqrt(Omega) exp(-Omega t / 2) for t >= 0."""
    t = np.asarray(t, dtype=float)
    xi = params.normalization * math.sqrt(params.capital_omega) * np.exp(-0.5 * params.capital_omega * t)
    return np.where(t >= 0.0, xi, 0.0)


def pulse_amplitude(params: PulseParams, t):
    """Excited-state amplitude a(t) for the exponential pulse, t >= 0.

    Closed form of the retarded integral: with kappa = (gamma0 - Omega)/2
    + i (omega0 - omega_p),

        a(t) = e^{-gamma0 t/2} [a0 - sqrt(gamma0 Omega) N (e^{kappa t} - 1)/kappa].
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("pulse amplitude is defined for t >= 0")
    g0 = params.gamma0
    om = params.capital_omega
    kappa = 0.5 * (g0 - om) + 1j * params.detuning
    if abs(kappa) < 1e-14:
        integral = t.astype(complex)
    else:
        integral = (np.exp(kappa * t) - 1.0) / kappa
    amp = np.exp(-0.5 * g0 * t) * (params.a0 - math.sqrt(g0 * om) * params.normalization * integral)
    return amp if amp.ndim else complex(amp)


def pulse_amplitude_derivative(params: PulseParams, t):
    """da/dt = -(gamma0/2) a - sqrt(gamma0) xi(t) e^{i(omega0 - omega_p)t}."""
    t = np.asarray(t, dtype=float)
    a = pulse_amplitude(params, t)
    drive = math.sqrt(params.gamma0) * pulse_xi(params, t) * np.exp(1j * params.detuning * t)
    out = -0.5 * params.gamma0 * a - drive
    return out if out.ndim else complex(out)


def pulse_effective_rates(params: PulseParams, t):
    """(Gamma_t, omega_t) from the logarithmic derivative of a(t):
    Gamma_t = -2 Re[a'/a], omega_t = -Im[a'/a]."""
    a = np.asarray(pulse_amplitude(params, t))
    if np.any(np.abs(a) < 1e-12):
        raise AmplitudeUnderflow("excited amplitude below 1e-12")
    ratio = np.asarray(pulse_amplitude_derivative(params, t)) / a
    gamma_t = -2.0 * ratio.real
    omega_t = -ratio.imag
    if gamma_t.ndim:
        return gamma_t, omega_t
    return float(gamma_t), float(omega_t)


def pulse_gamma_explicit(params: PulseParams, t):
    """Gamma_t written in terms of the pulse drive:
    gamma0 + 2 sqrt(gamma0) Re[a*(t) xi(t) e^{i(omega0-omega_p)t}] / |a(t)|^2."""
    a = np.asarray(pulse_amplitude(params, t))
    if np.any(np.abs(a) < 1e-12):
        raise AmplitudeUnderflow("excited amplitude below 1e-12")
    drive = pulse_xi(params, t) * np.exp(1j * params.detuning * np.asarray(t, dtype=float))
    out = params.gamma0 + 2.0 * math.sqrt(params.gamma0) * (np.conj(a) * drive).real / np.abs(a) ** 2
    return out if out.ndim else float(out)


def photon_pulse_scenario(
    params: PulseParams,
    t_max: float,
    dt: float,
    grid: Optional[SphereGrid] = None,
    tol: float = 1e-10,
) -> ScenarioResult:
    """Master-equation evolution with the time-dependent decay rate Gamma_t.

    The bath is at zero temperature (tau_bar_z = -1); Wehrl rates use the
    spin-1/2 closed forms with gamma -> Gamma_t, so the flux reduces to
    Phi(t) = (Gamma_t/2)(1 + tau_z(t)).
    """
    return simulate(photon_pulse_model(params), t_max, dt, grid, tol)


def photon_pulse_model(params: PulseParams) -> Model:
    """The Model that photon_pulse_scenario integrates."""
    if not is_markovian(params):
        raise NonMarkovianRegime(
            f"a0 = {params.a0} below the threshold {markov_threshold(params):.6f}"
        )

    # evolve asks for each rate on an array of quadrature nodes; each
    # state's dissipator, energy flux and rate methods ask for both rates at
    # one t in turn.
    @functools.lru_cache(maxsize=1)
    def rates_at_time(t: float) -> tuple:
        return pulse_effective_rates(params, t)

    def rates_at(t) -> tuple:
        return rates_at_time(t) if isinstance(t, float) else pulse_effective_rates(params, t)

    def gamma_t(t):
        return rates_at(t)[0]

    def omega_t(t):
        return rates_at(t)[1]

    def finish(result: ScenarioResult) -> tuple:
        scalars = {"markovian": True, "markov_threshold": markov_threshold(params)}
        a_abs2 = np.abs(np.asarray(pulse_amplitude(params, result.times))) ** 2
        return scalars, {"gamma_t": gamma_t(result.times), "a_abs2": a_abs2}

    p_exc = params.a0 ** 2
    rho0 = DensityMatrix(
        SpinQuantumNumber(1), np.diag([p_exc, 1.0 - p_exc]).astype(complex)
    )
    return Model(
        rho0,
        HamiltonianSpec.pulse_effective(omega_t),
        DissipatorSpec.time_dependent_damping(gamma_t, nbar=0.0),
        finish,
    )


# ---------------------------------------------------------------------------
# Generic (any-J) scenario used by the CLI's "custom" mode.
# ---------------------------------------------------------------------------


def custom_scenario(
    rho0: DensityMatrix,
    h: HamiltonianSpec,
    d: DissipatorSpec,
    t_max: float,
    dt: float,
    grid: Optional[SphereGrid] = None,
    tol: float = 1e-10,
) -> ScenarioResult:
    """Evolve an arbitrary configuration and compute Wehrl rate series.

    Spin-1/2 runs use the closed forms (exact for any state, including the
    nbar = 0 boundary where the production quadrature is not certified);
    larger spins use the quadrature route. Von Neumann rates use the
    closed forms for spin 1/2 and the eigendecomposition route when the
    dissipator is thermal damping against a static J_z Hamiltonian. See
    simulate for the grid.
    """
    return simulate(Model(rho0, h, d), t_max, dt, grid, tol)


def write_csv(path, header: list, table) -> None:
    """A table as CSV under a header line, at full double precision;
    divergences appear as literal inf tokens."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_scenario_csv(result: ScenarioResult, path) -> None:
    """CSV with columns t, tau_x, tau_y, tau_z, S_wehrl, Pi_wehrl, Phi_wehrl,
    Pi_vN, Phi_vN, Phi_E and, for pulse runs, gamma_t (see write_csv)."""
    cols = ["t", "tau_x", "tau_y", "tau_z", "S_wehrl", "Pi_wehrl", "Phi_wehrl", "Pi_vN", "Phi_vN", "Phi_E"]
    bloch = result.bloch if result.bloch is not None else np.full((result.times.size, 3), math.nan)
    table = [result.times, *bloch.T, result.entropy]
    rates = ("wehrl.pi", "wehrl.phi", "von_neumann.pi", "von_neumann.phi", "wehrl.phi_energy")
    table += [result.series(name) for name in rates]
    if "gamma_t" in result.extras:
        cols.append("gamma_t")
        table.append(result.extras["gamma_t"])
    write_csv(path, cols, np.column_stack(table))
