"""The exact propagators of dynamics.evolve against oracles made apart from
them: adaptive RK45 (tests/rk45.py), scipy's matrix exponential, the
spin-1/2 Bloch equations and the scenarios' closed forms."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm

import spinwehrl
from spinwehrl import (
    BathParams,
    DissipatorSpec,
    HamiltonianSpec,
    NonMarkovianRate,
    PulseParams,
    SpinQuantumNumber,
    StiffnessFailure,
    UnsupportedParameters,
    BlochVector,
    bloch_to_rho,
    evolve,
    gibbs_state,
    nbar_from_temperature,
    pulse_amplitude,
)
from spinwehrl.cli import bundled_configs, validate_config
from spinwehrl import dynamics
from spinwehrl.dynamics import _damping_blocks, expm
from spinwehrl.scenarios import _uniform_grid, photon_pulse_model, quench_tau_z
from conftest import random_density_matrix, random_diagonal_state
from oracles import amplitude_damping_dissipator, dense_dissipator, temperature_from_nbar
from rk45 import evolve_rk45


def liouvillian_blocks() -> list:
    """Generators evolve exponentiates: damping blocks of several coherence
    orders with their Hamiltonian and dephasing phases, and the 4x4
    co-rotating generators of both bundled rotating-field configs."""
    j = SpinQuantumNumber(40)
    blocks = []
    for k in (0, 3, 20):
        a = _damping_blocks(j, 0.5, [k])[0].astype(complex)
        a[np.arange(j.dim - k), np.arange(j.dim - k)] += 1j * k * 1.3 - 0.5 * 0.4 * k * k
        blocks.append(a)
    blocks.append(_damping_blocks(SpinQuantumNumber(1), 0.0, [0])[0])
    for name in ROTATING_FIELD_CONFIGS:
        model = rotating_field_model(name)
        blocks.append(dense_rotating_generator(model.h, model.d))
    return blocks


ROTATING_FIELD_CONFIGS = ("rotating_field_damping.json", "rotating_field_dephasing.json")


def rotating_field_model(name: str):
    return validate_config(json.loads(bundled_configs()[name].read_text())).model


def dense_rotating_generator(h: HamiltonianSpec, d: DissipatorSpec) -> np.ndarray:
    """The 4x4 co-rotating generator of a spin-1/2 rotating field h with
    the dissipator d, one basis matrix at a time, with the dense dissipators."""
    ops = spinwehrl.make_spin_operators(SpinQuantumNumber(1))
    hf = -(h.b0 + h.drive_omega) * ops.jz - h.b1 * ops.jx
    basis = np.eye(4).reshape(4, 2, 2)
    return np.array([(-1j * (hf @ e - e @ hf) + dense_dissipator(e, d, 0.0)).ravel() for e in basis]).T


class TestExpm:
    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3])
    def test_matches_scipy(self, norm):
        for a in liouvillian_blocks():
            a = a * (norm / np.abs(a).sum(axis=0).max())
            ref = scipy_expm(a)
            assert np.max(np.abs(expm(a) - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_stack_matches_each_matrix(self, rng):
        a = rng.normal(size=(5, 6, 6)) * np.array([1e-3, 0.1, 1.0, 10.0, 30.0])[:, None, None]
        stacked = expm(a)
        for ak, rk in zip(a, stacked):
            assert np.allclose(rk, expm(ak), rtol=1e-14, atol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_stack_squares_each_matrix_only_as_often_as_it_needs(self):
        # 2J = 4 damping blocks at weights 1e-3 ... 1e12 need from 0 to 43
        # squarings. 400 I needs 7, and its exponential e^400 I overflows if
        # it is squared once more.
        blocks = _damping_blocks(SpinQuantumNumber(4), 0.5, [0, 1, 2, 3, 4])
        a = (np.logspace(-3, 12, 16)[:, None, None, None] * blocks).reshape(-1, 5, 5)
        a = np.concatenate([a, [400.0 * np.eye(5)]])
        stacked = expm(a)
        for ak, rk in zip(a, stacked):
            assert np.array_equal(rk, expm(ak))

    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


class TestCovariantPropagator:
    def test_damping_blocks_reproduce_the_dissipator(self, rng):
        nbar = 0.7
        for two_j in (1, 4, 7):
            j = SpinQuantumNumber(two_j)
            rho = random_density_matrix(j, rng).entries
            direct = amplitude_damping_dissipator(rho, 1.0, nbar)
            orders = list(range(j.dim))
            blocks = _damping_blocks(j, nbar, orders)
            for block, k in zip(blocks, orders):
                n = j.dim - k
                lower = block[:n, :n] @ rho.diagonal(-k)
                upper = block[:n, :n] @ rho.diagonal(k)
                assert np.max(np.abs(lower - direct.diagonal(-k))) < 1e-13
                assert np.max(np.abs(upper - direct.diagonal(k))) < 1e-13

    def test_dense_large_spin_thermal_damping_matches_rk45(self, rng):
        rho0 = random_density_matrix(SpinQuantumNumber(40), rng)
        h, d = HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5)
        t_grid = np.linspace(0.0, 0.2, 11)
        exact = evolve(rho0, h, d, t_grid).entries
        oracle = evolve_rk45(rho0, h, d, t_grid, tol=1e-12).entries
        assert np.max(np.abs(exact - oracle)) < 1e-11

    def test_dephasing_matches_rk45(self, rng):
        rho0 = random_density_matrix(SpinQuantumNumber(3), rng)
        h, d = HamiltonianSpec.static_jz(0.7), DissipatorSpec.dephasing(0.8)
        t_grid = np.linspace(0.0, 4.0, 41)
        exact = evolve(rho0, h, d, t_grid).entries
        oracle = evolve_rk45(rho0, h, d, t_grid, tol=1e-12).entries
        assert np.max(np.abs(exact - oracle)) < 1e-11

    def test_non_uniform_grid_matches_rk45(self, rng):
        rho0 = random_density_matrix(SpinQuantumNumber(2), rng)
        h, d = HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.3)
        t_grid = np.cumsum(np.concatenate(([0.0], rng.uniform(0.01, 0.3, 20))))
        exact = evolve(rho0, h, d, t_grid).entries
        oracle = evolve_rk45(rho0, h, d, t_grid, tol=1e-12).entries
        assert np.max(np.abs(exact - oracle)) < 1e-11

    def test_thermal_quench_matches_closed_form(self):
        # the bundled thermal_quench.json: T0 = 2 relaxing toward T = 1
        omega, gamma = 1.0, 1.0
        nbar = nbar_from_temperature(omega, 1.0)
        rho0 = gibbs_state(SpinQuantumNumber(1), omega, 2.0)
        t_grid = _uniform_grid(12.0, 0.02)
        traj = evolve(rho0, HamiltonianSpec.static_jz(omega), DissipatorSpec.amplitude_damping(gamma, nbar), t_grid)
        up, down = rho0.populations()
        expected = quench_tau_z(t_grid, up - down, BathParams(gamma=gamma, nbar=nbar))
        assert np.max(np.abs(traj.bloch[:, 2] - expected)) <= 1e-13

    def test_photon_pulse_excitation_is_the_amplitude(self):
        # rho_ee(t) = a0^2 |a(t)/a0|^2 = |a(t)|^2, and no coherence is created
        params = PulseParams(gamma0=1.0, capital_omega=10.0, a0=1.0 / math.sqrt(2.0))
        model = photon_pulse_model(params)
        t_grid = _uniform_grid(12.0, 0.02)
        states = evolve(model.rho0, model.h, model.d, t_grid).entries
        a_abs2 = np.abs(pulse_amplitude(params, t_grid)) ** 2
        assert np.max(np.abs(states[:, 0, 0].real - a_abs2)) <= 1e-12
        assert np.all(states[:, 0, 1] == 0.0) and np.all(states[:, 1, 0] == 0.0)

    def test_negative_rate_raises(self):
        rho0 = bloch_to_rho(BlochVector(0.0, 0.0, 0.4))
        d = DissipatorSpec.time_dependent_damping(lambda t: 1.0 - t, nbar=0.0)
        with pytest.raises(NonMarkovianRate):
            evolve(rho0, HamiltonianSpec.none(), d, np.linspace(0.0, 2.0, 5))

    def test_negative_rate_between_output_times_raises(self):
        # gamma < 0 only on (0.54, 0.56): no output time, but quadrature nodes
        rho0 = bloch_to_rho(BlochVector(0.0, 0.0, 0.4))
        d = DissipatorSpec.time_dependent_damping(lambda t: (t - 0.55) ** 2 - 1e-4, nbar=0.0)
        with pytest.raises(NonMarkovianRate):
            evolve(rho0, HamiltonianSpec.none(), d, np.linspace(0.0, 1.0, 11))

    def test_trace_drift_guard_raises(self, monkeypatch):
        # a propagator that lost trace: the guard refuses its states
        exact = dynamics._covariant
        monkeypatch.setattr(dynamics, "_covariant", lambda *args: exact(*args) * (1.0 + 2e-9))
        rho0 = bloch_to_rho(BlochVector(0.3, 0.0, 0.4))
        with pytest.raises(StiffnessFailure):
            evolve(rho0, HamiltonianSpec.none(), DissipatorSpec.dephasing(1.0), np.linspace(0.0, 1.0, 11))

    def test_drifts_are_reported(self, rng):
        rho0 = random_density_matrix(SpinQuantumNumber(4), rng)
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5),
                      np.linspace(0.0, 3.0, 31))
        assert 0.0 <= traj.max_trace_drift < 1e-13
        assert 0.0 <= traj.max_hermiticity_drift < 1e-13

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e8, 1e12])
    @pytest.mark.parametrize("two_j", [1, 4])
    def test_fast_damping_reaches_the_thermal_populations(self, two_j, gamma, rng):
        # gamma dt up to 1e11 per step, where scaling and squaring alone lets
        # the population propagator's column sums drift past the trace bound
        j, nbar = SpinQuantumNumber(two_j), 0.5
        rho0 = random_density_matrix(j, rng)
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(gamma, nbar),
                      np.linspace(0.0, 1.0, 11))
        thermal = gibbs_state(j, 1.0, temperature_from_nbar(1.0, nbar)).populations()
        assert np.max(np.abs(traj.populations()[1:] - thermal)) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nbar", [0.0, 0.5, 1e3, 1e10, 1e20, 1e300])
    @pytest.mark.parametrize("two_j", [1, 4, 12, 40])
    def test_a_relaxed_step_is_the_thermal_projector(self, two_j, nbar):
        # gamma dt (2 nbar + 1) >= 1e3, past the cap on each step's damping
        # exponent: one step maps any state to the thermal one, its
        # populations to the Gibbs populations and every coherence to 0.
        j = SpinQuantumNumber(two_j)
        rho0 = random_density_matrix(j, np.random.default_rng(two_j))
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1e3, nbar),
                      np.linspace(0.0, 1.0, 3))
        thermal = gibbs_state(j, 1.0, temperature_from_nbar(1.0, nbar)).populations()
        final = traj.entries[1:]
        assert np.max(np.abs(traj.populations()[1:] - thermal)) <= 1e-14
        assert np.max(np.abs(final - final.diagonal(axis1=1, axis2=2)[:, :, None] * np.eye(j.dim))) <= 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["time_dependent_rate", "non_uniform_grid"])
    @pytest.mark.parametrize("nbar", [1e20, 1e300])
    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_a_relaxed_state_is_the_thermal_projector(self, two_j, nbar, grid):
        # Each state's own exponent, the integral of the rate from t_0 times
        # 2 nbar + 1, is far past the cap: every state after rho0 is the
        # thermal one, and the capped exponentials stay in range.
        j = SpinQuantumNumber(two_j)
        rho0 = random_density_matrix(j, np.random.default_rng(two_j))
        if grid == "time_dependent_rate":
            d = DissipatorSpec.time_dependent_damping(lambda t: 1.0 + 0.5 * np.sin(t), nbar=nbar)
            t_grid = np.linspace(0.0, 3.0, 61)
        else:
            d = DissipatorSpec.amplitude_damping(1.0, nbar)
            t_grid = np.cumsum(np.concatenate(([0.0], np.random.default_rng(7).uniform(0.01, 0.3, 30))))
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), d, t_grid)
        thermal = gibbs_state(j, 1.0, temperature_from_nbar(1.0, nbar)).populations()
        final = traj.entries[1:]
        assert traj.max_trace_drift <= 1e-12
        assert np.max(np.abs(traj.populations()[1:] - thermal)) <= 1e-12
        assert np.max(np.abs(final - final.diagonal(axis1=1, axis2=2)[:, :, None] * np.eye(j.dim))) <= 1e-12


def bloch_oracle(h: HamiltonianSpec, d: DissipatorSpec, tau0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """tau(t) from the spin-1/2 Bloch equations, integrated with DOP853:
    d tau/dt = B(t) x tau with B = -(b1 cos wt, b1 sin wt, b0), plus
    -(lambda/2) tau_perp for dephasing, or -(G/2) tau_perp - G (tau_z - tau_bar_z)
    with G = gamma (2 nbar + 1) and tau_bar_z = -1/(2 nbar + 1) for damping."""
    if d.kind == "dephasing":
        perp, rate_z, tbz = 0.5 * d.lam, 0.0, 0.0
    else:
        g = d.gamma * (2.0 * d.nbar + 1.0)
        perp, rate_z, tbz = 0.5 * g, g, -1.0 / (2.0 * d.nbar + 1.0)

    def rhs(t, tau):
        field = -np.array([h.b1 * math.cos(h.drive_omega * t), h.b1 * math.sin(h.drive_omega * t), h.b0])
        damp = np.array([perp * tau[0], perp * tau[1], rate_z * (tau[2] - tbz)])
        return np.cross(field, tau) - damp

    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), tau0, method="DOP853", t_eval=t_grid, rtol=1e-13, atol=1e-15)
    return sol.y.T


class TestRotatingFramePropagator:
    @pytest.mark.parametrize("name", ["rotating_field_damping.json", "rotating_field_dephasing.json"])
    def test_bundled_config_matches_rk45_and_bloch_equations(self, name):
        plan = validate_config(json.loads(bundled_configs()[name].read_text()))
        m = plan.model
        t_grid = _uniform_grid(plan.t_max, plan.dt)
        exact = evolve(m.rho0, m.h, m.d, t_grid)
        oracle = evolve_rk45(m.rho0, m.h, m.d, t_grid, tol=1e-12)
        assert np.max(np.abs(exact.entries - oracle.entries)) < 1e-11
        bloch = bloch_oracle(m.h, m.d, exact.bloch[0], t_grid)
        assert np.max(np.abs(exact.bloch - bloch)) < 1e-11

    @pytest.mark.parametrize("name", ROTATING_FIELD_CONFIGS)
    def test_generator_matches_the_dense_oracle(self, name):
        # One per-order D(rho) call on the basis stack, against the dense
        # dissipators one basis matrix at a time.
        model = rotating_field_model(name)
        generator = dynamics._rotating_generator(model.rho0.j, model.h, model.d)
        assert np.max(np.abs(generator - dense_rotating_generator(model.h, model.d))) <= 1e-15

    def test_time_dependent_damping_is_unsupported(self):
        rho0 = bloch_to_rho(BlochVector(1.0, 0.0, 0.0))
        h = HamiltonianSpec.rotating_field(5.0, 1.0, 1.0)
        d = DissipatorSpec.time_dependent_damping(lambda t: np.ones_like(t), nbar=0.0)
        with pytest.raises(UnsupportedParameters):
            evolve(rho0, h, d, np.linspace(0.0, 1.0, 11))


def dense_liouvillian(h: HamiltonianSpec, d: DissipatorSpec, j: SpinQuantumNumber, orders) -> tuple:
    """The dense generator -i [H, .] + D on the row-major entries (a, b) of
    rho with |a - b| in orders, one basis matrix at a time, with the dense
    dissipators, and the flat indices of those entries. A J_z-covariant
    generator keeps them among themselves, so a state on them stays there."""
    dim = j.dim
    idx = [a * dim + b for a in range(dim) for b in range(dim) if abs(a - b) in orders]
    basis = np.eye(dim * dim)[idx].reshape(-1, dim, dim)
    hm = h.matrix(j, 0.0)
    images = (-1j * (hm @ basis - basis @ hm) + dense_dissipator(basis, d, 0.0)).reshape(len(idx), -1)
    assert np.all(np.delete(images, idx, axis=1) == 0.0)
    return images[:, idx].T, idx


STEP_COUNTS = (1, 2, 3, 7, 8, 9, 600, 801)
COVARIANT_DISSIPATORS = {
    "damping_nbar_0": DissipatorSpec.amplitude_damping(1.0, 0.0),
    "damping_nbar_0.5": DissipatorSpec.amplitude_damping(1.0, 0.5),
    "dephasing": DissipatorSpec.dephasing(0.8),
}


class TestDoubling:
    """A uniform trajectory is filled by doubling from one propagator, and
    any other takes each state's exponential directly; every state against
    scipy's exp(t_n L) rho0 with the dense Liouvillian L."""

    @staticmethod
    def assert_matches_expm(rho0, h, d, t_grid):
        n = t_grid.size
        if h.kind == "rotating_field":
            # the co-rotating frame: rho(t) = U rho'(t) U^dagger, U = exp(-i w t J_z)
            generator, idx = dense_rotating_generator(h, d), list(range(4))
            m = rho0.j.m_values()
            lab = np.exp(-1j * h.drive_omega * t_grid[:, None, None] * (m[:, None] - m[None, :])).reshape(n, -1)
        else:
            orders = spinwehrl.coherence_orders(rho0.entries)
            generator, idx = dense_liouvillian(h, d, rho0.j, orders)
            if orders == (0,):
                # On the populations the Hamiltonian and dephasing vanish: the
                # generator is the real population block of the damping.
                assert np.all(generator.imag == 0.0)
                generator = generator.real
            lab = 1.0
        oracle = (scipy_expm(t_grid[:, None, None] * generator) @ rho0.entries.ravel()[idx]) * lab
        traj = evolve(rho0, h, d, t_grid)
        assert np.max(np.abs(traj.entries.reshape(n, -1)[:, idx] - oracle)) <= 1e-13

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    @pytest.mark.parametrize("dissipator", COVARIANT_DISSIPATORS)
    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_diagonal_states(self, two_j, dissipator, steps):
        j = SpinQuantumNumber(two_j)
        rho0 = random_diagonal_state(j, np.random.default_rng(two_j))
        self.assert_matches_expm(rho0, HamiltonianSpec.static_jz(1.3), COVARIANT_DISSIPATORS[dissipator],
                                 np.linspace(0.0, 2.0, steps + 1))

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    @pytest.mark.parametrize("dissipator", COVARIANT_DISSIPATORS)
    def test_coherent_state(self, dissipator, steps):
        rho0 = random_density_matrix(SpinQuantumNumber(4), np.random.default_rng(4))
        self.assert_matches_expm(rho0, HamiltonianSpec.static_jz(1.3), COVARIANT_DISSIPATORS[dissipator],
                                 np.linspace(0.0, 2.0, steps + 1))

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    @pytest.mark.parametrize("name", ROTATING_FIELD_CONFIGS)
    def test_rotating_field(self, name, steps):
        model = rotating_field_model(name)
        self.assert_matches_expm(model.rho0, model.h, model.d, np.linspace(0.0, 2.0, steps + 1))

    @pytest.mark.parametrize("name", ["damping_nbar_0.5", "dephasing", *ROTATING_FIELD_CONFIGS])
    def test_non_uniform_grid_steps(self, name):
        # each state's exponent is taken directly, from t_0
        t_grid = np.cumsum(np.concatenate(([0.0], np.random.default_rng(7).uniform(0.01, 0.3, 30))))
        if name in ROTATING_FIELD_CONFIGS:
            model = rotating_field_model(name)
            rho0, h, d = model.rho0, model.h, model.d
        else:
            rho0 = random_density_matrix(SpinQuantumNumber(4), np.random.default_rng(5))
            h, d = HamiltonianSpec.static_jz(1.3), COVARIANT_DISSIPATORS[name]
        self.assert_matches_expm(rho0, h, d, t_grid)

    def test_time_dependent_rate_steps(self):
        # gamma(t) D_1 at different times commute with each other and with
        # -i omega [J_z, .], so rho(t) = exp(-i omega t [J_z, .] + G(t) D_1) rho0
        # with G(t) = t + (1 - cos t)/2, the integral of gamma(t) = 1 + sin(t)/2.
        rho0 = random_density_matrix(SpinQuantumNumber(4), np.random.default_rng(6))
        h, nbar = HamiltonianSpec.static_jz(1.3), 0.5
        d = DissipatorSpec.time_dependent_damping(lambda t: 1.0 + 0.5 * np.sin(t), nbar=nbar)
        t_grid = np.linspace(0.0, 3.0, 61)
        traj = evolve(rho0, h, d, t_grid)
        hamiltonian, idx = dense_liouvillian(h, DissipatorSpec.dephasing(0.0), rho0.j, range(rho0.dim))
        damping, _ = dense_liouvillian(HamiltonianSpec.none(), DissipatorSpec.amplitude_damping(1.0, nbar), rho0.j,
                                       range(rho0.dim))
        integral = t_grid + 0.5 * (1.0 - np.cos(t_grid))
        generators = t_grid[:, None, None] * hamiltonian + integral[:, None, None] * damping
        oracle = scipy_expm(generators) @ rho0.entries.ravel()
        assert np.max(np.abs(traj.entries.reshape(t_grid.size, -1) - oracle)) <= 1e-13

    def test_long_coherent_run_keeps_the_trace(self):
        # every power of the propagator is renormalized, not only the first
        rho0 = random_density_matrix(SpinQuantumNumber(4), np.random.default_rng(8))
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 2.0),
                      np.linspace(0.0, 10.0, 5001))
        assert traj.max_trace_drift <= 1e-15

    @pytest.mark.parametrize("case, shapes", [("damping_nbar_0.5", [(5, 5, 5)]), ("dephasing", []),
                                              ("rotating_field_damping.json", [(4, 4)])])
    def test_one_exponential_per_uniform_trajectory(self, case, shapes, monkeypatch):
        # one exponential of the generator (per order), not a stack of steps
        calls = []
        monkeypatch.setattr(dynamics, "expm", lambda a: calls.append(a) or expm(a))
        if case in ROTATING_FIELD_CONFIGS:
            model = rotating_field_model(case)
            rho0, h, d = model.rho0, model.h, model.d
        else:
            rho0 = random_density_matrix(SpinQuantumNumber(4), np.random.default_rng(9))
            h, d = HamiltonianSpec.static_jz(1.0), COVARIANT_DISSIPATORS[case]
        evolve(rho0, h, d, np.linspace(0.0, 12.0, 601))
        assert [a.shape for a in calls] == shapes

    @pytest.mark.parametrize("name, shape", [("photon_pulse.json", (600, 1, 2, 2)),
                                             ("rotating_field_damping.json", (30, 4, 4))])
    def test_one_batched_exponential_per_non_uniform_trajectory(self, name, shape, monkeypatch):
        # photon_pulse's time-dependent rate and a 30-step non-uniform grid:
        # one exponential of a stack, each state's exponent taken from t_0
        # (the integral of the rate, or the elapsed time), not one per step.
        calls = []
        monkeypatch.setattr(dynamics, "expm", lambda a: calls.append(a) or expm(a))
        cfg = json.loads(bundled_configs()[name].read_text())
        plan = validate_config(cfg)
        model = plan.model
        if name == "photon_pulse.json":
            t_grid = _uniform_grid(plan.t_max, plan.dt)
            params = PulseParams(gamma0=cfg["gamma0"], capital_omega=cfg["bandwidth"], a0=cfg["a0"])
            # Gamma_t = -2 a'/a, so its integral from 0 is -2 ln(a(t) / a0).
            integral = -2.0 * np.log(pulse_amplitude(params, t_grid[1:]) / params.a0)
            expected = integral[:, None, None, None] * _damping_blocks(model.rho0.j, 0.0, [0])
        else:
            t_grid = np.cumsum(np.concatenate(([0.0], np.random.default_rng(7).uniform(0.01, 0.3, 30))))
            expected = (t_grid[1:] - t_grid[0])[:, None, None] * dense_rotating_generator(model.h, model.d)
        evolve(model.rho0, model.h, model.d, t_grid)
        assert [a.shape for a in calls] == [shape]
        assert np.max(np.abs(calls[0] - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestRK45Oracle:
    def test_tolerance_convergence(self):
        # halving-type study: loosening tol by 1e3 should cost accuracy
        omega, gamma, nbar = 1.0, 1.0, 0.5
        j = SpinQuantumNumber(1)
        rho0 = gibbs_state(j, omega, 2.0)
        tbz = -1.0 / (2 * nbar + 1)
        up, down = rho0.populations()
        tz0 = up - down
        t_grid = np.linspace(0, 4, 41)
        errs = []
        for tol in (1e-5, 1e-8, 1e-11):
            traj = evolve_rk45(rho0, HamiltonianSpec.static_jz(omega),
                               DissipatorSpec.amplitude_damping(gamma, nbar), t_grid, tol=tol)
            tz = traj.bloch[:, 2]
            expected = tbz + np.exp(-gamma * t_grid / abs(tbz)) * (tz0 - tbz)
            errs.append(np.max(np.abs(tz - expected)))
        assert errs[1] < errs[0] / 5
        assert errs[2] < errs[1] / 5


class TestRuntimeImports:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(spinwehrl.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import spinwehrl.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"
