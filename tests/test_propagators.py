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
    amplitude_damping_dissipator,
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
from conftest import random_density_matrix
from oracles import temperature_from_nbar
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
    for name in ("rotating_field_damping.json", "rotating_field_dephasing.json"):
        model = validate_config(json.loads(bundled_configs()[name].read_text())).model
        h, d = model.h, model.d
        ops = spinwehrl.make_spin_operators(SpinQuantumNumber(1))
        hf = -(h.b0 + h.drive_omega) * ops.jz - h.b1 * ops.jx
        basis = np.eye(4).reshape(4, 2, 2)
        blocks.append(np.array([(-1j * (hf @ e - e @ hf) + d.apply(e, 0.0)).ravel() for e in basis]).T)
    return blocks


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

    def test_time_dependent_damping_is_unsupported(self):
        rho0 = bloch_to_rho(BlochVector(1.0, 0.0, 0.0))
        h = HamiltonianSpec.rotating_field(5.0, 1.0, 1.0)
        d = DissipatorSpec.time_dependent_damping(lambda t: np.ones_like(t), nbar=0.0)
        with pytest.raises(UnsupportedParameters):
            evolve(rho0, h, d, np.linspace(0.0, 1.0, 11))


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
