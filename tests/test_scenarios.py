import functools
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.linalg import expm as scipy_expm
from scipy.linalg import logm

from spinwehrl import (
    BathParams,
    BlochVector,
    DissipatorSpec,
    NonMarkovianRegime,
    PulseParams,
    SpinQuantumNumber,
    DensityMatrix,
    Model,
    bloch_to_rho,
    gibbs_state,
    husimi,
    is_markovian,
    make_grid,
    markov_threshold,
    photon_pulse_model,
    pulse_amplitude,
    pulse_effective_rates,
    pulse_xi,
    rotating_field_model,
    rotating_field_steady_state,
    simulate,
    spontaneous_emission_model,
    thermal_quench_model,
    UnsupportedParameters,
    von_neumann_rates,
)
from spinwehrl import dynamics, entropy_rates, scenarios
from spinwehrl.cli import bundled_configs, validate_config
from spinwehrl.dynamics import HamiltonianSpec
from spinwehrl.entropy_rates import RATE_METHODS
from spinwehrl.errors import InvalidFrequency
from spinwehrl.phase_space import wehrl_entropy_spin_half
from spinwehrl.scenarios import compare, quench_tau_z

from conftest import random_density_matrix
from oracles import (
    dense_dissipator,
    energy_flux,
    generator_entropy_rate,
    pulse_gamma_explicit,
    pulse_sigma,
    relaxation_sigma_mpmath,
    savetxt_csv,
    temperature_from_nbar,
)


class TestSpontaneousEmission:
    def test_zero_temperature_flux_profile(self):
        # Phi(t) = (gamma/2)(1 + tau_z(t)) at T = 0
        res = simulate(spontaneous_emission_model(omega=1.0, gamma=1.0, temperature=0.0), t_max=10.0, dt=0.05)
        phi = res.wehrl.phi
        expected = 0.5 * (1.0 + res.trajectory.bloch[:, 2])
        assert np.max(np.abs(phi - expected)) < 1e-9

    def test_zero_temperature_von_neumann_flagged(self):
        res = simulate(spontaneous_emission_model(omega=1.0, gamma=1.0, temperature=0.0), t_max=5.0, dt=0.1)
        assert np.all(np.isinf(res.von_neumann.phi[:-1]))
        assert np.all(np.isfinite(res.wehrl.pi))

    def test_total_entropy_ordering_with_temperature(self):
        # colder bath produces more total entropy from the excited state
        cold = simulate(spontaneous_emission_model(1.0, 1.0, temperature=0.2), t_max=16.0, dt=0.005)
        warm = simulate(spontaneous_emission_model(1.0, 1.0, temperature=1.0), t_max=16.0, dt=0.005)
        assert cold.sigma_wehrl is not None
        assert warm.sigma_wehrl is not None
        assert cold.sigma_wehrl > warm.sigma_wehrl

    def test_hot_bath_sigma_finite_and_smallest(self):
        # tau_bar_z -> 0: relaxation is fast but the totals stay ordered in T
        hot = simulate(spontaneous_emission_model(1.0, 1.0, temperature=50.0), t_max=0.5, dt=0.0005)
        warm = simulate(spontaneous_emission_model(1.0, 1.0, temperature=1.0), t_max=16.0, dt=0.005)
        cold = simulate(spontaneous_emission_model(1.0, 1.0, temperature=0.2), t_max=16.0, dt=0.005)
        sigmas = [r.sigma_wehrl for r in (hot, warm, cold)]
        assert all(s is not None and math.isfinite(s) for s in sigmas)
        assert sigmas[0] < sigmas[1] < sigmas[2]

    @pytest.mark.parametrize("temperature, t_max, dt, sigma", [
        (1e8, 10.0, 0.1, 0.19314718222661), (10.0, 5.0, 0.02, 0.21022457869064),
    ])
    def test_sigma_of_pi_decaying_within_an_output_step(self, temperature, t_max, dt, sigma):
        # Pi decays within about one output step, which no rule over the output times resolves
        res = simulate(spontaneous_emission_model(1.0, 1.0, temperature), t_max=t_max, dt=dt)
        assert np.all(np.isfinite(res.wehrl.pi)) and abs(res.wehrl.pi[-1]) < scenarios.SIGMA_TAIL_TOL
        assert res.sigma_wehrl == pytest.approx(sigma, abs=1e-12)

    def test_sigma_resolved_on_a_finer_grid(self):
        fine = simulate(spontaneous_emission_model(1.0, 1.0, 10.0), t_max=5.0, dt=0.002)
        finer = simulate(spontaneous_emission_model(1.0, 1.0, 10.0), t_max=5.0, dt=0.0002)
        assert fine.sigma_wehrl == pytest.approx(finer.sigma_wehrl, rel=1e-12)


class TestSigma:
    """Sigma, the integral of Pi over a run, which simulate takes from the
    entropy balance at the run's two ends, against oracles that do not use
    the balance."""

    @pytest.mark.parametrize("name", ["spontaneous_emission", "thermal_quench", "photon_pulse"])
    def test_bundled_configs_meet_their_oracles(self, name):
        cfg = json.loads(bundled_configs()[f"{name}.json"].read_text())
        plan = validate_config(cfg)
        model = plan.model
        if name == "photon_pulse":
            oracle = pulse_sigma(PulseParams(cfg["gamma0"], cfg["bandwidth"], cfg["a0"]), plan.t_max)
        else:
            tau_z0 = (model.rho0.entries[0, 0] - model.rho0.entries[1, 1]).real
            oracle = relaxation_sigma_mpmath(tau_z0, model.d.gamma, model.d.nbar, plan.t_max)
        sigma = simulate(model, plan.t_max, plan.dt).sigma_wehrl
        assert sigma == pytest.approx(oracle, rel=1e-10, abs=0.0)
        assert simulate(model, plan.t_max, plan.dt / 2).sigma_wehrl == pytest.approx(sigma, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("temperature, t_max, dt", [
        (0.0, 40.0, 1.0), (0.2, 40.0, 0.5), (10.0, 5.0, 0.1), (1e8, 10.0, 1.0),
    ])
    def test_spontaneous_emission_on_coarse_grids(self, temperature, t_max, dt):
        model = spontaneous_emission_model(1.0, 1.0, temperature)
        sigma = simulate(model, t_max, dt).sigma_wehrl
        oracle = relaxation_sigma_mpmath(1.0, 1.0, model.d.nbar, t_max)
        assert sigma == pytest.approx(oracle, rel=1e-12, abs=0.0)
        if temperature == 0.0:  # from one pure state to another, with all of p(0) emitted
            assert sigma == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 1e-13, 0.5, 1e8, 1e300])
    @pytest.mark.parametrize("two_j", [1, 4, 12, 40])
    def test_flux_integral_matches_panels_in_time(self, two_j, nbar):
        # The excited state relaxes for three times 1/(2 nbar + 1) at unit
        # rate; panels graded by halves toward t = 0 follow its fastest modes.
        j = SpinQuantumNumber(two_j)
        a = dynamics._damping_blocks(j, nbar, (0,))[0]
        p0 = np.eye(j.dim)[0]
        t_max = 3.0 / (2.0 * nbar + 1.0)
        edges = t_max * np.concatenate(([0.0], 0.5 ** np.arange(12, -1, -1)))
        nodes, weights = np.polynomial.legendre.leggauss(20)
        panels = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            times = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            pops = np.array([scipy_expm(t * a) @ p0 for t in times])
            panels += 0.5 * (hi - lo) * weights @ entropy_rates.damping_phi_exact(pops, BathParams(1.0, nbar))
        p1 = scipy_expm(t_max * a) @ p0
        assert scenarios._flux_potential(two_j, nbar) @ (p1 - p0) == pytest.approx(panels, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_undamped_sigma_is_the_entropy_change(self):
        # gamma = 0 at an nbar whose unit-rate block overflows: no block is formed
        rho0 = DensityMatrix(SpinQuantumNumber(4), np.diag([0.3, 0.25, 0.2, 0.15, 0.1]).astype(complex))
        model = Model(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(0.0, 8e307))
        res = simulate(model, t_max=2.0, dt=0.5, grid=make_grid(8, 16))
        assert res.sigma_wehrl == res.entropy[-1] - res.entropy[0]

    def test_damped_drive_has_no_sigma(self):
        # Pi has decayed (to 1.9e-11), but the drive moves the populations
        # through the coherences: the balance's flux term does not hold
        res = simulate(self._rotating_damping(b1=1e-6), t_max=8.0, dt=0.01)
        assert abs(res.wehrl.pi[-1]) < scenarios.SIGMA_TAIL_TOL
        assert res.sigma_wehrl is None

    def test_undriven_rotating_field_is_the_static_run(self):
        rotating = self._rotating_damping(b1=0.0)
        static = Model(rotating.rho0, HamiltonianSpec.static_jz(-5.0), rotating.d)
        sigma = simulate(rotating, t_max=8.0, dt=0.01).sigma_wehrl
        assert sigma == pytest.approx(simulate(static, t_max=8.0, dt=0.01).sigma_wehrl, rel=1e-14, abs=0.0)

    def test_driven_dephasing_sigma_is_the_entropy_change(self):
        # A resonant drive and dephasing take the pure state to the mixed one
        state = bloch_to_rho(BlochVector(-1.0, 0.0, 0.0))
        res = simulate(rotating_field_model(1.0, 2.0, -1.0, DissipatorSpec.dephasing(1.0), state), t_max=40.0, dt=0.01)
        assert res.sigma_wehrl == res.entropy[-1] - res.entropy[0]
        assert res.sigma_wehrl == pytest.approx(math.log(2.0) - 0.5, rel=1e-12)
        # Simpson's rule on the output times, off by 5e-6 at the t ln t of Pi at the pure start
        assert res.sigma_wehrl == pytest.approx(simpson(res.wehrl.pi, x=res.times), rel=1e-4)

    @staticmethod
    def _rotating_damping(b1: float) -> Model:
        # rotating_field_damping.json with the drive amplitude b1
        d = DissipatorSpec.amplitude_damping(1.0, 1.0)
        return rotating_field_model(5.0, b1, 5.0, d, bloch_to_rho(BlochVector(1.0, 0.0, 0.0)))


class TestThermalQuench:
    def test_equal_temperatures_idle(self):
        res = simulate(thermal_quench_model(1.0, 1.0, omega=1.0, gamma=1.0), t_max=3.0, dt=0.05)
        assert np.max(np.abs(res.wehrl.pi)) < 1e-12
        assert np.max(np.abs(res.wehrl.phi)) < 1e-12

    def test_tau_z_matches_closed_form(self):
        res = simulate(thermal_quench_model(2.0, 1.0, omega=1.0, gamma=1.0), t_max=8.0, dt=0.02)
        expected = quench_tau_z(res.times, res.trajectory.bloch[0, 2], BathParams(gamma=1.0, nbar=res.model.d.nbar))
        assert np.max(np.abs(res.trajectory.bloch[:, 2] - expected)) < 1e-8

    def test_states_stay_thermal(self):
        res = simulate(thermal_quench_model(2.0, 1.0, omega=1.0, gamma=1.0), t_max=5.0, dt=0.05)
        for s in res.trajectory.entries:
            off = s - np.diag(s.diagonal())
            assert np.max(np.abs(off)) < 1e-12

    def test_balance_and_flux_sign_flip(self):
        heat = simulate(thermal_quench_model(1.0, 2.0, omega=1.0, gamma=1.0), t_max=6.0, dt=0.02)
        cool = simulate(thermal_quench_model(2.0, 1.0, omega=1.0, gamma=1.0), t_max=6.0, dt=0.02)
        for res in (heat, cool):
            ds = res.wehrl.ds_dt
            assert np.max(np.abs(ds - (res.wehrl.pi - res.wehrl.phi))) < 1e-12
        # heating: entropy flows in from the bath (Phi < 0); cooling: out
        assert np.all(heat.wehrl.phi[:-1] < 0)
        assert np.all(cool.wehrl.phi[:-1] > 0)

    def test_exponential_tail_rate(self):
        # Pi and Phi decay with rate gamma/|tau_bar_z| at late times
        omega, gamma = 1.0, 1.0
        res = simulate(thermal_quench_model(2.0, 1.0, omega=omega, gamma=gamma), t_max=10.0, dt=0.02)
        nbar = res.model.d.nbar
        rate_expected = gamma * (2 * nbar + 1)
        t = res.times
        phi = res.wehrl.phi
        mask = (t > 5.0) & (t < 9.0)
        slope = np.polyfit(t[mask], np.log(np.abs(phi[mask])), 1)[0]
        assert slope == pytest.approx(-rate_expected, rel=1e-3)


class TestRotatingField:
    def test_undriven_equilibrium_is_silent(self):
        omega, gamma = 1.0, 1.0
        nbar = 0.8
        rho0 = gibbs_state(SpinQuantumNumber(1), omega, temperature_from_nbar(omega, nbar))
        model = rotating_field_model(b0=-omega, b1=0.0, drive_omega=0.5,
                                     dissipator=DissipatorSpec.amplitude_damping(gamma, nbar), initial_state=rho0)
        res = simulate(model, t_max=4.0, dt=0.05)
        assert np.max(np.abs(res.wehrl.pi)) < 1e-10

    def test_damping_reaches_steady_state(self):
        bath = BathParams(gamma=1.0, nbar=1.0)
        ss = rotating_field_steady_state(5.0, 10.0, 5.0, bath)
        rho0 = bloch_to_rho(BlochVector(1.0, 0.0, 0.0))
        res = simulate(rotating_field_model(5.0, 10.0, 5.0, DissipatorSpec.amplitude_damping(1.0, 1.0), rho0),
                       t_max=15.0, dt=0.01)
        assert res.wehrl.pi[-1] == pytest.approx(res.wehrl.phi[-1], abs=1e-6)
        assert res.wehrl.pi[-1] == pytest.approx(ss["pi_wehrl"], rel=1e-6)
        assert res.von_neumann.pi[-1] == pytest.approx(ss["pi_vn"], rel=1e-6)
        assert res.trajectory.bloch[-1, 2] == pytest.approx(ss["tau_z"], abs=1e-9)

    def test_zero_temperature_steady_value(self):
        # gamma b1^2 / (gamma^2 + 2 b1^2 + 4 (b0 + omega)^2)
        b0, b1, w, gamma = 2.0, 3.0, 1.0, 1.0
        expected = gamma * b1**2 / (gamma**2 + 2 * b1**2 + 4 * (b0 + w) ** 2)
        bath = BathParams(gamma=gamma, nbar=0.0)
        ss = rotating_field_steady_state(b0, b1, w, bath)
        assert ss["pi_wehrl"] == pytest.approx(expected, rel=1e-12)
        assert ss["pi_vn"] == math.inf
        rho0 = bloch_to_rho(BlochVector(1.0, 0.0, 0.0))
        res = simulate(rotating_field_model(b0, b1, w, DissipatorSpec.amplitude_damping(gamma, 0.0), rho0),
                       t_max=25.0, dt=0.01)
        assert res.wehrl.pi[-1] == pytest.approx(expected, abs=1e-6)

    def test_dephasing_variant_bounded_wehrl_vs_spiking_von_neumann(self):
        # strong-detuning drive b0/l = 5, b1/l = 1, w/l = 1 from the pure |x-> state
        rho0 = bloch_to_rho(BlochVector(-1.0, 0.0, 0.0))
        res = simulate(rotating_field_model(5.0, 1.0, 1.0, DissipatorSpec.dephasing(1.0), rho0),
                       t_max=6.0, dt=0.01)
        pi_w = res.wehrl.pi
        pi_v = res.von_neumann.pi
        assert np.all(np.isfinite(pi_w))
        assert np.max(pi_w) <= 0.25 + 1e-9  # lambda/4 bound on pure states
        assert np.isinf(pi_v[0])  # starts pure
        taus = np.linalg.norm(res.trajectory.bloch, axis=1)
        assert np.all(pi_v[taus < 1 - 1e-12] >= pi_w[taus < 1 - 1e-12] - 1e-12)

    def test_unitary_part_does_not_move_wehrl_entropy(self):
        grid = make_grid(64, 128)
        rho0 = bloch_to_rho(BlochVector(0.7, 0.0, 0.2))
        h = HamiltonianSpec.rotating_field(5.0, 10.0, 5.0)
        res = simulate(rotating_field_model(5.0, 10.0, 5.0, DissipatorSpec.amplitude_damping(1.0, 1.0), rho0),
                       t_max=0.5, dt=0.05)
        for t, s in list(zip(res.times, res.trajectory.entries))[::3]:
            hm = h.matrix(res.trajectory.j, t)
            gen = -1j * (hm @ s - s @ hm)
            assert abs(generator_entropy_rate(gen, husimi(DensityMatrix(res.trajectory.j, s), grid))) < 1e-6

    def test_driven_balance_holds_with_unitary_term(self):
        # the drive is linear in the spin operators, so the full-dynamics
        # entropy still obeys dS/dt = Pi - Phi of the dissipator alone
        rho0 = bloch_to_rho(BlochVector(0.7, 0.0, 0.2))
        res = simulate(rotating_field_model(5.0, 10.0, 5.0, DissipatorSpec.amplitude_damping(1.0, 1.0), rho0),
                       t_max=1.0, dt=0.002, grid=make_grid(64, 128))
        ds_fd = np.gradient(res.entropy, res.times, edge_order=2)
        model = res.wehrl.pi - res.wehrl.phi
        assert np.max(np.abs(ds_fd[2:-2] - model[2:-2])) < 1e-4


    @pytest.mark.parametrize(
        "d",
        [
            DissipatorSpec.dephasing(0.0),
            DissipatorSpec.dephasing(1.0),
            DissipatorSpec.amplitude_damping(1.0, 0.5),
            DissipatorSpec.amplitude_damping(1.0, 0.0),
        ],
        ids=["undamped", "dephasing", "damping", "zero-T-damping"],
    )
    def test_pure_states_of_every_direction_run(self, d):
        # Unit vectors in floating point have Bloch lengths a few ulps on
        # either side of 1; each is a valid pure state, whose Wehrl rates
        # and entropy are finite.
        directions = np.random.default_rng(1).normal(size=(1000, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        h = HamiltonianSpec.rotating_field(1.0, 0.5, 0.3)
        for b in directions:
            res = simulate(Model(bloch_to_rho(BlochVector(*b)), h, d), t_max=0.02, dt=0.01)
            assert np.all(np.isfinite(res.wehrl.pi)) and np.all(np.isfinite(res.entropy))


class TestPulseAmplitude:
    PARAMS = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))

    def test_parameter_validation(self):
        from spinwehrl import NonPhysicalState

        with pytest.raises(NonPhysicalState):
            PulseParams(gamma0=1.0, capital_omega=0.5, a0=0.7)  # bandwidth <= gamma0
        with pytest.raises(NonPhysicalState):
            PulseParams(gamma0=1.0, capital_omega=10.0, a0=0.0)
        with pytest.raises(NonPhysicalState):
            PulseParams(gamma0=1.0, capital_omega=10.0, a0=1.2)

    def test_initial_value(self):
        assert pulse_amplitude(self.PARAMS, 0.0) == pytest.approx(self.PARAMS.a0)

    def test_against_quadrature_oracle(self):
        # numerical quadrature of the retarded integral, resonant case
        p = self.PARAMS
        for t in (0.1, 0.5, 1.0, 2.5, 5.0):
            val, err = quad(
                lambda u: p.normalization
                * math.sqrt(p.capital_omega)
                * math.exp(-0.5 * p.capital_omega * u)
                * math.exp(0.5 * p.gamma0 * u),
                0.0,
                t,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            oracle = p.a0 * math.exp(-0.5 * p.gamma0 * t) - math.sqrt(
                p.gamma0
            ) * math.exp(-0.5 * p.gamma0 * t) * val
            assert complex(pulse_amplitude(p, t)).real == pytest.approx(oracle, abs=1e-10)
            assert abs(complex(pulse_amplitude(p, t)).imag) < 1e-14

    def test_amplitude_bounded(self):
        t = np.linspace(0, 10, 500)
        assert np.max(np.abs(pulse_amplitude(self.PARAMS, t))) <= 1.0 + 1e-12

    def test_markovian_case_monotone_decay(self):
        t = np.linspace(0, 10, 2000)
        a2 = np.abs(pulse_amplitude(self.PARAMS, t)) ** 2
        assert np.all(np.diff(a2) < 1e-12)

    def test_non_markovian_case_revives(self):
        # below threshold the excitation dips and partially revives
        p = PulseParams(gamma0=1.0, capital_omega=4.0, a0=math.sqrt(0.5))
        assert not is_markovian(p)
        t = np.linspace(0, 6, 3000)
        a2 = np.abs(pulse_amplitude(p, t)) ** 2
        k_min = np.argmin(a2)
        assert 0 < k_min < a2.size - 1
        assert np.max(a2[k_min:]) > a2[k_min] + 1e-3

    def test_pulse_norm(self):
        # integral of |xi|^2 equals N^2 = 1 - a0^2 (adaptive-quadrature oracle)
        p = self.PARAMS
        norm, err = quad(lambda t: abs(pulse_xi(p, t)) ** 2, 0.0, 50.0, epsabs=1e-13, epsrel=1e-13)
        assert norm == pytest.approx(1 - p.a0**2, rel=1e-10)


class TestEffectiveRates:
    def test_no_pulse_reduces_to_bare_decay(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=1.0)
        t = np.linspace(0, 5, 100)
        g = pulse_effective_rates(p, t)
        assert np.max(np.abs(g - 1.0)) < 1e-12

    def test_two_expressions_agree(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        t = np.linspace(0, 8, 400)
        g1 = pulse_effective_rates(p, t)
        g2 = pulse_gamma_explicit(p, t)
        assert np.max(np.abs(g1 - g2)) < 1e-8

    def test_threshold_scan(self):
        # delta = 4 (Omega/gamma0) / (1 - Omega/gamma0)^2 classification
        p10 = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        delta = 4 * 10 / (1 - 10) ** 2
        assert markov_threshold(p10) == pytest.approx(math.sqrt(delta / (1 + delta)), rel=1e-14)
        assert markov_threshold(p10) == pytest.approx(0.5749596, abs=1e-6)
        # A bandwidth ratio of 1e300 overflows (1 - r)^2 but not the threshold.
        assert markov_threshold(PulseParams(gamma0=1e-300, capital_omega=1.0, a0=1.0)) == pytest.approx(2e-150)
        assert is_markovian(p10)
        t = np.linspace(0, 12, 2000)
        g = pulse_effective_rates(p10, t)
        assert np.min(g) > -1e-10

    def test_late_time_rate_returns_to_bare(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        g = pulse_effective_rates(p, 30.0)
        assert g == pytest.approx(1.0, abs=1e-4)

    def test_amplitude_underflow_raises(self):
        from spinwehrl import AmplitudeUnderflow

        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=1.0)
        with pytest.raises(AmplitudeUnderflow):
            pulse_effective_rates(p, 60.0)  # |a| = e^{-30} < 1e-12


class TestPhotonPulseScenario:
    def test_rejects_non_markovian_parameters(self):
        p = PulseParams(gamma0=1.0, capital_omega=4.0, a0=math.sqrt(0.5))
        with pytest.raises(NonMarkovianRegime):
            simulate(photon_pulse_model(p), t_max=5.0, dt=0.05)

    def test_population_identity(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        res = simulate(photon_pulse_model(p), t_max=10.0, dt=0.02)
        tz = res.trajectory.bloch[:, 2]
        assert np.max(np.abs(tz - (2 * np.abs(pulse_amplitude(p, res.times)) ** 2 - 1))) < 1e-6

    def test_flux_identity(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        res = simulate(photon_pulse_model(p), t_max=10.0, dt=0.02)
        phi = res.wehrl.phi
        expected = 0.5 * res.model.d.gamma_t(res.times) * (1 + res.trajectory.bloch[:, 2])
        assert np.max(np.abs(phi - expected)) < 1e-8

    def test_reduces_to_spontaneous_emission_without_pulse(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=1.0)
        res = simulate(photon_pulse_model(p), t_max=6.0, dt=0.05)
        ref = simulate(spontaneous_emission_model(omega=1.0, gamma=1.0, temperature=0.0), t_max=6.0, dt=0.05)
        assert np.max(np.abs(res.trajectory.bloch[:, 2] - ref.trajectory.bloch[:, 2])) < 1e-8
        assert np.max(np.abs(res.wehrl.pi - ref.wehrl.pi)) < 1e-8


class TestModelBuilders:
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_bath_splitting_must_be_positive(self, omega, temperature):
        with pytest.raises(InvalidFrequency):
            spontaneous_emission_model(omega, 1.0, temperature)
        with pytest.raises(InvalidFrequency):
            thermal_quench_model(1.0, temperature, omega, 1.0)

    def test_spin_half_entropy_needs_no_grid(self, monkeypatch):
        monkeypatch.setattr(scenarios, "make_grid", lambda *args: pytest.fail("make_grid called"))
        res = simulate(thermal_quench_model(2.0, 1.0, omega=1.0, gamma=1.0), t_max=1.0, dt=0.1)
        expected = [wehrl_entropy_spin_half(math.hypot(*b)) for b in res.trajectory.bloch]
        assert np.array_equal(res.entropy, expected)


SPIN_J_DAMPING = Model(
    gibbs_state(SpinQuantumNumber(4), 1.0, 3.0), HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5)
)


class TestRateGuard:
    # A rate whose products with (2 nbar + 1) d^2 overflow is refused before
    # integrating, and warns of nothing: a constant one, and a time-dependent
    # one at its largest over the output times (here only at t = t_max).
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [
        DissipatorSpec.amplitude_damping(1e307, 0.5),
        DissipatorSpec.time_dependent_damping(lambda t: np.full(np.shape(t), 1e307), nbar=0.5),
        DissipatorSpec.time_dependent_damping(lambda t: 1e307 * np.asarray(t) ** 4, nbar=0.5),
    ], ids=["constant", "time-dependent", "rising"])
    @pytest.mark.parametrize("run", ["simulate", "compare"])
    def test_overflowing_rate_is_refused(self, d, run):
        model = Model(gibbs_state(SpinQuantumNumber(40), 1.0, 2.0), HamiltonianSpec.static_jz(1.0), d)
        with pytest.raises(UnsupportedParameters, match="the rates would overflow"):
            if run == "simulate":
                simulate(model, 1.0, 0.1)
            else:
                scenarios.compare(model, 1.0, 0.1, make_grid(8, 16))


class TestEnergyFluxGuard:
    # Phi_E = -tr(H D(rho)) scales with H as well: at omega = gamma = 1e300
    # every rate fits, but Phi_E ~ 1e600 would overflow. simulate, which
    # reports Phi_E, refuses it before integrating and warns of nothing;
    # compare, which does not, runs.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [HamiltonianSpec.static_jz(1e300), HamiltonianSpec.rotating_field(1e300, 1.0, 1.0)],
                             ids=["static_jz", "rotating_field"])
    def test_overflowing_energy_flux_is_refused(self, h):
        model = Model(bloch_to_rho(BlochVector(0.0, 0.0, 1.0)), h, DissipatorSpec.amplitude_damping(1e300, 0.0))
        with pytest.raises(UnsupportedParameters, match="the energy flux would overflow"):
            simulate(model, 1.0, 0.5)
        if h.kind == "static_jz":
            assert compare(model, 1.0, 0.5, make_grid(8, 16))

    @pytest.mark.filterwarnings("error")
    def test_a_large_flux_that_fits_runs(self):
        model = Model(bloch_to_rho(BlochVector(0.0, 0.0, 1.0)), HamiltonianSpec.static_jz(1e300),
                      DissipatorSpec.amplitude_damping(1.0, 0.0))
        result = simulate(model, 1.0, 0.5)
        assert np.all(np.isfinite(result.phi_energy)) and result.phi_energy[0] == pytest.approx(1e300)


class TestJzDiagonalMemory:
    """A J_z-diagonal run holds its populations: a 101-state 2J = 200 run
    allocates no (n, d, d) stack, each of which would take 62.3 MiB."""

    MODEL = Model(
        DensityMatrix(SpinQuantumNumber(200), np.diag(np.random.default_rng(5).dirichlet(np.ones(201))).astype(complex)),
        HamiltonianSpec.static_jz(1.0),
        DissipatorSpec.amplitude_damping(1.0, 0.5),
    )
    BOUND = 16 * 2**20  # a quarter of one dense stack

    @pytest.mark.parametrize("run", [simulate, compare], ids=["simulate", "compare"])
    def test_peak_memory(self, run):
        tracemalloc.start()
        try:
            run(self.MODEL, 2.0, 0.02, make_grid(96, 192))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.BOUND


class TestEachSeriesOnce:
    def test_dissipator_applied_to_the_trajectory_once(self, monkeypatch):
        # Once, on the trajectory's order diagonals at its times and orders;
        # evolve forms no D.
        calls = []
        original = dynamics._order_dissipation

        def wrapper(x, d, t, orders):
            calls.append((x, t, orders))
            return original(x, d, t, orders)

        monkeypatch.setattr(dynamics, "_order_dissipation", wrapper)
        monkeypatch.setattr(scenarios, "_order_dissipation", wrapper)
        monkeypatch.setattr(entropy_rates, "_order_dissipation", wrapper)
        res = simulate(SPIN_J_DAMPING, t_max=0.5, dt=0.1, grid=make_grid(24, 48))
        traj = res.trajectory
        assert len(calls) == 1
        x, t, orders = calls[0]
        assert x is traj.diagonals and t is traj.times and orders == traj.orders == (0,)

    @pytest.mark.parametrize(
        "model, labels",
        [
            (thermal_quench_model(2.0, 1.0, omega=1.0, gamma=1.0), ["phi exact-2F1 vs closed-form"]),
            (Model(bloch_to_rho(BlochVector(0.5, 0.0, 0.3)), HamiltonianSpec.none(), DissipatorSpec.dephasing(1.0)), []),
            (SPIN_J_DAMPING, []),
            (spontaneous_emission_model(omega=1.0, gamma=1.0, temperature=0.0), ["phi exact-2F1 vs closed-form"]),
            (replace(SPIN_J_DAMPING, d=DissipatorSpec.amplitude_damping(1.0, 0.0)), []),
        ],
        ids=["spin-half-damping", "spin-half-dephasing", "spin-j-damping", "spin-half-damping-T0",
             "spin-j-damping-T0"],
    )
    def test_agreement_is_the_field_free_part_of_compare(self, model, labels):
        grid = make_grid(24, 48)
        res = simulate(model, t_max=0.5, dt=0.1, grid=grid)
        field_methods = [m.name for m in RATE_METHODS.values() if m.needs_field]
        checks = scenarios.compare(model, t_max=0.5, dt=0.1, grid=grid)
        assert res.agreement == {k: v for k, v in checks.items() if not any(name in k for name in field_methods)}
        assert list(res.agreement) == labels

    @pytest.mark.parametrize("dissipator", [DissipatorSpec.dephasing(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5)],
                             ids=["dephasing", "damping"])
    def test_spin_half_bloch_array_computed_once(self, monkeypatch, dissipator):
        # The closed-form rates, the von Neumann rates and the Wehrl entropy
        # all read the trajectory's cached, read-only Bloch array.
        original = dynamics.Trajectory.bloch.func
        calls = []

        def counted(traj):
            calls.append(traj.times.size)
            return original(traj)

        cached = functools.cached_property(counted)
        cached.__set_name__(dynamics.Trajectory, "bloch")
        monkeypatch.setattr(dynamics.Trajectory, "bloch", cached)
        model = Model(bloch_to_rho(BlochVector(0.5, 0.1, 0.3)), HamiltonianSpec.static_jz(1.0), dissipator)
        res = simulate(model, t_max=0.5, dt=0.1)
        assert calls == [6]
        assert not res.trajectory.bloch.flags.writeable


class TestEnergyFlux:
    @pytest.mark.parametrize("two_j", [1, 4, 12])
    def test_phi_energy_is_the_thermal_energy_flux(self, two_j):
        # simulate's -tr(H D(rho)) against energy_flux, the closed form for H = omega J_z
        omega, bath = 0.8, BathParams(gamma=1.3, nbar=0.4)
        rho0 = random_density_matrix(SpinQuantumNumber(two_j), np.random.default_rng(two_j))
        model = Model(rho0, HamiltonianSpec.static_jz(omega), DissipatorSpec.amplitude_damping(bath.gamma, bath.nbar))
        res = simulate(model, t_max=1.0, dt=0.1, grid=make_grid(24, 48))
        expected = energy_flux(res.trajectory.entries, bath, omega)
        assert res.phi_energy.shape == res.times.shape
        assert np.max(np.abs(res.phi_energy - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestVonNeumannRoute:
    # The spin-J von Neumann rates from D(rho) and the bath alone, against
    # scipy's logm: dS/dt = -tr(D(rho) ln rho), Phi = tr(D(rho) ln rho_bar).
    J = SpinQuantumNumber(4)

    def run(self, h, d, seed=4):
        rho0 = random_density_matrix(self.J, np.random.default_rng(seed))
        return simulate(Model(rho0, h, d), t_max=1.0, dt=0.1, grid=make_grid(8, 16))

    @staticmethod
    def assert_close(actual, expected, rel):
        assert np.all(np.isfinite(actual))
        assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))

    @pytest.mark.parametrize("h, d", [
        (HamiltonianSpec.none(), DissipatorSpec.amplitude_damping(1.1, 0.5)),
        (HamiltonianSpec.static_jz(0.9), DissipatorSpec.dephasing(0.7)),
        (HamiltonianSpec.none(), DissipatorSpec.amplitude_damping(1.1, 0.0)),
    ], ids=["no_hamiltonian", "dephasing", "zero_temperature"])
    def test_matches_the_logm_oracle(self, h, d):
        res = self.run(h, d)
        d_rho = dense_dissipator(res.trajectory.entries, d, res.times)
        ds = np.array([-np.trace(dr @ logm(r)).real for r, dr in zip(res.trajectory.entries, d_rho)])
        vn = res.von_neumann
        self.assert_close(vn.ds_dt, ds, 1e-12)
        if d.kind == "dephasing":
            assert np.array_equal(vn.phi, np.zeros(res.times.size)) and np.array_equal(vn.pi, vn.ds_dt)
        elif d.nbar == 0.0:  # ln rho_bar diverges off the ground state, which D(rho) drains
            assert np.all(vn.phi == math.inf) and np.all(vn.pi == math.inf)
        else:
            log_bar = logm(gibbs_state(self.J, 1.0, temperature_from_nbar(1.0, d.nbar)).entries)
            self.assert_close(vn.phi, np.trace(d_rho @ log_bar, axis1=1, axis2=2).real, 1e-12)
            self.assert_close(vn.pi, ds + vn.phi, 1e-12)

    @pytest.mark.parametrize("two_j", [4, 12, 40])
    def test_flux_is_the_energy_flux_over_temperature(self, two_j):
        omega, bath = 0.9, BathParams(gamma=1.1, nbar=0.5)
        model = Model(random_density_matrix(SpinQuantumNumber(two_j), np.random.default_rng(two_j)),
                      HamiltonianSpec.static_jz(omega), DissipatorSpec.amplitude_damping(bath.gamma, bath.nbar))
        res = simulate(model, t_max=1.0, dt=0.1, grid=make_grid(8, 16))
        expected = energy_flux(res.trajectory.entries, bath, omega) / temperature_from_nbar(omega, bath.nbar)
        self.assert_close(res.von_neumann.phi, expected, 1e-13)

    @pytest.mark.filterwarnings("error")
    def test_zero_temperature_ground_state_is_at_rest(self):
        ground = DensityMatrix(self.J, np.diag([0.0] * 4 + [1.0]).astype(complex))
        d = DissipatorSpec.amplitude_damping(1.1, 0.0)
        assert not np.any(dense_dissipator(ground.entries, d, 0.0))
        rates = von_neumann_rates(ground, d, 0.0)
        assert (rates.pi, rates.phi) == (0.0, 0.0)
        res = simulate(Model(ground, HamiltonianSpec.none(), d), t_max=1.0, dt=0.1, grid=make_grid(8, 16))
        assert np.all(res.von_neumann.pi == 0.0) and np.all(res.von_neumann.phi == 0.0)


class TestCustomScenario:
    def test_general_spin_balance(self):
        # quadrature rates close the balance dS/dt = Pi - Phi for J = 1
        j = SpinQuantumNumber(2)
        omega, gamma, nbar = 1.0, 1.0, 0.5
        rho0 = gibbs_state(j, omega, 3.0)
        grid = make_grid(64, 128)
        res = simulate(Model(rho0, HamiltonianSpec.static_jz(omega), DissipatorSpec.amplitude_damping(gamma, nbar)),
                       t_max=2.0, dt=0.01, grid=grid)
        s = res.entropy
        t = res.times
        ds_fd = np.gradient(s, t, edge_order=2)
        ds_model = res.wehrl.pi - res.wehrl.phi
        assert np.max(np.abs(ds_fd[2:-2] - ds_model[2:-2])) < 1e-4

    def test_von_neumann_general_route_present(self):
        j = SpinQuantumNumber(2)
        omega, gamma, nbar = 1.0, 1.0, 0.5
        rho0 = gibbs_state(j, omega, 3.0)
        res = simulate(Model(rho0, HamiltonianSpec.static_jz(omega), DissipatorSpec.amplitude_damping(gamma, nbar)),
                       t_max=1.0, dt=0.1, grid=make_grid(48, 96))
        pi_v = res.von_neumann.pi
        pi_w = res.wehrl.pi
        assert np.all(np.isfinite(pi_v))
        assert np.all(pi_v >= -1e-10)
        assert np.all(pi_v[:-1] >= pi_w[:-1])

    def test_deterministic_outputs(self):
        rho0 = bloch_to_rho(BlochVector(0.5, 0.0, 0.0))
        kwargs = dict(t_max=0.5, dt=0.05, grid=make_grid(48, 96))
        a = simulate(Model(rho0, HamiltonianSpec.none(), DissipatorSpec.dephasing(1.0)), **kwargs)
        b = simulate(Model(rho0, HamiltonianSpec.none(), DissipatorSpec.dephasing(1.0)), **kwargs)
        assert np.array_equal(a.entropy, b.entropy)
        assert np.array_equal(a.wehrl.pi, b.wehrl.pi)


# Tables of every kind write_csv meets: the all-zero columns of a spin-J
# trajectory dump, the sign and the special values that must keep %.17g,
# degenerate shapes, and the sweep's list of row lists.
_NAN, _INF = math.nan, math.inf
CSV_TABLES = {
    "all_plus_zero_column": np.column_stack([[1.5, -2.25, 1e-300], np.zeros(3), [3.0, 0.0, 7.0]]),
    "all_minus_zero_column": np.column_stack([[1.5, -2.25, 1e-300], np.full(3, -0.0), np.zeros(3)]),
    "plus_and_minus_zero_column": np.column_stack([[0.0, -0.0, 0.0], [0.1, 0.2, 0.3]]),
    "zero_but_one_row": np.column_stack([[0.0, 0.0, 4.5e-17, 0.0], [1.0, 2.0, 3.0, 4.0]]),
    "special_values": np.array([[_NAN, _INF, -_INF, 5e-324], [0.0, -5e-324, _NAN, 1.0], [0.0, _INF, 0.1, 0.0]]),
    "one_by_one_zero": np.array([[0.0]]),
    "one_by_one": np.array([[1 / 3]]),
    "one_dimensional": np.array([0.1, 0.0, -3.0]),
    "one_dimensional_zeros": np.zeros(4),
    "row_lists": [[0.25, _NAN, 0.0, 1.0, 0.0], [0.5, 1e-3, 0.0, 2.0, -0.0]],
}


class TestWriteCsv:
    @pytest.mark.parametrize("name", list(CSV_TABLES))
    def test_bytes_match_savetxt(self, tmp_path, name):
        header = ["t", "a", "b", "c", "d"]
        scenarios.write_csv(tmp_path / "new.csv", header, CSV_TABLES[name])
        savetxt_csv(tmp_path / "oracle.csv", header, CSV_TABLES[name])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    # The formatter's oracle is Python's %.17g, cell by cell: a column that
    # is +0.0 throughout is written as the literal 0, which is its text too.
    @staticmethod
    def oracle(header, table) -> bytes:
        rows = np.asarray(table, dtype=float).reshape(len(table), -1).tolist()
        return (",".join(header) + "\n").encode() + b"".join(
            b",".join(b"%.17g" % v for v in row) + b"\n" for row in rows
        )

    def check(self, path, table, header=None):
        table = np.asarray(table, dtype=float)
        header = header or [f"c{k}" for k in range(table.reshape(len(table), -1).shape[1])]
        scenarios.write_csv(path, header, table)
        assert path.read_bytes() == self.oracle(header, table)

    @staticmethod
    def as_table(values, columns):
        values = np.asarray(values, dtype=float)
        rows = max(1, len(values) // columns)
        return np.resize(values, rows * columns).reshape(rows, columns)

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48), columns=st.integers(1, 4))
    def test_bit_patterns_match_percent_format(self, tmp_path_factory, bits, columns):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        self.check(tmp_path_factory.getbasetemp() / "bits.csv", self.as_table(values, columns))

    @given(values=st.lists(st.floats(), min_size=1, max_size=48), columns=st.integers(1, 4))
    def test_floats_match_percent_format(self, tmp_path_factory, values, columns):
        self.check(tmp_path_factory.getbasetemp() / "floats.csv", self.as_table(values, columns))

    EDGES = {
        # Exact ties at the 18th significant digit: m / 2^j, m odd, whose
        # expansion m 5^j / 10^j has 18 digits, such as 0.100002288818359375
        # (j = 18, all of them), and up to 1,000 for each other j. From j = 24
        # on (3 / 2^24 = 1.78813934326171875e-07) the scale 10^(16 - X) is no
        # double but a double-double.
        "ties": np.concatenate(
            [np.arange(26215, 262144, 2) / 2**18]
            + [np.arange(-(-10**17 // 5**j) | 1, min(-(-10**18 // 5**j), -(-10**17 // 5**j) + 2000), 2) / 2.0**j
               for j in range(3, 26) if j != 18]
        ),
        "powers_of_ten": np.concatenate(
            [np.nextafter(10.0 ** np.arange(-200, 201), w) for w in (0.0, math.inf)] + [10.0 ** np.arange(-200, 201)]
        ),
        "fixed_scientific_switches": np.concatenate(
            [np.nextafter(np.array([1e-5, 1e-4, 1e16, 1e17]), w) for w in (0.0, math.inf)]
            + [[1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 0.00010000000000000002, 9999999999999998.0,
                99999999999999984.0, 1.2345678901234567e16, 1.2345678901234567e-5, 100.0, 0.001, 0.5]]
        ),
        "three_digit_exponents": np.array([1e100, 1e-100, 1.5e100, 9.87e199, 1.2345e-150, 3.3e-199, 7e123, 2.5e-101]),
        "specials": np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0, -0.0, math.inf,
                              -math.inf, math.nan, np.copysign(math.nan, -1.0), 1.7976931348623157e308, 1e300]),
    }

    @pytest.mark.parametrize("name", list(EDGES))
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_edge_values_match_percent_format(self, tmp_path, name, sign):
        values = sign * self.EDGES[name]
        self.check(tmp_path / "edges.csv", self.as_table(values, 5 if len(values) % 5 == 0 else 1))

    @pytest.mark.parametrize(
        "table",
        [
            np.random.default_rng(1).standard_normal((1, 9)),
            np.random.default_rng(2).standard_normal((9, 1)),
            np.array([[math.nan, -0.0], [math.inf, 0.0], [0.0, -5e-324]]),  # no cell on the fast path
            np.zeros((3, 0)),
        ],
        ids=["one_row", "one_column", "no_fast_cell", "no_column"],
    )
    def test_shapes_match_percent_format(self, tmp_path, table):
        self.check(tmp_path / "shape.csv", table)

    @pytest.mark.parametrize("block_bytes", [1, 300, 500])
    def test_blocks_end_inside_the_table(self, tmp_path, monkeypatch, block_bytes):
        # A row of three cells is 144 bytes: blocks of one, two and three
        # rows, the last one short.
        monkeypatch.setattr(scenarios, "_BLOCK_BYTES", block_bytes)
        self.check(tmp_path / "blocks.csv", np.random.default_rng(3).standard_normal((7, 3)) * [1.0, 1e-7, 1e30])

    @pytest.mark.parametrize("block_bytes", [1, 400, 96 * 1024])
    def test_columns_layout_matches_savetxt_of_the_dense_table(self, tmp_path, monkeypatch, block_bytes):
        # Literal zeros open each row, fall between the table's columns and
        # close it; a zero column of the table is one more literal. Rows of
        # 168 bytes: blocks of one row, two, and the whole table.
        monkeypatch.setattr(scenarios, "_BLOCK_BYTES", block_bytes)
        table = np.random.default_rng(4).standard_normal((5, 4))
        table[:, 2] = 0.0
        columns = [2, 3, 9, 10]
        dense = np.zeros((5, 13))
        dense[:, columns] = table
        header = [f"c{k}" for k in range(13)]
        scenarios.write_csv(tmp_path / "new.csv", header, table, columns)
        savetxt_csv(tmp_path / "oracle.csv", header, dense)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_large_table_peak_memory(self, tmp_path):
        # 101.6 MiB: the peak of formatting this table in one Python % pass,
        # which holds its cells as Python floats and their text at once.
        table = np.random.default_rng(0).standard_normal((200_000, 8))
        tracemalloc.start()
        try:
            scenarios.write_csv(tmp_path / "large.csv", list("abcdefgh"), table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 101.6 * 2**20
        with open(tmp_path / "large.csv", "rb") as fh:
            fh.readline()
            head = [fh.readline() for _ in range(3)]
        assert head == [b",".join(b"%.17g" % v for v in row) + b"\n" for row in table[:3].tolist()]

    def test_special_values_raise_no_warning(self, tmp_path):
        table = np.array([[math.inf, math.nan, -0.0, 1e300, 5e-324], [1.0, -math.inf, 0.5, -1e-300, -5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(tmp_path / "specials.csv", table)

