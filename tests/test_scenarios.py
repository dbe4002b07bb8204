import math

import numpy as np
import pytest
from scipy.integrate import quad

from spinwehrl import (
    BathParams,
    BlochVector,
    DissipatorSpec,
    NonMarkovianRegime,
    PulseParams,
    SpinQuantumNumber,
    bloch_to_rho,
    custom_scenario,
    generator_entropy_rate,
    gibbs_state,
    husimi,
    is_markovian,
    make_grid,
    markov_threshold,
    photon_pulse_scenario,
    pulse_amplitude,
    pulse_effective_rates,
    pulse_gamma_explicit,
    pulse_xi,
    rotating_field,
    rotating_field_steady_state,
    spontaneous_emission,
    thermal_quench,
)
from spinwehrl import scenarios
from spinwehrl.dynamics import HamiltonianSpec
from spinwehrl.errors import InvalidFrequency
from spinwehrl.phase_space import wehrl_entropy_spin_half
from spinwehrl.scenarios import spontaneous_emission_model, thermal_quench_model


class TestSpontaneousEmission:
    def test_zero_temperature_flux_profile(self):
        # Phi(t) = (gamma/2)(1 + tau_z(t)) at T = 0
        res = spontaneous_emission(omega=1.0, gamma=1.0, temperature=0.0,
                                   t_max=10.0, dt=0.05, grid=None)
        phi = res.series("wehrl.phi")
        expected = 0.5 * (1.0 + res.bloch[:, 2])
        assert np.max(np.abs(phi - expected)) < 1e-9

    def test_zero_temperature_von_neumann_flagged(self):
        res = spontaneous_emission(omega=1.0, gamma=1.0, temperature=0.0,
                                   t_max=5.0, dt=0.1, grid=None)
        assert np.all(np.isinf(res.series("von_neumann.phi")[:-1]))
        assert np.all(np.isfinite(res.series("wehrl.pi")))

    def test_total_entropy_ordering_with_temperature(self):
        # colder bath produces more total entropy from the excited state
        cold = spontaneous_emission(1.0, 1.0, temperature=0.2, t_max=16.0, dt=0.005, grid=None)
        warm = spontaneous_emission(1.0, 1.0, temperature=1.0, t_max=16.0, dt=0.005, grid=None)
        assert cold.scalars["sigma_wehrl"] is not None
        assert warm.scalars["sigma_wehrl"] is not None
        assert cold.scalars["sigma_wehrl"] > warm.scalars["sigma_wehrl"]

    def test_hot_bath_sigma_finite_and_smallest(self):
        # tau_bar_z -> 0: relaxation is fast but the totals stay ordered in T
        hot = spontaneous_emission(1.0, 1.0, temperature=50.0, t_max=0.5, dt=0.0005, grid=None)
        warm = spontaneous_emission(1.0, 1.0, temperature=1.0, t_max=16.0, dt=0.005, grid=None)
        cold = spontaneous_emission(1.0, 1.0, temperature=0.2, t_max=16.0, dt=0.005, grid=None)
        sigmas = [r.scalars["sigma_wehrl"] for r in (hot, warm, cold)]
        assert all(s is not None and math.isfinite(s) for s in sigmas)
        assert sigmas[0] < sigmas[1] < sigmas[2]


class TestThermalQuench:
    def test_equal_temperatures_idle(self):
        res = thermal_quench(1.0, 1.0, omega=1.0, gamma=1.0, t_max=3.0, dt=0.05, grid=None)
        assert np.max(np.abs(res.series("wehrl.pi"))) < 1e-12
        assert np.max(np.abs(res.series("wehrl.phi"))) < 1e-12

    def test_tau_z_matches_closed_form(self):
        res = thermal_quench(2.0, 1.0, omega=1.0, gamma=1.0, t_max=8.0, dt=0.02, grid=None)
        assert np.max(np.abs(res.bloch[:, 2] - res.extras["tau_z_closed_form"])) < 1e-8

    def test_states_stay_thermal(self):
        res = thermal_quench(2.0, 1.0, omega=1.0, gamma=1.0, t_max=5.0, dt=0.05, grid=None)
        for s in res.trajectory.states:
            off = s.entries - np.diag(s.entries.diagonal())
            assert np.max(np.abs(off)) < 1e-12

    def test_balance_and_flux_sign_flip(self):
        heat = thermal_quench(1.0, 2.0, omega=1.0, gamma=1.0, t_max=6.0, dt=0.02, grid=None)
        cool = thermal_quench(2.0, 1.0, omega=1.0, gamma=1.0, t_max=6.0, dt=0.02, grid=None)
        for res in (heat, cool):
            ds = res.series("wehrl.ds_dt")
            assert np.max(np.abs(ds - (res.series("wehrl.pi") - res.series("wehrl.phi")))) < 1e-12
        # heating: entropy flows in from the bath (Phi < 0); cooling: out
        assert np.all(heat.series("wehrl.phi")[:-1] < 0)
        assert np.all(cool.series("wehrl.phi")[:-1] > 0)

    def test_exponential_tail_rate(self):
        # Pi and Phi decay with rate gamma/|tau_bar_z| at late times
        omega, gamma = 1.0, 1.0
        res = thermal_quench(2.0, 1.0, omega=omega, gamma=gamma, t_max=10.0, dt=0.02, grid=None)
        nbar = res.scalars["nbar"]
        rate_expected = gamma * (2 * nbar + 1)
        t = res.times
        phi = res.series("wehrl.phi")
        mask = (t > 5.0) & (t < 9.0)
        slope = np.polyfit(t[mask], np.log(np.abs(phi[mask])), 1)[0]
        assert slope == pytest.approx(-rate_expected, rel=1e-3)


class TestRotatingField:
    def test_undriven_equilibrium_is_silent(self):
        omega, gamma = 1.0, 1.0
        nbar = 0.8
        rho0 = gibbs_state(SpinQuantumNumber(1), omega, nbar_to_temp(omega, nbar))
        res = rotating_field(b0=-omega, b1=0.0, drive_omega=0.5,
                             dissipator=DissipatorSpec.amplitude_damping(gamma, nbar),
                             initial_state=rho0, t_max=4.0, dt=0.05, grid=None)
        assert np.max(np.abs(res.series("wehrl.pi"))) < 1e-10

    def test_damping_reaches_steady_state(self):
        bath = BathParams(gamma=1.0, nbar=1.0)
        ss = rotating_field_steady_state(5.0, 10.0, 5.0, bath)
        rho0 = bloch_to_rho(BlochVector(1.0, 0.0, 0.0))
        res = rotating_field(5.0, 10.0, 5.0, DissipatorSpec.amplitude_damping(1.0, 1.0),
                             rho0, t_max=15.0, dt=0.01, grid=None)
        assert res.wehrl[-1].pi == pytest.approx(res.wehrl[-1].phi, abs=1e-6)
        assert res.wehrl[-1].pi == pytest.approx(ss["pi_wehrl"], rel=1e-6)
        assert res.von_neumann[-1].pi == pytest.approx(ss["pi_vn"], rel=1e-6)
        assert res.bloch[-1, 2] == pytest.approx(ss["tau_z"], abs=1e-9)

    def test_zero_temperature_steady_value(self):
        # gamma b1^2 / (gamma^2 + 2 b1^2 + 4 (b0 + omega)^2)
        b0, b1, w, gamma = 2.0, 3.0, 1.0, 1.0
        expected = gamma * b1**2 / (gamma**2 + 2 * b1**2 + 4 * (b0 + w) ** 2)
        bath = BathParams(gamma=gamma, nbar=0.0)
        ss = rotating_field_steady_state(b0, b1, w, bath)
        assert ss["pi_wehrl"] == pytest.approx(expected, rel=1e-12)
        assert ss["pi_vn"] == math.inf
        rho0 = bloch_to_rho(BlochVector(1.0, 0.0, 0.0))
        res = rotating_field(b0, b1, w, DissipatorSpec.amplitude_damping(gamma, 0.0),
                             rho0, t_max=25.0, dt=0.01, grid=None)
        assert res.wehrl[-1].pi == pytest.approx(expected, abs=1e-6)

    def test_dephasing_variant_bounded_wehrl_vs_spiking_von_neumann(self):
        # strong-detuning drive b0/l = 5, b1/l = 1, w/l = 1 from the pure |x-> state
        rho0 = bloch_to_rho(BlochVector(-1.0, 0.0, 0.0))
        res = rotating_field(5.0, 1.0, 1.0, DissipatorSpec.dephasing(1.0),
                             rho0, t_max=6.0, dt=0.01, grid=None)
        pi_w = res.series("wehrl.pi")
        pi_v = res.series("von_neumann.pi")
        assert np.all(np.isfinite(pi_w))
        assert np.max(pi_w) <= 0.25 + 1e-9  # lambda/4 bound on pure states
        assert np.isinf(pi_v[0])  # starts pure
        taus = np.linalg.norm(res.bloch, axis=1)
        assert np.all(pi_v[taus < 1 - 1e-12] >= pi_w[taus < 1 - 1e-12] - 1e-12)

    def test_unitary_part_does_not_move_wehrl_entropy(self):
        grid = make_grid(64, 128)
        rho0 = bloch_to_rho(BlochVector(0.7, 0.0, 0.2))
        h = HamiltonianSpec.rotating_field(5.0, 10.0, 5.0)
        res = rotating_field(5.0, 10.0, 5.0, DissipatorSpec.amplitude_damping(1.0, 1.0),
                             rho0, t_max=0.5, dt=0.05, grid=None)
        for t, s in list(zip(res.times, res.trajectory.states))[::3]:
            hm = h.matrix(s.j, t)
            gen = -1j * (hm @ s.entries - s.entries @ hm)
            assert abs(generator_entropy_rate(gen, husimi(s, grid))) < 1e-6

    def test_driven_balance_holds_with_unitary_term(self):
        # the drive is linear in the spin operators, so the full-dynamics
        # entropy still obeys dS/dt = Pi - Phi of the dissipator alone
        rho0 = bloch_to_rho(BlochVector(0.7, 0.0, 0.2))
        res = rotating_field(5.0, 10.0, 5.0, DissipatorSpec.amplitude_damping(1.0, 1.0),
                             rho0, t_max=1.0, dt=0.002, grid=make_grid(64, 128))
        ds_fd = np.gradient(res.entropy, res.times, edge_order=2)
        model = res.series("wehrl.pi") - res.series("wehrl.phi")
        assert np.max(np.abs(ds_fd[2:-2] - model[2:-2])) < 1e-4


def nbar_to_temp(omega, nbar):
    from spinwehrl import temperature_from_nbar

    return temperature_from_nbar(omega, nbar)


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
        g, w = pulse_effective_rates(p, t)
        assert np.max(np.abs(g - 1.0)) < 1e-12
        assert np.max(np.abs(w)) < 1e-12

    def test_two_expressions_agree(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        t = np.linspace(0, 8, 400)
        g1, w1 = pulse_effective_rates(p, t)
        g2 = pulse_gamma_explicit(p, t)
        assert np.max(np.abs(g1 - g2)) < 1e-8
        assert np.max(np.abs(w1)) < 1e-10  # resonant drive

    def test_threshold_scan(self):
        # delta = 4 (Omega/gamma0) / (1 - Omega/gamma0)^2 classification
        p10 = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        delta = 4 * 10 / (1 - 10) ** 2
        assert markov_threshold(p10) == pytest.approx(math.sqrt(delta / (1 + delta)), rel=1e-14)
        assert markov_threshold(p10) == pytest.approx(0.5749596, abs=1e-6)
        assert is_markovian(p10)
        t = np.linspace(0, 12, 2000)
        g, _ = pulse_effective_rates(p10, t)
        assert np.min(g) > -1e-10

    def test_late_time_rate_returns_to_bare(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        g, _ = pulse_effective_rates(p, 30.0)
        assert g == pytest.approx(1.0, abs=1e-4)

    def test_amplitude_underflow_raises(self):
        from spinwehrl import AmplitudeUnderflow

        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=1.0)
        with pytest.raises(AmplitudeUnderflow):
            pulse_effective_rates(p, 60.0)  # |a| = e^{-30} < 1e-12
        with pytest.raises(AmplitudeUnderflow):
            pulse_gamma_explicit(p, 60.0)


class TestPhotonPulseScenario:
    def test_rejects_non_markovian_parameters(self):
        p = PulseParams(gamma0=1.0, capital_omega=4.0, a0=math.sqrt(0.5))
        with pytest.raises(NonMarkovianRegime):
            photon_pulse_scenario(p, t_max=5.0, dt=0.05, grid=None)

    def test_population_identity(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        res = photon_pulse_scenario(p, t_max=10.0, dt=0.02, grid=None)
        tz = res.bloch[:, 2]
        assert np.max(np.abs(tz - (2 * res.extras["a_abs2"] - 1))) < 1e-6

    def test_flux_identity(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=math.sqrt(0.5))
        res = photon_pulse_scenario(p, t_max=10.0, dt=0.02, grid=None)
        phi = res.series("wehrl.phi")
        expected = 0.5 * res.extras["gamma_t"] * (1 + res.bloch[:, 2])
        assert np.max(np.abs(phi - expected)) < 1e-8

    def test_reduces_to_spontaneous_emission_without_pulse(self):
        p = PulseParams(gamma0=1.0, capital_omega=10.0, a0=1.0)
        res = photon_pulse_scenario(p, t_max=6.0, dt=0.05, grid=None)
        ref = spontaneous_emission(omega=1.0, gamma=1.0, temperature=0.0,
                                   t_max=6.0, dt=0.05, grid=None)
        assert np.max(np.abs(res.bloch[:, 2] - ref.bloch[:, 2])) < 1e-8
        assert np.max(np.abs(res.series("wehrl.pi") - ref.series("wehrl.pi"))) < 1e-8


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
        res = thermal_quench(2.0, 1.0, omega=1.0, gamma=1.0, t_max=1.0, dt=0.1, grid=None)
        expected = [wehrl_entropy_spin_half(math.hypot(*b)) for b in res.bloch]
        assert np.array_equal(res.entropy, expected)


class TestCustomScenario:
    def test_general_spin_balance(self):
        # quadrature rates close the balance dS/dt = Pi - Phi for J = 1
        j = SpinQuantumNumber(2)
        omega, gamma, nbar = 1.0, 1.0, 0.5
        rho0 = gibbs_state(j, omega, 3.0)
        grid = make_grid(64, 128)
        res = custom_scenario(
            rho0,
            HamiltonianSpec.static_jz(omega),
            DissipatorSpec.amplitude_damping(gamma, nbar),
            t_max=2.0,
            dt=0.01,
            grid=grid,
        )
        s = res.entropy
        t = res.times
        ds_fd = np.gradient(s, t, edge_order=2)
        ds_model = res.series("wehrl.pi") - res.series("wehrl.phi")
        assert np.max(np.abs(ds_fd[2:-2] - ds_model[2:-2])) < 1e-4

    def test_von_neumann_general_route_present(self):
        j = SpinQuantumNumber(2)
        omega, gamma, nbar = 1.0, 1.0, 0.5
        rho0 = gibbs_state(j, omega, 3.0)
        res = custom_scenario(
            rho0,
            HamiltonianSpec.static_jz(omega),
            DissipatorSpec.amplitude_damping(gamma, nbar),
            t_max=1.0,
            dt=0.1,
            grid=make_grid(48, 96),
        )
        pi_v = res.series("von_neumann.pi")
        pi_w = res.series("wehrl.pi")
        assert np.all(np.isfinite(pi_v))
        assert np.all(pi_v >= -1e-10)
        assert np.all(pi_v[:-1] >= pi_w[:-1])

    def test_deterministic_outputs(self):
        rho0 = bloch_to_rho(BlochVector(0.5, 0.0, 0.0))
        kwargs = dict(t_max=0.5, dt=0.05, grid=make_grid(48, 96))
        a = custom_scenario(rho0, HamiltonianSpec.none(), DissipatorSpec.dephasing(1.0), **kwargs)
        b = custom_scenario(rho0, HamiltonianSpec.none(), DissipatorSpec.dephasing(1.0), **kwargs)
        assert np.array_equal(a.entropy, b.entropy)
        assert np.array_equal(a.series("wehrl.pi"), b.series("wehrl.pi"))
