import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from spinwehrl import (
    BathParams,
    BlochVector,
    DissipatorSpec,
    EntropyRates,
    HamiltonianSpec,
    Model,
    SpinQuantumNumber,
    UnsupportedParameters,
    bloch_to_rho,
    damping_phi_exact,
    damping_phi_zero_temperature,
    damping_quadrature,
    dephasing_pi_quadrature,
    dephasing_pi_spin_half,
    dephasing_pi_von_neumann,
    evolve,
    gibbs_state,
    husimi,
    husimi_chunks,
    make_grid,
    make_spin_operators,
    simulate,
    gauss_2f1,
    spin_half_damping_rates,
    spin_half_damping_von_neumann,
    spin_half_dephasing_rates,
    spin_half_dephasing_von_neumann,
    thermal_quench_model,
    von_neumann_rates,
)
from spinwehrl import _kernels
from spinwehrl.entropy_rates import (
    _damping_vectors,
    applicable_rate_methods,
    damping_phi_quadrature,
    damping_pi_quadrature,
    atanh_over,
    coherence_bracket,
    primary_rate_method,
)
from spinwehrl.scenarios import SIGMA_TAIL_TOL, _sigma_or_none
from conftest import random_density_matrix, random_diagonal_state
from oracles import (
    amplitude_damping_dissipator,
    damping_flux_mpmath,
    dense_dissipator,
    dense_von_neumann_ds,
    dephasing_dissipator,
    dissipative_entropy_rate,
    energy_flux,
    generator_entropy_rate,
    husimi_of_matrix,
    node_values,
    temperature_from_nbar,
)

mp.mp.dps = 40

J_HALF = SpinQuantumNumber(1)


def gibbs_bloch(bath: BathParams) -> BlochVector:
    return BlochVector(0.0, 0.0, bath.tau_bar_z)


class TestDephasingPi:
    def test_diagonal_state_vanishes(self, default_grid, rng):
        field = husimi(random_diagonal_state(SpinQuantumNumber(3), rng), default_grid)
        assert dephasing_pi_quadrature(field, lam=1.0) == pytest.approx(0.0, abs=1e-15)

    def test_pure_equator_state_quadrature(self):
        # lambda/4 for the pure |x+> state; the integrand loses smoothness at
        # the single zero of Q, so a refined grid carries the 1e-6 tolerance.
        rho = bloch_to_rho(BlochVector(1.0, 0.0, 0.0))
        field = husimi(rho, make_grid(768, 1536))
        assert dephasing_pi_quadrature(field, lam=1.0) == pytest.approx(0.25, abs=1e-6)

    def test_quadrature_matches_closed_form(self, default_grid):
        b = BlochVector(0.5, 0.0, 0.0)
        quad = dephasing_pi_quadrature(husimi(bloch_to_rho(b), default_grid), lam=1.0)
        closed = dephasing_pi_spin_half(b, lam=1.0)
        assert quad == pytest.approx(closed, rel=1e-6)

    def test_closed_form_frozen_value(self):
        # arbitrary-precision oracle for tau = (1/2, 0, 0):
        # (lambda/4)(1/4) [tau - (1-tau^2) atanh(tau)]/tau^3 = 0.044010...
        tau = mp.mpf(1) / 2
        oracle = float((1 / mp.mpf(16)) * (tau - (1 - tau**2) * mp.atanh(tau)) / tau**3)
        assert oracle == pytest.approx(0.044010, abs=5e-7)
        assert dephasing_pi_spin_half(BlochVector(0.5, 0, 0), 1.0) == pytest.approx(oracle, rel=1e-14)

    def test_no_coherence_no_production(self):
        assert dephasing_pi_spin_half(BlochVector(0, 0, 0.7), 1.0) == 0.0

    def test_pure_state_limit(self):
        assert dephasing_pi_spin_half(BlochVector(1.0, 0.0, 0.0), 1.0) == pytest.approx(0.25, abs=1e-14)
        assert dephasing_pi_spin_half(BlochVector(0.6, 0.8, 0.0), 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_small_tau_series_limit(self):
        # bracket -> 2/3 as tau -> 0
        val = dephasing_pi_spin_half(BlochVector(1e-9, 0, 0), 1.0)
        assert val == pytest.approx(0.25 * 1e-18 * (2.0 / 3.0), rel=1e-10)


class TestDephasingVonNeumann:
    def test_no_coherence(self):
        assert dephasing_pi_von_neumann(BlochVector(0, 0, 0.5), 1.0) == 0.0

    def test_frozen_value(self):
        expected = 0.5 * 0.25 * math.atanh(0.5) / 0.5
        assert expected == pytest.approx(0.137327, abs=5e-7)
        assert dephasing_pi_von_neumann(BlochVector(0.5, 0, 0), 1.0) == pytest.approx(expected, rel=1e-14)

    def test_divergence_flag(self):
        assert dephasing_pi_von_neumann(BlochVector(1 - 1e-13, 0, 0), 1.0) == math.inf

    def test_exceeds_wehrl(self, rng):
        for _ in range(50):
            v = rng.normal(size=3)
            v *= rng.uniform(0.1, 0.95) / np.linalg.norm(v)
            b = BlochVector(*v)
            if b.tau_x**2 + b.tau_y**2 < 1e-6:
                continue
            assert dephasing_pi_von_neumann(b, 1.0) > dephasing_pi_spin_half(b, 1.0)


class TestBathParams:
    @pytest.mark.parametrize("gamma", [-1e-3, -1, np.float64(-2.0), np.array([1.0, -1e-12, 2.0])],
                             ids=["float", "int", "numpy-float", "array-element"])
    def test_negative_rate_raises(self, gamma):
        with pytest.raises(UnsupportedParameters):
            BathParams(gamma=gamma, nbar=0.5)

    def test_negative_occupation_raises(self):
        with pytest.raises(UnsupportedParameters):
            BathParams(gamma=np.array([1.0, 2.0]), nbar=-1e-9)

    def test_occupation_overflowing_the_magnetization_raises(self):
        # 2 nbar + 1 overflows above about 9e307, where tau_bar_z would be -0
        assert BathParams(gamma=0.0, nbar=8e307).tau_bar_z < 0.0
        with pytest.raises(UnsupportedParameters):
            BathParams(gamma=0.0, nbar=1e308)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["gamma", "gamma-array", "nbar"])
    def test_non_finite_parameters_raise(self, key, value):
        # nan < 0 is False, so a sign test alone lets nan through, and the
        # spin-1/2 rates of such a bath would be nan or inf.
        params = {"gamma": 1.0, "nbar": 0.5}
        if key == "gamma-array":
            params["gamma"] = np.array([1.0, value, 2.0])
        else:
            params[key] = value
        with pytest.raises(UnsupportedParameters, match="finite and non-negative"):
            BathParams(**params)

    @pytest.mark.parametrize("gamma", [0.0, 1.5, np.array([0.0, 1.0])])
    def test_non_negative_rates_accepted(self, gamma):
        assert BathParams(gamma=gamma, nbar=0.0).tau_bar_z == -1.0


class TestDampingQuadrature:
    def test_gibbs_flux_vanishes(self, default_grid):
        bath = BathParams(gamma=1.0, nbar=0.7)
        omega = 1.0
        rho = gibbs_state(SpinQuantumNumber(2), omega, temperature_from_nbar(omega, bath.nbar))
        field = husimi(rho, default_grid)
        assert damping_phi_quadrature(field, bath) == pytest.approx(0.0, abs=1e-8)
        assert damping_pi_quadrature(field, bath) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("nbar", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("two_j", [1, 4, 12])
    def test_rates_vanish_at_the_gibbs_state(self, two_j, nbar, default_grid, rng):
        # u = dQ/dtheta - 2J Q sin/(r - cos) vanishes identically there, and
        # it is formed from the coefficients of two fields that do not; at
        # nbar = 0 both terms grow like 1/theta toward the north pole.
        j = SpinQuantumNumber(two_j)
        bath = BathParams(gamma=1.0, nbar=nbar)
        omega = 1.0
        gibbs = husimi(gibbs_state(j, omega, temperature_from_nbar(omega, nbar)), default_grid)
        scale = damping_pi_quadrature(husimi(random_density_matrix(j, rng), default_grid), bath)
        phi, pi = damping_quadrature(gibbs, bath)
        assert scale > 1e-3
        assert abs(phi) <= 1e-13 * scale
        assert abs(pi) <= 1e-13 * scale

    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_flux_from_the_constant_coefficient_is_the_node_sum(self, two_j, default_grid, rng):
        j = SpinQuantumNumber(two_j)
        bath = BathParams(gamma=1.3, nbar=0.5)
        field = husimi(random_density_matrix(j, rng), default_grid)
        grid = default_grid
        r = 2.0 * bath.nbar + 1.0
        drift = two_j * grid.sin_theta / (r - grid.cos_theta)
        q, dq_dtheta, _ = node_values(field)
        u = dq_dtheta - drift[:, None] * q
        node_sum = -(u.sum(axis=-1) @ (grid.theta_weights * grid.sin_theta))
        expected = (j.dim / (4.0 * np.pi)) * bath.gamma * j.j * node_sum
        assert damping_quadrature(field, bath)[0] == pytest.approx(expected, rel=1e-13, abs=0)

    def test_spin_half_flux_matches_closed_form(self, default_grid, rng):
        bath = BathParams(gamma=1.0, nbar=0.5)
        for _ in range(5):
            tz = rng.uniform(-0.9, 0.9)
            b = BlochVector(0.0, 0.0, tz)
            quad = damping_phi_quadrature(husimi(bloch_to_rho(b), default_grid), bath)
            closed = spin_half_damping_rates(b, bath).phi
            assert quad == pytest.approx(closed, rel=1e-6)

    def test_zero_temperature_spin_half_matches_closed_form(self, default_grid, rng):
        bath = BathParams(gamma=1.3, nbar=0.0)
        for _ in range(8):
            v = rng.normal(size=3)
            b = BlochVector(*(v * rng.uniform(0.0, 0.9) / np.linalg.norm(v)))
            phi, pi = damping_quadrature(husimi(bloch_to_rho(b), default_grid), bath)
            closed = spin_half_damping_rates(b, bath)
            assert phi == pytest.approx(closed.phi, rel=1e-12, abs=0)
            assert pi == pytest.approx(closed.pi, rel=1e-12, abs=0)

    @pytest.mark.parametrize("two_j", [4, 12])
    def test_zero_temperature_flux_matches_its_limit(self, two_j, default_grid, rng):
        j = SpinQuantumNumber(two_j)
        bath = BathParams(gamma=1.3, nbar=0.0)
        for _ in range(4):
            rho = random_density_matrix(j, rng)
            limit = damping_phi_zero_temperature(float(rho.populations() @ j.m_values()), bath.gamma, j)
            assert damping_phi_quadrature(husimi(rho, default_grid), bath) == pytest.approx(limit, rel=1e-13, abs=0)

    def test_spin_one_flux_matches_exact(self, default_grid, rng):
        j = SpinQuantumNumber(2)
        bath = BathParams(gamma=1.0, nbar=1.0)
        rho = random_diagonal_state(j, rng)
        quad = damping_phi_quadrature(husimi(rho, default_grid), bath)
        exact = damping_phi_exact(rho.populations(), bath)
        assert quad == pytest.approx(exact, rel=1e-6)

    def test_spin_half_production_matches_closed_form(self, default_grid):
        bath = BathParams(gamma=1.0, nbar=0.5)  # tau_bar_z = -1/2
        b = BlochVector(0.0, 0.0, 0.3)
        quad = damping_pi_quadrature(husimi(bloch_to_rho(b), default_grid), bath)
        closed = spin_half_damping_rates(b, bath).pi
        assert quad == pytest.approx(closed, rel=1e-5)

    def test_coherence_term_tracks_off_diagonals(self, default_grid):
        # On the raw sums (phi, pi_damping, pi_coherence) of the fused kernel,
        # each scaled by Pi's prefactor.
        bath = BathParams(gamma=1.0, nbar=0.5)
        _, harmonics = default_grid.amplitude_table(SpinQuantumNumber(1), 2)
        vectors = _damping_vectors(default_grid, 1, bath.nbar)
        pref = 0.5 * bath.gamma * 2 / (4.0 * np.pi)
        with_coh = husimi(bloch_to_rho(BlochVector(0.4, 0.1, 0.3)), default_grid)
        dephased = husimi(bloch_to_rho(BlochVector(0.0, 0.0, 0.3)), default_grid)
        _, damping_coh, coherence_coh = _kernels.damping_reduce(with_coh.coef, harmonics, *vectors)
        _, _, coherence_diag = _kernels.damping_reduce(dephased.coef, dephased.harmonics, *vectors)
        assert pref * coherence_coh > 1e-4
        assert abs(pref * coherence_diag) < 1e-12
        assert damping_pi_quadrature(with_coh, bath) == pytest.approx(
            pref * damping_coh + pref * coherence_coh, rel=1e-12
        )


class TestDampingExactFlux:
    def test_spin_half_gibbs_vanishes(self):
        bath = BathParams(gamma=1.0, nbar=0.8)
        tbz = bath.tau_bar_z
        pops = np.array([(1 + tbz) / 2, (1 - tbz) / 2])
        assert damping_phi_exact(pops, bath) == pytest.approx(0.0, abs=1e-10)

    def test_spin_half_matches_closed_form(self, rng):
        for nbar in (0.1, 0.5, 1.0, 5.0):
            bath = BathParams(gamma=1.0, nbar=nbar)
            for _ in range(10):
                tz = rng.uniform(-0.95, 0.95)
                pops = np.array([(1 + tz) / 2, (1 - tz) / 2])
                exact = damping_phi_exact(pops, bath)
                closed = spin_half_damping_rates(BlochVector(0, 0, tz), bath).phi
                assert exact == pytest.approx(closed, rel=1e-10, abs=1e-12)

    def test_spin_three_half_matches_quadrature(self, rng):
        j = SpinQuantumNumber(3)
        bath = BathParams(gamma=1.0, nbar=0.5)
        grid = make_grid(192, 384)
        rho = random_diagonal_state(j, rng)
        exact = damping_phi_exact(rho.populations(), bath)
        quad = damping_phi_quadrature(husimi(rho, grid), bath)
        assert quad == pytest.approx(exact, rel=1e-6)

    def test_flux_ignores_coherences(self, default_grid, rng):
        # quadrature sees the full state; the exact formula only its diagonal
        j = SpinQuantumNumber(2)
        bath = BathParams(gamma=1.0, nbar=1.0)
        rho = random_density_matrix(j, rng)
        quad = damping_phi_quadrature(husimi(rho, default_grid), bath)
        exact = damping_phi_exact(rho.populations(), bath)
        assert quad == pytest.approx(exact, rel=1e-6)

    def test_zero_temperature_boundary_rejected(self):
        # Where 1/(nbar + 1) rounds to 1 the exact flux is its T -> 0 limit,
        # of one state and of each row of a stack with gamma an array, and a
        # state's flux is the same to the bit in either call.
        rng = np.random.default_rng(2024)
        for two_j in (1, 4, 12, 40):
            j = SpinQuantumNumber(two_j)
            pops = rng.dirichlet(np.ones(j.dim), size=200)
            gamma = rng.uniform(0.5, 2.0, size=200)
            jz = np.array([math.fsum(p * j.m_values()) for p in pops])
            for nbar in (0.0, 1e-17):
                stacked = damping_phi_exact(pops, BathParams(gamma=gamma, nbar=nbar))
                limit = damping_phi_zero_temperature(jz, gamma, j)
                np.testing.assert_allclose(stacked, limit, rtol=0, atol=1e-14 * 8 * j.j ** 2)
                for k in range(pops.shape[0]):
                    one = damping_phi_exact(pops[k], BathParams(gamma=float(gamma[k]), nbar=nbar))
                    assert np.float64(one).tobytes() == stacked[k].tobytes()

    @pytest.mark.parametrize(
        "two_j, nbar",
        [(two_j, nbar) for two_j in (1, 4) for nbar in (0.0, 1e-13, 0.5, 1.0, 1e3, 1e6, 1e8, 1e12, 1e15, 1e300)]
        + [(two_j, nbar) for two_j in (12, 40) for nbar in (0.0, 1e-13, 1.0, 1e8, 1e15, 1e300)],
    )
    def test_matches_the_mpmath_quadrature(self, two_j, nbar):
        # Over random and pole states, relative to their largest flux, as
        # compare measures it, from T = 0 to an nbar far above any config's.
        rng = np.random.default_rng(two_j)
        pops = np.vstack([rng.dirichlet(np.ones(two_j + 1), size=4), np.eye(two_j + 1)[[0, -1]]])
        oracle = damping_flux_mpmath(pops, 1.3, nbar)
        exact = damping_phi_exact(pops, BathParams(gamma=1.3, nbar=nbar))
        assert np.max(np.abs(exact - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_cross_checked_at_every_nbar(self):
        for nbar in (0.0, 1e6, 1e8, 1e300):
            d = DissipatorSpec.amplitude_damping(1.0, nbar)
            assert [m.name for m in applicable_rate_methods(4, d)] == ["quadrature", "exact-2F1"]


@pytest.mark.parametrize("nbar", [0.0, 0.5, 2e6])
@pytest.mark.parametrize("kind", ["dephasing", "amplitude_damping"])
@pytest.mark.parametrize("two_j", [1, 4, 12])
def test_the_primary_method_is_one_that_applies(two_j, kind, nbar):
    d = DissipatorSpec(kind, lam=1.0, gamma=1.0, nbar=nbar)
    assert primary_rate_method(two_j, d) in applicable_rate_methods(two_j, d)


@pytest.mark.parametrize("nbar", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["dephasing", "amplitude_damping"])
@pytest.mark.parametrize("two_j", [1, 4])
def test_each_method_gives_only_what_it_computes(two_j, kind, nbar):
    # A bundle holds ds_dt, pi and phi over the trajectory's times, NaN
    # exactly where its method computes nothing: exact-2F1's ds_dt and pi.
    d = DissipatorSpec(kind, lam=1.0, gamma=1.0, nbar=nbar)
    rho0 = random_density_matrix(SpinQuantumNumber(two_j), np.random.default_rng(two_j))
    traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), d, np.linspace(0.0, 0.5, 6))
    for method in applicable_rate_methods(two_j, d):
        fields = husimi_chunks(traj.entries, make_grid(24, 48)) if method.needs_field else None
        rates = method.rates(traj, fields, d)
        assert [f.name for f in dataclasses.fields(rates)] == ["ds_dt", "pi", "phi"]
        assert isinstance(rates, EntropyRates)
        for name in ("ds_dt", "pi", "phi"):
            values = getattr(rates, name)
            assert values.shape == traj.times.shape
            if method.name == "exact-2F1" and name != "phi":
                assert np.all(np.isnan(values))
            else:
                assert np.all(np.isfinite(values))


class TestZeroTemperatureFlux:
    def test_ground_state(self):
        assert damping_phi_zero_temperature(-1.5, 1.0, SpinQuantumNumber(3)) == pytest.approx(0.0)

    def test_spin_half_excited(self):
        # Phi = (gamma/2)(1 + tau_z) at tau_z = 1 gives gamma
        gamma = 1.3
        assert damping_phi_zero_temperature(0.5, gamma, J_HALF) == pytest.approx(gamma)

    def test_top_state_general_j(self):
        j = SpinQuantumNumber(4)
        assert damping_phi_zero_temperature(2.0, 1.0, j) == pytest.approx(4 * 1.0 * 2.0**2)

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_exact_flux_limit(self, two_j, rng):
        # tau_bar_z -> -1 + 1e-6 approaches the closed T = 0 value
        j = SpinQuantumNumber(two_j)
        tbz = -1.0 + 1e-6
        nbar = 0.5 * (-1.0 / tbz - 1.0)
        bath = BathParams(gamma=1.0, nbar=nbar)
        pops = rng.uniform(0.1, 1.0, j.dim)
        pops /= pops.sum()
        jz = float(np.dot(pops, j.m_values()))
        exact = damping_phi_exact(pops, bath)
        limit = damping_phi_zero_temperature(jz, 1.0, j)
        assert exact == pytest.approx(limit, rel=1e-4)


class TestEnergyFlux:
    def test_gibbs_vanishes(self):
        bath = BathParams(gamma=1.0, nbar=0.9)
        omega = 1.0
        rho = gibbs_state(SpinQuantumNumber(2), omega, temperature_from_nbar(omega, bath.nbar))
        assert energy_flux(rho, bath, omega) == pytest.approx(0.0, abs=1e-14)

    def test_spin_half_form(self, rng):
        # (gamma omega / 2 tau_bar_z)(tau_bar_z - tau_z)
        bath = BathParams(gamma=1.2, nbar=0.4)
        omega = 0.8
        tbz = bath.tau_bar_z
        for _ in range(10):
            tz = rng.uniform(-0.95, 0.95)
            rho = bloch_to_rho(BlochVector(0, 0, tz))
            expected = bath.gamma * omega / (2 * tbz) * (tbz - tz)
            assert energy_flux(rho, bath, omega) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 0.4, 1e3])
    def test_spin_half_closed_form_on_random_bloch_vectors(self, nbar):
        # oracle: the spin-1/2 closed form (gamma omega / 2 tau_bar_z)(tau_bar_z - tau_z),
        # which the spin-1/2 rate bundles used to carry
        gen = np.random.default_rng(3)
        rows = gen.normal(size=(50, 3))
        rows *= gen.uniform(0.0, 1.0, size=(50, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
        bath = BathParams(gamma=1.2, nbar=nbar)
        omega, tbz = 0.8, bath.tau_bar_z
        stack = np.stack([bloch_to_rho(BlochVector(*b)).entries for b in rows])
        expected = (bath.gamma * omega / (2.0 * tbz)) * (tbz - rows[:, 2])
        np.testing.assert_allclose(energy_flux(stack, bath, omega), expected, rtol=1e-12, atol=1e-15)

    def test_matches_direct_trace(self, rng):
        # oracle: Phi_E = -tr(H D(rho)) with H = omega J_z
        j = SpinQuantumNumber(4)
        ops = make_spin_operators(j)
        bath = BathParams(gamma=0.7, nbar=1.3)
        omega = 1.1
        for _ in range(20):
            rho = random_density_matrix(j, rng)
            drho = amplitude_damping_dissipator(rho.entries, bath.gamma, bath.nbar)
            direct = -float(np.trace(omega * ops.jz @ drho).real)
            assert energy_flux(rho, bath, omega) == pytest.approx(direct, abs=1e-12, rel=1e-12)


class TestSpinHalfClosedForms:
    def test_equilibrium_rates_vanish(self):
        bath = BathParams(gamma=1.0, nbar=0.5)
        r = spin_half_damping_rates(gibbs_bloch(bath), bath)
        assert r.pi == pytest.approx(0.0, abs=1e-14)
        assert r.phi == pytest.approx(0.0, abs=1e-14)
        assert energy_flux(bloch_to_rho(gibbs_bloch(bath)), bath, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_zero_temperature_excited_flux(self):
        bath = BathParams(gamma=1.0, nbar=0.0)
        r = spin_half_damping_rates(BlochVector(0, 0, 1.0), bath)
        assert r.phi == pytest.approx(1.0, rel=1e-12)

    def test_zero_temperature_profile(self, rng):
        # Pi from the general formula at tau_bar_z = -1 equals the dedicated
        # T -> 0 expression
        bath = BathParams(gamma=1.0, nbar=0.0)
        for _ in range(20):
            tau = rng.uniform(0.05, 0.999)
            th = rng.uniform(0, math.pi)
            b = BlochVector(tau * math.sin(th), 0.0, tau * math.cos(th))
            r = spin_half_damping_rates(b, bath)
            bracket = tau + (tau**2 - 1) * math.atanh(tau)
            expected = r.phi + 1.0 * (tau**2 + b.tau_z * (2 + b.tau_z)) / (4 * tau**3) * bracket
            assert r.pi == pytest.approx(expected, rel=1e-10)

    def test_von_neumann_equilibrium(self):
        bath = BathParams(gamma=1.0, nbar=0.5)
        r = spin_half_damping_von_neumann(gibbs_bloch(bath), bath)
        assert r.pi == pytest.approx(0.0, abs=1e-14)
        assert r.phi == pytest.approx(0.0, abs=1e-14)

    def test_von_neumann_exceeds_wehrl(self):
        bath = BathParams(gamma=1.0, nbar=0.5)
        b = BlochVector(0, 0, 0.3)
        vn = spin_half_damping_von_neumann(b, bath)
        w = spin_half_damping_rates(b, bath)
        assert vn.pi > w.pi

    def test_von_neumann_zero_temperature_flag(self):
        bath = BathParams(gamma=1.0, nbar=0.0)
        r = spin_half_damping_von_neumann(BlochVector(0, 0, 0.3), bath)
        assert r.phi == math.inf
        assert r.pi == math.inf

    def test_general_route_matches_closed_form(self, rng):
        # eigendecomposition route vs spin-1/2 closed forms
        bath = BathParams(gamma=1.0, nbar=0.8)
        d = DissipatorSpec.amplitude_damping(bath.gamma, bath.nbar)
        for _ in range(10):
            v = rng.normal(size=3)
            v *= rng.uniform(0.1, 0.9) / np.linalg.norm(v)
            b = BlochVector(*v)
            rho = bloch_to_rho(b)
            general = von_neumann_rates(rho, d, 0.0)
            assert general.ds_dt == pytest.approx(
                dense_von_neumann_ds(rho.entries, dense_dissipator(rho.entries, d, 0.0)), rel=1e-13)
            closed = spin_half_damping_von_neumann(b, bath)
            assert general.phi == pytest.approx(closed.phi, rel=1e-10, abs=1e-12)
            assert general.pi == pytest.approx(closed.pi, rel=1e-8, abs=1e-10)

    def test_general_route_matches_dephasing_closed_form(self):
        # eigendecomposition route vs the spin-1/2 dephasing closed form: no flux
        rng = np.random.default_rng(7)
        d = DissipatorSpec.dephasing(0.7)
        for _ in range(50):
            v = rng.normal(size=3)
            v *= rng.uniform(0.1, 0.9) / np.linalg.norm(v)
            b = BlochVector(*v)
            rho = bloch_to_rho(b)
            general = von_neumann_rates(rho, d, 0.0)
            assert general.ds_dt == pytest.approx(
                dense_von_neumann_ds(rho.entries, dense_dissipator(rho.entries, d, 0.0)), rel=1e-13)
            closed = spin_half_dephasing_von_neumann(b, d.lam)
            assert general.pi == pytest.approx(closed.pi, rel=1e-13, abs=1e-15)
            assert general.ds_dt == general.pi and general.phi == 0.0 == closed.phi


class TestClausiusRatio:
    @pytest.mark.parametrize("two_j", [1, 2, 10])
    def test_high_temperature_limit(self, two_j):
        # phi T (1 + 1/J) / Phi_E tends to 1 at high temperature
        j = SpinQuantumNumber(two_j)
        omega, temp = 1.0, 100.0
        nbar = 1.0 / math.expm1(omega / temp)
        bath = BathParams(gamma=1.0, nbar=nbar)
        rho = gibbs_state(j, omega, temp * 1.05)
        phi = damping_phi_exact(rho.populations(), bath)
        phi_e = energy_flux(rho, bath, omega)
        assert phi * temp * (1.0 + 1.0 / j.j) / phi_e == pytest.approx(1.0, abs=0.01)


class TestDissipativeEntropyRate:
    def test_equilibrium_vanishes(self, default_grid):
        bath = BathParams(gamma=1.0, nbar=0.6)
        omega = 1.0
        rho = gibbs_state(SpinQuantumNumber(2), omega, temperature_from_nbar(omega, bath.nbar))
        field = husimi(rho, default_grid)
        dfield = husimi_of_matrix(
            amplitude_damping_dissipator(rho.entries, bath.gamma, bath.nbar), rho.j, default_grid
        )
        assert dissipative_entropy_rate(field, dfield) == pytest.approx(0.0, abs=1e-10)

    def test_dephasing_rate_equals_production(self, default_grid, rng):
        # dephasing has no flux, so dS/dt|_diss = Pi
        j = SpinQuantumNumber(2)
        rho = random_density_matrix(j, rng)
        lam = 0.9
        field = husimi(rho, default_grid)
        dfield = husimi_of_matrix(dephasing_dissipator(rho.entries, lam), j, default_grid)
        rate = dissipative_entropy_rate(field, dfield)
        assert rate == pytest.approx(dephasing_pi_quadrature(field, lam), rel=1e-6)

    def test_damping_rate_equals_closed_balance(self, default_grid):
        bath = BathParams(gamma=1.0, nbar=0.5)
        b = BlochVector(0.3, 0.1, -0.2)
        rho = bloch_to_rho(b)
        field = husimi(rho, default_grid)
        dfield = husimi_of_matrix(
            amplitude_damping_dissipator(rho.entries, bath.gamma, bath.nbar), rho.j, default_grid
        )
        rate = dissipative_entropy_rate(field, dfield)
        closed = spin_half_damping_rates(b, bath)
        assert rate == pytest.approx(closed.pi - closed.phi, abs=1e-6)

    def test_linear_hamiltonian_contributes_nothing(self, default_grid, rng):
        # commutator generators of J_x, J_y, J_z leave the Wehrl entropy flat
        j = SpinQuantumNumber(2)
        ops = make_spin_operators(j)
        rho = random_density_matrix(j, rng)
        field = husimi(rho, default_grid)
        h = 0.7 * ops.jz + 0.3 * ops.jx - 0.2 * ops.jy
        gen = -1j * (h @ rho.entries - rho.entries @ h)
        assert abs(generator_entropy_rate(gen, field)) < 1e-6


class TestTotalEntropyProduced:
    # Sigma is ScenarioResult.sigma_wehrl, the integral of Pi from the
    # entropy balance at the run's two ends (scenarios._sigma_or_none).
    MODEL = Model(gibbs_state(J_HALF, 1.0, 2.0), HamiltonianSpec.static_jz(1.0),
                  DissipatorSpec.amplitude_damping(1.0, 0.5))

    def test_equilibrium_integrates_to_zero(self):
        res = simulate(thermal_quench_model(1.0, 1.0, omega=1.0, gamma=1.0), t_max=5.0, dt=0.05)
        sigma = _sigma_or_none(res.model, res.trajectory, res.entropy, np.zeros_like(res.times))
        assert abs(sigma) < 1e-15

    def test_trajectory_version(self):
        sigma = simulate(self.MODEL, t_max=20.0, dt=1e-3).sigma_wehrl
        assert sigma > 0
        # halving the step changes Sigma only by rounding
        sigma2 = simulate(self.MODEL, t_max=20.0, dt=5e-4).sigma_wehrl
        assert abs(sigma2 - sigma) / sigma < 1e-12

    def test_unconverged_tail_rejected(self):
        # Pi has not decayed below SIGMA_TAIL_TOL by t_max: no Sigma
        res = simulate(self.MODEL, t_max=1.0, dt=0.02)
        assert abs(res.wehrl.pi[-1]) >= SIGMA_TAIL_TOL
        assert res.sigma_wehrl is None
        pi = np.full(res.times.size, 0.3)
        assert _sigma_or_none(res.model, res.trajectory, res.entropy, pi) is None


# Bloch lengths at and around every branch point of the closed forms: zero,
# inside and at the edge of the series branch (|tau| < 0.01), the middle,
# the divergence edge 1 - DIVERGENCE_EDGE and the pure state.
EDGE_TAUS = [0.0, 0.005, 0.01, 0.5, 1.0 - 1e-12, 1.0]
EDGE_BATHS = [BathParams(gamma=0.8, nbar=0.0), BathParams(gamma=0.8, nbar=0.5)]  # tau_bar_z = -1, -0.5


# Inside the unit ball: each component in [-1, 1] / sqrt(3).
RANDOM_BLOCH_ROWS = np.random.default_rng(5).uniform(-1.0, 1.0, size=(400, 3)) / math.sqrt(3.0)


def bloch_rows() -> np.ndarray:
    """Bloch vectors of every length in EDGE_TAUS along +x (all coherence),
    +z and -z (none), and, below tau = 1, along a generic direction; then
    RANDOM_BLOCH_ROWS."""
    generic = np.array([0.48, 0.64, -0.6])
    rows = [tau * np.array(axis) for tau in EDGE_TAUS for axis in ([1.0, 0, 0], [0, 0, 1.0], [0, 0, -1.0])]
    rows += [tau * generic for tau in EDGE_TAUS[:-2]]
    return np.concatenate([rows, RANDOM_BLOCH_ROWS])


class TestArrayForms:
    """The closed forms over an (n, 3) Bloch array equal their scalar
    evaluation at each row, bit for bit, and warn nowhere."""

    pytestmark = pytest.mark.filterwarnings("error")

    @staticmethod
    def assert_rowwise(array_result, scalar_results):
        assert isinstance(scalar_results[0], float)
        np.testing.assert_array_equal(array_result, np.array(scalar_results), strict=True)

    def test_helpers(self):
        taus = np.concatenate([EDGE_TAUS, [-t for t in EDGE_TAUS], [-1.0, -0.5], RANDOM_BLOCH_ROWS[:, 0]])
        self.assert_rowwise(coherence_bracket(taus), [coherence_bracket(float(t)) for t in taus])
        inside = taus[np.abs(taus) < 1.0]
        self.assert_rowwise(atanh_over(inside), [atanh_over(float(x)) for x in inside])
        assert coherence_bracket(0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        np.testing.assert_array_equal(coherence_bracket(np.array([1.0, -1.0])), [1.0, 1.0])
        assert coherence_bracket(np.array(-0.5)) == coherence_bracket(-0.5)

    def test_helpers_match_math_module_reference(self):
        # The scalar formulas, with numpy's functions on Python floats: the
        # array code evaluates the same loops, to the last bit.
        def g_ref(t):
            x = abs(t)
            if x == 1.0:
                return 1.0
            if x < 0.5:
                series = 0.0
                for k in reversed(range(40)):
                    series = series * (x * x) + 2.0 / ((2 * k + 1) * (2 * k + 3))
                return series
            return float((x - (1.0 - x * x) * np.arctanh(x)) / np.power(x, 3.0))

        rows = RANDOM_BLOCH_ROWS.tolist()
        taus = [b[0] for b in rows] + EDGE_TAUS
        np.testing.assert_array_equal(coherence_bracket(np.array(taus)), [g_ref(t) for t in taus])
        inside = [x for x in taus if abs(x) < 1.0]
        np.testing.assert_array_equal(atanh_over(np.array(inside)), [
            1.0 + x * x * (1.0 / 3.0 + x * x * (1.0 / 5.0 + x * x * (1.0 / 7.0 + x * x / 9.0))) if abs(x) < 0.01
            else float(np.arctanh(x) / x)
            for x in inside
        ])
        expected = [0.25 * 0.7 * (x**2 + y**2) * g_ref(float(np.sqrt(x**2 + y**2 + z**2))) for x, y, z in rows]
        np.testing.assert_array_equal(dephasing_pi_spin_half(RANDOM_BLOCH_ROWS, 0.7), expected)

    def test_coherence_bracket_against_mpmath(self):
        # The series below |tau| = 0.5 and the direct form above it, against
        # g at 50 digits, across both switch points of earlier versions
        # (0.01) and this one.
        taus = np.concatenate([
            np.geomspace(1e-9, 1.0, 300),
            np.linspace(0.002, 1.0, 500),
            [np.nextafter(0.01, 0.0), 0.01, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0)],
        ])
        with mp.workdps(50):
            for tau in taus:
                t = mp.mpf(float(tau))
                exact = 1 if t == 1 else (t - (1 - t * t) * mp.atanh(t)) / t**3
                assert abs(coherence_bracket(float(tau)) / exact - 1) <= 1.5e-15, tau

    def test_out_of_range_still_raises(self):
        with pytest.raises(UnsupportedParameters):
            coherence_bracket(np.array([0.5, 1.0 + 1e-9]))
        with pytest.raises(UnsupportedParameters):
            atanh_over(np.array([0.5, -1.0]))

    @pytest.mark.parametrize("bath", EDGE_BATHS, ids=["tbz=-1", "tbz=-0.5"])
    def test_a_valid_bloch_vector_just_above_one_is_pure(self, bath):
        # BlochVector admits lengths up to 1 + 2e-10; the closed forms take
        # such a vector's length as 1, and give the pure state's rates.
        longer, pure = BlochVector(1.0 + 1e-13, 0.0, 0.0), BlochVector(1.0, 0.0, 0.0)
        for form, arg in [
            (spin_half_dephasing_rates, 0.7),
            (spin_half_dephasing_von_neumann, 0.7),
            (spin_half_damping_rates, bath),
            (spin_half_damping_von_neumann, bath),
        ]:
            expected = dataclasses.astuple(form(pure, arg))
            assert dataclasses.astuple(form(longer, arg)) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_bloch_lengths_past_the_validated_band_raise(self):
        for tau in (1.0 + 1e-9, 1.001):
            with pytest.raises(UnsupportedParameters):
                dephasing_pi_spin_half(np.array([[0.0, 0.0, 0.5], [tau, 0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("form", [dephasing_pi_spin_half, dephasing_pi_von_neumann])
    def test_dephasing_production(self, form):
        rows = bloch_rows()
        self.assert_rowwise(form(rows, 0.7), [form(BlochVector(*b), 0.7) for b in rows])

    @pytest.mark.parametrize("form", [spin_half_dephasing_rates, spin_half_dephasing_von_neumann])
    def test_dephasing_bundles(self, form):
        rows = bloch_rows()
        bundle = form(rows, 0.7)
        scalars = [form(BlochVector(*b), 0.7) for b in rows]
        for name in ("ds_dt", "pi", "phi"):
            self.assert_rowwise(getattr(bundle, name), [getattr(r, name) for r in scalars])

    @pytest.mark.parametrize("bath", EDGE_BATHS, ids=["tbz=-1", "tbz=-0.5"])
    @pytest.mark.parametrize("form", [spin_half_damping_rates, spin_half_damping_von_neumann])
    def test_damping_bundles(self, form, bath):
        rows = bloch_rows()
        bundle = form(rows, bath)
        scalars = [form(BlochVector(*b), bath) for b in rows]
        for name in ("ds_dt", "pi", "phi"):
            self.assert_rowwise(getattr(bundle, name), [getattr(r, name) for r in scalars])

    def test_time_dependent_rate(self):
        rows = bloch_rows()
        gammas = np.linspace(0.1, 2.0, len(rows))
        bundle = spin_half_damping_rates(rows, BathParams(gamma=gammas, nbar=0.0))
        for k, (b, g) in enumerate(zip(rows, gammas)):
            assert bundle.phi[k] == spin_half_damping_rates(BlochVector(*b), BathParams(gamma=g, nbar=0.0)).phi

    def test_divergence_semantics(self):
        edge = 1.0 - 1e-12
        x_axis = np.array([[edge, 0, 0], [1.0, 0, 0], [0.999, 0, 0]])
        pi = dephasing_pi_von_neumann(x_axis, 1.0)
        assert pi[0] == pi[1] == math.inf and math.isfinite(pi[2])
        assert np.all(dephasing_pi_von_neumann(np.array([[0, 0, edge], [0, 0, -1.0]]), 1.0) == 0.0)
        zero_t = BathParams(gamma=1.0, nbar=0.0)
        vn = spin_half_damping_von_neumann(np.array([[0, 0, -1.0], [0, 0, 1.0], [0.3, 0, 0]]), zero_t)
        # The T = 0 ground state is the equilibrium: no divergent flux there.
        np.testing.assert_array_equal(vn.phi, [0.0, math.inf, math.inf])
        np.testing.assert_array_equal(vn.ds_dt[:2], [0.0, math.inf])


class TestExactFluxWeightsOncePerCall:
    @staticmethod
    def per_state_loop(pops, bath, j):
        """The flux of one state term by term over m, as a scalar code
        would evaluate it, with its own 2F1 values of the Euler weights."""
        two_j, z = j.two_j, 1.0 / (bath.nbar + 1.0)
        norm = (two_j + 1.0) * (two_j + 2.0)
        acc = 0.0
        for p, m in zip(pops, j.m_values()):
            k = j.j + m
            prefactor = 4.0 * (k + 1.0) * (two_j - k + 1.0) / (norm * (two_j + 3.0))
            w = prefactor * z * gauss_2f1(1.0, k + 2.0, two_j + 4.0, z)
            acc += p * (two_j * w + 8.0 * m / norm)
        return 0.5 * j.dim * bath.gamma * j.j * acc

    @pytest.mark.parametrize("two_j", [1, 4, 12, 40])
    def test_rows_match_the_per_state_loop(self, two_j):
        rng = np.random.default_rng(7 + two_j)
        j = SpinQuantumNumber(two_j)
        bath = BathParams(gamma=0.7, nbar=0.4)
        pops = rng.dirichlet(np.ones(j.dim), size=12)
        rows = damping_phi_exact(pops, bath)
        assert rows.shape == (12,)
        expected = np.array([self.per_state_loop(p, bath, j) for p in pops])
        np.testing.assert_allclose(rows, expected, rtol=1e-14, atol=0)
        one_by_one = [damping_phi_exact(p, bath) for p in pops]
        assert all(isinstance(x, float) for x in one_by_one)
        np.testing.assert_allclose(rows, one_by_one, rtol=1e-14, atol=0)

    def test_leading_axes_and_time_dependent_rate(self):
        rng = np.random.default_rng(3)
        j = SpinQuantumNumber(3)
        pops = rng.dirichlet(np.ones(j.dim), size=(2, 5))
        gammas = rng.uniform(0.1, 1.0, size=(2, 5))
        out = damping_phi_exact(pops, BathParams(gamma=gammas, nbar=0.2))
        assert out.shape == (2, 5)
        one = damping_phi_exact(pops[1, 3], BathParams(gamma=gammas[1, 3], nbar=0.2))
        assert out[1, 3] == pytest.approx(one, rel=1e-15)

    @pytest.mark.parametrize("populations", [1.0, [1.0], np.ones((4, 1))], ids=["scalar", "one", "rows_of_one"])
    def test_no_spin_rejected(self, populations):
        # 2J comes from the populations' length: a scalar has none, and one
        # population per state is no spin.
        with pytest.raises(UnsupportedParameters, match="2J"):
            damping_phi_exact(populations, BathParams(gamma=1.0, nbar=0.5))
