"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figure of merit (run with -s or -rA to see
them). Tolerances are fixed here, not tuned at runtime."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from spinwehrl import (
    BathParams,
    BlochVector,
    DensityMatrix,
    DissipatorSpec,
    HamiltonianSpec,
    NonMarkovianRegime,
    PulseParams,
    SpinQuantumNumber,
    bloch_to_rho,
    damping_phi_exact,
    damping_phi_zero_temperature,
    dephasing_pi_quadrature,
    dephasing_pi_spin_half,
    dephasing_pi_von_neumann,
    evolve,
    gauss_2f1,
    gibbs_state,
    husimi,
    is_markovian,
    make_grid,
    markov_threshold,
    photon_pulse_model,
    pulse_amplitude,
    pulse_effective_rates,
    rotating_field_model,
    rotating_field_steady_state,
    simulate,
    spin_half_damping_rates,
    spin_half_damping_von_neumann,
    wehrl_entropy,
)
from spinwehrl.entropy_rates import damping_phi_quadrature, damping_pi_quadrature
from conftest import random_bloch, random_diagonal_state, random_density_matrix
from oracles import energy_flux, pulse_gamma_explicit, temperature_from_nbar

mp.mp.dps = 40


@pytest.fixture(scope="module")
def grid_default():
    return make_grid(96, 192)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(grid_default):
    # trigger one-time jit compilation outside the timed sections
    rho = bloch_to_rho(BlochVector(0.1, 0.0, 0.2))
    f = husimi(rho, grid_default)
    damping_pi_quadrature(f, BathParams(gamma=1.0, nbar=0.5))
    dephasing_pi_quadrature(f, 1.0)


def fd_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order finite difference on a uniform grid, all points."""
    v = np.asarray(values, dtype=float)
    n = v.size
    out = np.empty(n)
    out[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * dt)
    for i in (0, 1):
        out[i] = (
            -25 * v[i] + 48 * v[i + 1] - 36 * v[i + 2] + 16 * v[i + 3] - 3 * v[i + 4]
        ) / (12 * dt)
        out[n - 1 - i] = (
            25 * v[n - 1 - i] - 48 * v[n - 2 - i] + 36 * v[n - 3 - i]
            - 16 * v[n - 4 - i] + 3 * v[n - 5 - i]
        ) / (12 * dt)
    return out


def test_criterion_01_dephasing_closed_form_triangle(grid_default, rng):
    start = time.perf_counter()
    lam = 1.0
    worst = 0.0
    for _ in range(100):
        b = random_bloch(rng, tau_max=0.99)
        closed = dephasing_pi_spin_half(b, lam)
        quad = dephasing_pi_quadrature(husimi(bloch_to_rho(b), grid_default), lam)
        if closed > 0:
            worst = max(worst, abs(quad - closed) / closed)
        else:
            assert abs(quad) < 1e-12
    assert worst <= 1e-5
    # pure equator state: closed form is exact, quadrature needs refinement
    # because Q vanishes at one point of the sphere
    assert dephasing_pi_spin_half(BlochVector(1, 0, 0), lam) == pytest.approx(0.25, abs=1e-12)
    fine = husimi(bloch_to_rho(BlochVector(1, 0, 0)), make_grid(768, 1536))
    pure_quad = dephasing_pi_quadrature(fine, lam)
    assert pure_quad == pytest.approx(0.25, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: dephasing triangle, worst rel dev {worst:.2e}, "
          f"pure-state quad {pure_quad:.8f}, {elapsed:.1f}s")


def test_criterion_02_damping_closed_form_triangle(grid_default, rng):
    start = time.perf_counter()
    worst_pi = 0.0
    worst_phi = 0.0
    for nbar in (0.1, 0.5, 1.0, 5.0):
        bath = BathParams(gamma=1.0, nbar=nbar)
        for _ in range(10):
            b = random_bloch(rng, tau_max=0.95)
            field = husimi(bloch_to_rho(b), grid_default)
            closed = spin_half_damping_rates(b, bath)
            quad_pi = damping_pi_quadrature(field, bath)
            quad_phi = damping_phi_quadrature(field, bath)
            worst_pi = max(worst_pi, abs(quad_pi - closed.pi) / max(abs(closed.pi), 1e-12))
            worst_phi = max(worst_phi, abs(quad_phi - closed.phi) / max(abs(closed.phi), 1e-12))
    assert worst_pi <= 1e-5
    assert worst_phi <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: damping triangle, worst rel dev "
          f"Pi {worst_pi:.2e} / Phi {worst_phi:.2e}, {elapsed:.1f}s")


def test_criterion_03_exact_flux_vs_quadrature(rng):
    start = time.perf_counter()
    grid = make_grid(192, 384)
    worst = 0.0
    for two_j in (1, 2, 3, 4):
        j = SpinQuantumNumber(two_j)
        for nbar in (0.1, 1.0, 5.0):
            bath = BathParams(gamma=1.0, nbar=nbar)
            for _ in range(3):
                rho = random_diagonal_state(j, rng)
                exact = damping_phi_exact(rho.populations(), bath)
                quad = damping_phi_quadrature(husimi(rho, grid), bath)
                worst = max(worst, abs(quad - exact) / max(abs(exact), 1e-12))
    assert worst <= 1e-6
    # spin-1/2 special case reduces to the closed form at 1e-10
    bath = BathParams(gamma=1.0, nbar=0.5)
    worst_half = 0.0
    for _ in range(20):
        tz = rng.uniform(-0.95, 0.95)
        pops = np.array([(1 + tz) / 2, (1 - tz) / 2])
        exact = damping_phi_exact(pops, bath)
        closed = spin_half_damping_rates(BlochVector(0, 0, tz), bath).phi
        worst_half = max(worst_half, abs(exact - closed) / max(abs(closed), 1e-12))
    assert worst_half <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: exact-2F1 flux vs quadrature {worst:.2e}, "
          f"vs spin-1/2 closed form {worst_half:.2e}, {elapsed:.1f}s")


def test_criterion_04_zero_temperature_limit_chain(rng):
    tbz = -1.0 + 1e-6
    nbar = 0.5 * (-1.0 / tbz - 1.0)
    bath = BathParams(gamma=1.0, nbar=nbar)
    worst = 0.0
    for two_j in (1, 2, 4):
        j = SpinQuantumNumber(two_j)
        pops = rng.uniform(0.1, 1.0, j.dim)
        pops /= pops.sum()
        jz = float(np.dot(pops, j.m_values()))
        exact = damping_phi_exact(pops, bath)
        limit = damping_phi_zero_temperature(jz, 1.0, j)
        worst = max(worst, abs(exact - limit) / abs(limit))
    assert worst <= 1e-4
    # spin-1/2 closed form collapses to (gamma/2)(1 + tau_z) at tau_bar_z = -1
    bath0 = BathParams(gamma=1.0, nbar=0.0)
    for tz in (-0.99, -0.3, 0.0, 0.5, 1.0):
        r = spin_half_damping_rates(BlochVector(0, 0, tz), bath0)
        assert r.phi == pytest.approx(0.5 * (1 + tz), rel=1e-12, abs=1e-14)
    print(f"\nACCEPTANCE 4 PASS: T->0 limit chain, worst rel dev {worst:.2e}")


def test_criterion_05_entropy_balance(grid_default, rng):
    dt = 0.01
    t_grid = np.linspace(0.0, 1.5, 151)
    cases = []
    # dephasing, J = 1/2 and J = 1
    cases.append(("dephasing J=1/2", bloch_to_rho(BlochVector(0.6, 0.0, 0.3)),
                  DissipatorSpec.dephasing(1.0)))
    cases.append(("dephasing J=1", random_density_matrix(SpinQuantumNumber(2), rng),
                  DissipatorSpec.dephasing(1.0)))
    # damping, J = 1/2 and J = 1 (nbar > 0)
    cases.append(("damping J=1/2", bloch_to_rho(BlochVector(0.4, 0.1, 0.3)),
                  DissipatorSpec.amplitude_damping(1.0, 0.5)))
    cases.append(("damping J=1", random_density_matrix(SpinQuantumNumber(2), rng),
                  DissipatorSpec.amplitude_damping(1.0, 0.5)))
    worst = 0.0
    for label, rho0, diss in cases:
        traj = evolve(rho0, HamiltonianSpec.none(), diss, t_grid)
        entropy = np.empty(t_grid.size)
        model = np.empty(t_grid.size)
        for k, entries in enumerate(traj.entries):
            field = husimi(DensityMatrix(traj.j, entries), grid_default)
            entropy[k] = wehrl_entropy(field)
            if diss.kind == "dephasing":
                pi = dephasing_pi_quadrature(field, diss.lam)
                phi = 0.0  # dephasing carries no entropy flux
            else:
                bath = BathParams(gamma=diss.gamma, nbar=diss.nbar)
                pi = damping_pi_quadrature(field, bath)
                phi = damping_phi_quadrature(field, bath)
            model[k] = pi - phi
        ds = fd_derivative(entropy, dt)
        dev = np.max(np.abs(ds - model))
        worst = max(worst, dev)
        assert dev <= 1e-4, f"{label}: balance violated by {dev:.2e}"
    print(f"\nACCEPTANCE 5 PASS: dS/dt = Pi - Phi on both channels, worst {worst:.2e}")


def test_criterion_06_positivity(grid_default, rng):
    checked = 0
    floor = -1e-8
    # closed-form dephasing (300)
    for _ in range(300):
        assert dephasing_pi_spin_half(random_bloch(rng), rng.uniform(0.1, 3)) >= floor
        checked += 1
    # closed-form damping including the T = 0 branch (300)
    for _ in range(300):
        nbar = 0.0 if rng.uniform() < 0.3 else rng.uniform(0.05, 5.0)
        bath = BathParams(gamma=rng.uniform(0.1, 3), nbar=nbar)
        assert spin_half_damping_rates(random_bloch(rng), bath).pi >= floor
        checked += 1
    # quadrature dephasing (100, J in {1/2, 1})
    for _ in range(100):
        j = SpinQuantumNumber(int(rng.choice([1, 2])))
        field = husimi(random_density_matrix(j, rng), grid_default)
        assert dephasing_pi_quadrature(field, rng.uniform(0.1, 3)) >= floor
        checked += 1
    # quadrature damping (300, J in {1/2, 1, 3/2}, nbar > 0)
    for _ in range(300):
        j = SpinQuantumNumber(int(rng.choice([1, 2, 3])))
        bath = BathParams(gamma=rng.uniform(0.1, 3), nbar=rng.uniform(0.05, 5.0))
        field = husimi(random_density_matrix(j, rng), grid_default)
        assert damping_pi_quadrature(field, bath) >= floor
        checked += 1
    assert checked == 1000
    # equality at equilibrium for every method
    for nbar in (0.2, 1.0):
        bath = BathParams(gamma=1.0, nbar=nbar)
        b_eq = BlochVector(0.0, 0.0, bath.tau_bar_z)
        assert abs(spin_half_damping_rates(b_eq, bath).pi) <= 1e-8
        for two_j in (1, 2):
            j = SpinQuantumNumber(two_j)
            rho = gibbs_state(j, 1.0, temperature_from_nbar(1.0, nbar))
            field = husimi(rho, grid_default)
            assert abs(damping_pi_quadrature(field, bath)) <= 1e-8
            assert abs(dephasing_pi_quadrature(field, 1.0)) <= 1e-8
    print("\nACCEPTANCE 6 PASS: Pi >= -1e-8 on 1000 samples, zero at equilibrium")


def test_criterion_07_clausius_limit(rng):
    omega, temp = 1.0, 100.0
    nbar = 1.0 / math.expm1(omega / temp)
    bath = BathParams(gamma=1.0, nbar=nbar)
    worst = 0.0
    for two_j in (1, 2, 10):
        j = SpinQuantumNumber(two_j)
        rho = gibbs_state(j, omega, temp * 1.05)  # near-equilibrium
        phi = damping_phi_exact(rho.populations(), bath)
        phi_e = energy_flux(rho, bath, omega)
        ratio = phi * temp * (1.0 + 1.0 / j.j) / phi_e
        worst = max(worst, abs(ratio - 1.0))
        assert ratio == pytest.approx(1.0, abs=0.01)
    print(f"\nACCEPTANCE 7 PASS: Clausius ratio within {worst:.2e} of 1 at T/omega = 100")


def test_criterion_08_divergence_contrast():
    lam = 1.0
    # dephasing family tau -> 1 with tau_z = 0; the divergence is
    # logarithmic, so "exceeds any fixed bound" shows up as unbounded
    # monotone growth capped only by the boundary flag
    taus = [0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-11, 1 - 1e-13]
    vn = [dephasing_pi_von_neumann(BlochVector(t, 0, 0), lam) for t in taus[:-1]]
    assert all(np.diff(vn) > 0)
    assert dephasing_pi_von_neumann(BlochVector(taus[-1], 0, 0), lam) == math.inf
    wehrl = [dephasing_pi_spin_half(BlochVector(t, 0, 0), lam) for t in taus]
    assert max(wehrl) <= lam / 4 + 1e-6
    assert max(wehrl) <= 10 * lam
    assert vn[-1] > 20 * max(wehrl)  # contrast: far beyond the Wehrl cap
    # damping family tau_bar_z -> -1 at fixed tau_z
    b = BlochVector(0.0, 0.0, 0.3)
    gamma = 1.0
    phis = []
    for eps in (1e-2, 1e-4, 1e-8):
        nbar = 0.5 * (1.0 / (1.0 - eps) - 1.0)
        bath = BathParams(gamma=gamma, nbar=nbar)
        phis.append(spin_half_damping_von_neumann(b, bath).phi)
    assert all(np.diff(phis) > 0)
    assert phis[-1] > 10 * gamma
    bath0 = BathParams(gamma=gamma, nbar=0.0)
    assert spin_half_damping_von_neumann(b, bath0).phi == math.inf
    wehrl_phi = spin_half_damping_rates(b, bath0).phi
    assert abs(wehrl_phi - 0.5 * gamma * 1.3) < 1e-12
    assert wehrl_phi <= 10 * gamma
    print("\nACCEPTANCE 8 PASS: vN rates diverge at tau->1 and T->0; Wehrl stays bounded")


def test_criterion_09_rotating_field_steady_state():
    # finite temperature: Wehrl and von Neumann steady values
    b0, b1, w, gamma, nbar = 5.0, 10.0, 5.0, 1.0, 1.0
    bath = BathParams(gamma=gamma, nbar=nbar)
    ss = rotating_field_steady_state(b0, b1, w, bath)
    rho0 = bloch_to_rho(BlochVector(1.0, 0.0, 0.0))
    res = simulate(rotating_field_model(b0, b1, w, DissipatorSpec.amplitude_damping(gamma, nbar), rho0),
                   t_max=15.0, dt=0.01)
    assert abs(res.wehrl.pi[-1] - res.wehrl.phi[-1]) <= 1e-4
    assert res.wehrl.pi[-1] == pytest.approx(ss["pi_wehrl"], abs=1e-4)
    assert res.von_neumann.pi[-1] == pytest.approx(ss["pi_vn"], abs=1e-4)
    # T -> 0: Wehrl value gamma b1^2 / (gamma^2 + 2 b1^2 + 4 (b0 + w)^2)
    b0, b1, w = 2.0, 3.0, 1.0
    expected = gamma * b1**2 / (gamma**2 + 2 * b1**2 + 4 * (b0 + w) ** 2)
    res0 = simulate(rotating_field_model(b0, b1, w, DissipatorSpec.amplitude_damping(gamma, 0.0), rho0),
                    t_max=25.0, dt=0.01)
    assert res0.wehrl.pi[-1] == pytest.approx(expected, abs=1e-4)
    assert abs(res0.wehrl.pi[-1] - res0.wehrl.phi[-1]) <= 1e-4
    print(f"\nACCEPTANCE 9 PASS: steady state Pi = Phi, Wehrl {res.wehrl.pi[-1]:.6f} "
          f"(pred {ss['pi_wehrl']:.6f}), T->0 value {res0.wehrl.pi[-1]:.6f} (pred {expected:.6f})")


def test_criterion_10_photon_pulse():
    start = time.perf_counter()
    # Markovianity classification for bandwidth ratios 4 and 10
    a0 = math.sqrt(0.5)
    p4 = PulseParams(gamma0=1.0, capital_omega=4.0, a0=a0)
    p10 = PulseParams(gamma0=1.0, capital_omega=10.0, a0=a0)
    assert markov_threshold(p4) == pytest.approx(0.8, rel=1e-12)  # delta = 16/9
    assert markov_threshold(p10) == pytest.approx(math.sqrt((40 / 81) / (1 + 40 / 81)), rel=1e-12)
    assert not is_markovian(p4) and is_markovian(p10)
    assert is_markovian(PulseParams(gamma0=1.0, capital_omega=4.0, a0=0.85))
    assert not is_markovian(PulseParams(gamma0=1.0, capital_omega=10.0, a0=0.5))
    with pytest.raises(NonMarkovianRegime):
        simulate(photon_pulse_model(p4), t_max=4.0, dt=0.05)
    # the two Gamma_t expressions agree
    t = np.linspace(0.0, 10.0, 501)
    g_log = pulse_effective_rates(p10, t)
    g_exp = pulse_gamma_explicit(p10, t)
    dev_gamma = float(np.max(np.abs(g_log - g_exp)))
    assert dev_gamma <= 1e-8
    # master equation population equals |a(t)|^2; flux identity pointwise
    res = simulate(photon_pulse_model(p10), t_max=10.0, dt=0.02)
    a_abs2 = np.abs(pulse_amplitude(p10, res.times)) ** 2
    dev_pop = float(np.max(np.abs(res.trajectory.bloch[:, 2] - (2 * a_abs2 - 1))))
    assert dev_pop <= 1e-6
    phi = res.wehrl.phi
    dev_phi = float(np.max(np.abs(phi - 0.5 * res.model.d.gamma_t(res.times) * (1 + res.trajectory.bloch[:, 2]))))
    assert dev_phi <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 10 PASS: pulse population dev {dev_pop:.2e}, "
          f"Gamma dev {dev_gamma:.2e}, flux dev {dev_phi:.2e}, {elapsed:.1f}s")


def test_criterion_11_hypergeometric_kernel():
    from test_hypergeom import oracle_2f1

    params = [
        (1.0, 1.0, 4.0), (1.0, 2.0, 4.0), (1.0, 3.0, 4.0), (1.0, 2.0, 5.0),
        (1.0, 5.0, 7.0), (1.0, 6.0, 7.0), (1.0, 9.0, 11.0), (1.0, 21.0, 43.0),
        (1.0, 42.0, 43.0), (2.0, 3.0, 8.0),
    ]
    zs = [0.05, 0.35, 0.65, 0.95, 1 - 1e-6]
    worst = 0.0
    count = 0
    for a, b, c in params:
        for z in zs:
            mine = gauss_2f1(a, b, c, z)
            ref = oracle_2f1(a, b, c, z)
            worst = max(worst, abs(mine - ref) / abs(ref))
            count += 1
    assert count == 50
    assert worst <= 1e-12
    # Euler transformation identity across a 20-point sweep
    a, b, c = 1.0, 2.0, 4.0
    worst_euler = 0.0
    for z in np.linspace(0.04, 0.79, 20):
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
        worst_euler = max(worst_euler, abs(lhs - rhs) / abs(lhs))
    assert worst_euler <= 1e-11
    print(f"\nACCEPTANCE 11 PASS: 2F1 oracle dev {worst:.2e} on 50 points, "
          f"Euler identity dev {worst_euler:.2e}")
