import math

import numpy as np
import pytest

from spinwehrl import (
    BlochVector,
    DensityMatrix,
    SpinQuantumNumber,
    bloch_to_rho,
    husimi,
    husimi_chunks,
    make_grid,
    wehrl_entropy,
    wehrl_entropy_spin_half,
)
from spinwehrl import phase_space
from spinwehrl.entropy_rates import von_neumann_entropy
from conftest import random_density_matrix
from oracles import (
    angle_action_inverse,
    angle_action_map,
    coherent_state,
    node_values,
    phase_space_currents,
    tss_correspondences,
    v_function,
)


def node_angles(grid):
    """(theta, phi) of every node, each (n_theta, n_phi)."""
    return np.broadcast_arrays(grid.theta_nodes[:, None], grid.phi_nodes)


class TestGrid:
    def test_weight_sum_is_sphere_area(self, default_grid):
        assert default_grid.integrate(np.ones((default_grid.n_theta, default_grid.n_phi))) == pytest.approx(
            4 * math.pi, abs=1e-10
        )

    def test_cos2_integral(self, default_grid):
        theta, _ = node_angles(default_grid)
        val = default_grid.integrate(np.cos(theta) ** 2)
        assert val == pytest.approx(4 * math.pi / 3, abs=1e-12)

    def test_sin2_cos2_integral(self, default_grid):
        # analytic oracle: int sin^2(theta) cos^2(phi) dOmega = (4/3) pi ... times pi/pi
        theta, phi = node_angles(default_grid)
        integrand = np.sin(theta) ** 2 * np.cos(phi) ** 2
        assert default_grid.integrate(integrand) == pytest.approx(4 * math.pi / 3, abs=1e-12)

    def test_high_degree_polynomial_exact(self, small_grid):
        # Legendre P_8(cos theta) integrates to zero on the sphere
        from numpy.polynomial.legendre import legval

        c = np.zeros(9)
        c[8] = 1.0
        val = small_grid.integrate(legval(np.cos(node_angles(small_grid)[0]), c))
        assert abs(val) < 1e-12

    def test_nodes_avoid_poles(self, default_grid):
        assert default_grid.theta_nodes.min() > 0.0
        assert default_grid.theta_nodes.max() < math.pi

    def test_grids_of_one_n_theta_share_the_rule(self):
        # The Gauss-Legendre rule is computed once per n_theta, not per grid.
        a, b = make_grid(40, 80), make_grid(40, 16)
        assert phase_space._legendre(40) is phase_space._legendre(40)
        assert np.array_equal(a.theta_nodes, b.theta_nodes)
        u, w = phase_space._legendre(40)
        assert not u.flags.writeable and not w.flags.writeable

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            make_grid(4, 64)


class TestNodeLayout:
    def test_node_arrays_are_theta_rows_by_phi_columns(self, small_grid):
        # one layout for every node array: (..., n_theta, n_phi), as the kernels make them
        states = [random_density_matrix(SpinQuantumNumber(3), np.random.default_rng(k)) for k in range(3)]
        shape = (small_grid.n_theta, small_grid.n_phi)
        one = node_values(husimi(states[0], small_grid))
        chunk = node_values(next(husimi_chunks(np.stack([s.entries for s in states]), small_grid)))
        for chunk_nodes, one_nodes in zip(chunk, one):  # Q, dQ/dtheta, dQ/dphi
            assert one_nodes.shape == shape
            assert chunk_nodes.shape == (3, *shape)
            assert np.max(np.abs(chunk_nodes[0] - one_nodes)) < 1e-14
        assert small_grid.integrate(chunk[0]).shape == (3,)
        assert not any(hasattr(small_grid, name) for name in ("theta", "phi", "by_theta"))


class TestCoherentState:
    def test_small_theta_concentrates_on_top_state(self):
        c = coherent_state(SpinQuantumNumber(4), theta=1e-6, phi=0.3)
        assert abs(c.amplitudes[0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_equator_spin_half(self):
        c = coherent_state(SpinQuantumNumber(1), theta=math.pi / 2, phi=0.0)
        assert np.allclose(c.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    @pytest.mark.parametrize("two_j", [1, 2, 3, 5])
    def test_normalization(self, two_j, rng):
        theta = rng.uniform(0.2, math.pi - 0.2)
        phi = rng.uniform(0, 2 * math.pi)
        c = coherent_state(SpinQuantumNumber(two_j), theta, phi)
        assert np.sum(np.abs(c.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_theta_derivative_against_finite_difference(self, rng):
        # oracle: central finite difference of the amplitudes, step 1e-6
        j = SpinQuantumNumber(3)
        for _ in range(5):
            theta = rng.uniform(0.3, math.pi - 0.3)
            phi = rng.uniform(0, 2 * math.pi)
            h = 1e-6
            up = coherent_state(j, theta + h, phi).amplitudes
            dn = coherent_state(j, theta - h, phi).amplitudes
            fd = (up - dn) / (2 * h)
            an = coherent_state(j, theta, phi).d_theta
            assert np.max(np.abs(fd - an)) < 1e-8

    def test_phi_derivative_is_diagonal_phase(self):
        j = SpinQuantumNumber(2)
        c = coherent_state(j, 1.1, 0.7)
        ms = j.m_values()
        assert np.allclose(c.d_phi, -1j * ms * c.amplitudes)


class TestHusimi:
    def test_maximally_mixed_is_uniform(self, small_grid):
        j = SpinQuantumNumber(3)
        rho = DensityMatrix(j, np.eye(j.dim, dtype=complex) / j.dim)
        q, dq_dtheta, dq_dphi = node_values(husimi(rho, small_grid))
        assert np.max(np.abs(q - 1.0 / j.dim)) < 1e-13
        assert np.max(np.abs(dq_dtheta)) < 1e-12
        assert np.max(np.abs(dq_dphi)) < 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_top_state_profile(self, two_j, small_grid):
        # oracle: direct overlap |<J,J|Omega>|^2 = cos^(4J)(theta/2)
        j = SpinQuantumNumber(two_j)
        rho = np.zeros((j.dim, j.dim), dtype=complex)
        rho[0, 0] = 1.0
        q = node_values(husimi(DensityMatrix(j, rho), small_grid))[0]
        expected = np.cos(small_grid.theta_nodes[:, None] / 2) ** (2 * two_j)
        assert np.max(np.abs(q - expected)) < 1e-12

    @pytest.mark.parametrize("two_j", [1, 4, 8, 12])
    def test_normalization_random_state(self, two_j, default_grid, rng):
        # resolution of identity on the default grid, up to J = 6
        j = SpinQuantumNumber(two_j)
        rho = random_density_matrix(j, rng)
        q = node_values(husimi(rho, default_grid))[0]
        assert (j.dim / (4.0 * np.pi)) * default_grid.integrate(q) == pytest.approx(1.0, abs=1e-8)

    def test_positivity_random_states(self, small_grid, rng):
        for two_j in (1, 2, 5):
            j = SpinQuantumNumber(two_j)
            for _ in range(20):
                q = node_values(husimi(random_density_matrix(j, rng), small_grid))[0]
                assert q.min() > -1e-12

    def test_derivatives_against_finite_differences(self, rng):
        # oracle: central differences of Q at 200 random points, step 1e-5
        j = SpinQuantumNumber(3)
        rho = random_density_matrix(j, rng)
        h = 1e-5
        for _ in range(200):
            theta = rng.uniform(0.3, math.pi - 0.3)
            phi = rng.uniform(0, 2 * math.pi)

            def q_at(th, ph):
                c = coherent_state(j, th, ph).amplitudes
                return float((c.conj() @ rho.entries @ c).real)

            c = coherent_state(j, theta, phi)
            q0 = c.amplitudes.conj() @ rho.entries @ c.amplitudes
            dth = 2 * (c.d_theta.conj() @ rho.entries @ c.amplitudes).real
            dph = 2 * (c.d_phi.conj() @ rho.entries @ c.amplitudes).real
            fd_th = (q_at(theta + h, phi) - q_at(theta - h, phi)) / (2 * h)
            fd_ph = (q_at(theta, phi + h) - q_at(theta, phi - h)) / (2 * h)
            assert dth == pytest.approx(fd_th, abs=1e-7)
            assert dph == pytest.approx(fd_ph, abs=1e-7)
            assert q0.imag == pytest.approx(0.0, abs=1e-14)

    def test_field_derivatives_match_point_evaluation(self, small_grid, rng):
        j = SpinQuantumNumber(2)
        rho = random_density_matrix(j, rng)
        dq_dtheta = node_values(husimi(rho, small_grid))[1]
        idx = rng.integers(0, small_grid.n_nodes, size=50)
        for i, k in zip(*np.unravel_index(idx, (small_grid.n_theta, small_grid.n_phi))):
            c = coherent_state(j, small_grid.theta_nodes[i], small_grid.phi_nodes[k])
            dth = 2 * (c.d_theta.conj() @ rho.entries @ c.amplitudes).real
            assert dq_dtheta[i, k] == pytest.approx(dth, abs=1e-12)

    def test_rotation_about_z_permutes_phi_grid(self, small_grid, rng):
        # rotating rho about z by one phi step shifts Q by one grid column
        j = SpinQuantumNumber(2)
        rho = random_density_matrix(j, rng)
        ms = j.m_values()
        chi = 2 * math.pi / small_grid.n_phi
        u = np.diag(np.exp(-1j * chi * ms))
        rot = DensityMatrix(j, u @ rho.entries @ u.conj().T)
        q0 = node_values(husimi(rho, small_grid))[0]
        q1 = node_values(husimi(rot, small_grid))[0]
        assert np.max(np.abs(q1 - np.roll(q0, 1, axis=1))) < 1e-10


class TestWehrlEntropy:
    def test_spin_half_maximally_mixed(self, default_grid):
        # by-hand oracle: -(2/4pi) * 4pi * (1/2 ln 1/2) = ln 2
        rho = bloch_to_rho(BlochVector(0, 0, 0))
        s = wehrl_entropy(husimi(rho, default_grid))
        assert s == pytest.approx(math.log(2.0), abs=1e-10)

    def test_coherent_below_mixed(self, default_grid, rng):
        j = SpinQuantumNumber(3)
        pure = np.zeros((j.dim, j.dim), dtype=complex)
        pure[0, 0] = 1.0
        s_pure = wehrl_entropy(husimi(DensityMatrix(j, pure), default_grid))
        for _ in range(5):
            s_mixed = wehrl_entropy(husimi(random_density_matrix(j, rng), default_grid))
            assert s_pure <= s_mixed

    def test_rotation_invariance(self, default_grid, rng):
        j = SpinQuantumNumber(2)
        rho = random_density_matrix(j, rng)
        ms = j.m_values()
        chi = rng.uniform(0, 2 * math.pi)
        u = np.diag(np.exp(-1j * chi * ms))
        rot = DensityMatrix(j, u @ rho.entries @ u.conj().T)
        s0 = wehrl_entropy(husimi(rho, default_grid))
        s1 = wehrl_entropy(husimi(rot, default_grid))
        assert s1 == pytest.approx(s0, abs=1e-8)

    def test_upper_bounds_von_neumann(self, default_grid, rng):
        # 500 random states across J; margin recorded to catch regressions
        margins = []
        for two_j in (1, 2, 3, 4, 6):
            j = SpinQuantumNumber(two_j)
            for _ in range(100):
                rho = random_density_matrix(j, rng)
                s_w = wehrl_entropy(husimi(rho, default_grid))
                s_v = von_neumann_entropy(rho)
                margins.append(s_w - s_v)
        margins = np.array(margins)
        assert margins.min() > -1e-9
        # the bound is strict away from the fully mixed corner
        assert margins.max() > 0.1

    @pytest.mark.parametrize("tau", [0.0, 1e-4, 0.5, 0.99, 1.0])
    def test_spin_half_closed_form_against_fine_grid(self, tau):
        fine = make_grid(400, 800)
        v = np.array([0.3, -0.5, 0.8])
        rho = bloch_to_rho(BlochVector(*(tau * v / np.linalg.norm(v))))
        # Q has a zero at a pure state, where the grid converges like n^-4.
        tol = 1e-11 if tau == 1.0 else 1e-13
        assert wehrl_entropy_spin_half(tau) == pytest.approx(wehrl_entropy(husimi(rho, fine)), abs=tol)

    def test_spin_half_closed_form_series_joins_the_formula(self):
        below, above = wehrl_entropy_spin_half(1e-3 - 1e-12), wehrl_entropy_spin_half(1e-3)
        assert below == pytest.approx(above, abs=1e-13)
        assert wehrl_entropy_spin_half(1.0 + 1e-9) == wehrl_entropy_spin_half(1.0)

    @pytest.mark.filterwarnings("error")
    def test_spin_half_closed_form_over_an_array(self):
        def s_ref(tau):  # the scalar code the array form replaced
            tau = min(abs(tau), 1.0)
            if tau < 1e-3:
                return math.log(2.0) - tau * tau / 6.0 - tau**4 / 60.0

            def f(u):
                return u * u * math.log(u) - 0.5 * u * u if u > 0.0 else 0.0

            return -(f(0.5 * (1.0 + tau)) - f(0.5 * (1.0 - tau))) / tau

        taus = np.concatenate([[0.0, 5e-4, 1e-3, 1.0 - 1e-12, 1.0, 1.0 + 1e-9, -0.5],
                               np.random.default_rng(2).uniform(0.0, 1.0, 300)])
        s = wehrl_entropy_spin_half(taus)
        np.testing.assert_array_equal(s, [s_ref(t) for t in taus])
        np.testing.assert_array_equal(s, [wehrl_entropy_spin_half(float(t)) for t in taus])
        assert isinstance(wehrl_entropy_spin_half(0.5), float)


class TestCurrents:
    def test_diagonal_state_has_no_azimuthal_current(self, small_grid, rng):
        j = SpinQuantumNumber(2)
        pops = rng.uniform(0.1, 1.0, j.dim)
        pops /= pops.sum()
        rho = DensityMatrix(j, np.diag(pops).astype(complex))
        j_z = phase_space_currents(husimi(rho, small_grid))[2]
        assert np.max(np.abs(j_z)) < 1e-13

    def test_equator_state_current(self, small_grid):
        # oracle: Q = (1 + sin(theta) cos(phi))/2 so -i dQ/dphi = (i/2) sin sin
        rho = bloch_to_rho(BlochVector(1, 0, 0))
        j_z = phase_space_currents(husimi(rho, small_grid))[2]
        th, ph = small_grid.theta_nodes[:, None], small_grid.phi_nodes
        expected = 0.5j * np.sin(th) * np.sin(ph)
        assert np.max(np.abs(j_z - expected)) < 1e-12

    def test_conjugation_relation(self, small_grid, rng):
        # J_+(Q)* = -J_-(Q) for any real field
        rho = random_density_matrix(SpinQuantumNumber(3), rng)
        j_plus, j_minus, _ = phase_space_currents(husimi(rho, small_grid))
        assert np.max(np.abs(j_plus.conj() + j_minus)) < 1e-11


class TestTwoModeRepresentation:
    def test_euler_homogeneity(self, rng):
        # (alpha d_alpha + beta d_beta) V = 2J V at random points
        for two_j in (1, 2, 3):
            j = SpinQuantumNumber(two_j)
            v = v_function(random_density_matrix(j, rng))
            for _ in range(34):
                alpha = complex(rng.normal(), rng.normal())
                beta = complex(rng.normal(), rng.normal())
                d = v.evaluate(alpha, beta)
                lhs = alpha * d["d_alpha"] + beta * d["d_beta"]
                rhs = two_j * d["v"]
                assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-12)

    def test_matches_sphere_representation(self, rng):
        # Q(alpha, beta) = e^{-I} I^{2J} / (pi^2 (2J)!) * Q(Omega)
        for two_j in (1, 2, 4):
            j = SpinQuantumNumber(two_j)
            rho = random_density_matrix(j, rng)
            v = v_function(rho)
            for _ in range(10):
                action = rng.uniform(0.3, 2.5)
                theta = rng.uniform(0.2, math.pi - 0.2)
                phi = rng.uniform(0, 2 * math.pi)
                alpha, beta = angle_action_inverse(action, theta, phi, psi=0.0)
                c = coherent_state(j, theta, phi).amplitudes
                q_sphere = float((c.conj() @ rho.entries @ c).real)
                expected = (
                    math.exp(-action)
                    * action**two_j
                    / (math.pi**2 * math.factorial(two_j))
                    * q_sphere
                )
                assert v.q_value(alpha, beta) == pytest.approx(expected, rel=1e-10)

    def test_current_relation_links_f_and_jz(self, rng):
        # J_z(V) = [f(V)* a* b - f(V) a b*] / [(nbar+1)|b|^2 - nbar |a|^2]
        j = SpinQuantumNumber(2)
        v = v_function(random_density_matrix(j, rng))
        nbar = 0.7
        checked = 0
        while checked < 30:
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            den = (nbar + 1) * abs(beta) ** 2 - nbar * abs(alpha) ** 2
            if abs(den) < 1e-6:
                continue
            t = tss_correspondences(v, alpha, beta, nbar=nbar)
            rhs = (np.conj(t["f"]) * np.conj(alpha) * beta - t["f"] * alpha * np.conj(beta)) / den
            assert abs(t["j_z"] - rhs) <= 1e-9 * max(abs(t["j_z"]), 1.0)
            checked += 1


class TestAngleActionMap:
    def test_polar_axis_point(self):
        aa = angle_action_map(1.0 + 0j, 0j)
        assert aa.action == pytest.approx(1.0)
        assert aa.theta == pytest.approx(0.0, abs=1e-15)
        assert aa.phi + aa.psi == pytest.approx(0.0, abs=1e-15)

    def test_equator_point(self):
        aa = angle_action_map(complex(1 / math.sqrt(2)), complex(1 / math.sqrt(2)))
        assert aa.action == pytest.approx(1.0)
        assert aa.theta == pytest.approx(math.pi / 2)
        assert aa.phi == pytest.approx(0.0, abs=1e-15)
        assert aa.psi == pytest.approx(0.0, abs=1e-15)

    def test_round_trip_random(self, rng):
        for _ in range(200):
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            aa = angle_action_map(alpha, beta)
            a2, b2 = angle_action_inverse(aa.action, aa.theta, aa.phi, aa.psi)
            assert abs(a2 - alpha) < 1e-12
            assert abs(b2 - beta) < 1e-12

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            angle_action_map(0j, 0j)
