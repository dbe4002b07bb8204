import math

import numpy as np
import pytest

from spinwehrl import (
    BlochVector,
    DensityMatrix,
    DissipatorSpec,
    HamiltonianSpec,
    NonMarkovianRate,
    NonPhysicalState,
    SpinQuantumNumber,
    StiffnessFailure,
    WrongDimension,
    bloch_to_rho,
    evolve,
    gibbs_state,
    lindblad_rhs,
    make_spin_operators,
    nbar_from_temperature,
)
from spinwehrl import dynamics
from spinwehrl.spin_ops import PAULI_X, PAULI_Y, PAULI_Z, _from_order_diagonals, _order_diagonals
from conftest import random_density_matrix
from oracles import amplitude_damping_dissipator, current_superoperator_f, dephasing_dissipator, temperature_from_nbar


def assert_gather_of_entries(traj):
    """traj.diagonals is, bit for bit, the gather of traj.entries on its orders."""
    gathered = _order_diagonals(traj.entries, traj.orders)
    assert np.ascontiguousarray(traj.diagonals).tobytes() == np.ascontiguousarray(gathered).tobytes()


class TestDephasingDissipator:
    def test_diagonal_states_are_fixed_points(self, rng):
        j = SpinQuantumNumber(4)
        pops = rng.uniform(0.1, 1.0, j.dim)
        pops /= pops.sum()
        out = dephasing_dissipator(np.diag(pops).astype(complex), lam=0.8)
        assert np.max(np.abs(out)) == 0.0

    def test_spin_half_coherence_decay_rate(self):
        # [Jz,[Jz, .]] on the off-diagonal gives (m - m')^2 = 1 for spin 1/2
        rho = bloch_to_rho(BlochVector(0.6, 0.0, 0.2)).entries
        out = dephasing_dissipator(rho, lam=2.0)
        assert out[0, 1] == pytest.approx(-1.0 * rho[0, 1])
        assert out[0, 0] == 0.0 and out[1, 1] == 0.0

    def test_traceless_hermitian(self, rng):
        rho = random_density_matrix(SpinQuantumNumber(3), rng).entries
        out = dephasing_dissipator(rho, lam=1.3)
        assert abs(np.trace(out)) < 1e-14
        assert np.max(np.abs(out - out.conj().T)) < 1e-14


class TestDampingDissipator:
    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_gibbs_state_is_annihilated(self, two_j):
        j = SpinQuantumNumber(two_j)
        omega, nbar = 1.0, 0.7
        rho = gibbs_state(j, omega, temperature_from_nbar(omega, nbar))
        out = amplitude_damping_dissipator(rho.entries, gamma=1.0, nbar=nbar)
        assert np.max(np.abs(out)) < 1e-12

    def test_south_pole_fixed_point_at_zero_temperature(self):
        j = SpinQuantumNumber(3)
        rho = np.zeros((j.dim, j.dim), dtype=complex)
        rho[-1, -1] = 1.0
        out = amplitude_damping_dissipator(rho, gamma=1.0, nbar=0.0)
        assert np.max(np.abs(out)) == 0.0

    def test_excited_population_decay_rate(self):
        # 2x2 oracle at nbar = 0: d rho_ee/dt = -gamma rho_ee
        gamma = 0.9
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = amplitude_damping_dissipator(rho, gamma=gamma, nbar=0.0)
        assert out[0, 0] == pytest.approx(-gamma)
        assert out[1, 1] == pytest.approx(gamma)
        sz = np.diag([1.0, -1.0])
        assert np.trace(sz @ out).real == pytest.approx(-2 * gamma)

    def test_traceless_hermitian(self, rng):
        rho = random_density_matrix(SpinQuantumNumber(4), rng).entries
        out = amplitude_damping_dissipator(rho, gamma=1.1, nbar=0.4)
        assert abs(np.trace(out)) < 1e-13
        assert np.max(np.abs(out - out.conj().T)) < 1e-13


class TestCurrentSuperoperator:
    def test_gibbs_current_vanishes(self):
        j = SpinQuantumNumber(2)
        omega, nbar = 1.0, 1.3
        rho = gibbs_state(j, omega, temperature_from_nbar(omega, nbar))
        out = current_superoperator_f(rho.entries, nbar)
        assert np.max(np.abs(out)) < 1e-14

    def test_identity_state_at_zero_temperature(self):
        j = SpinQuantumNumber(2)
        ops = make_spin_operators(j)
        rho = np.eye(j.dim, dtype=complex) / j.dim
        out = current_superoperator_f(rho, nbar=0.0)
        assert np.allclose(out, ops.jp / j.dim)

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_reconstructs_dissipator(self, two_j, rng):
        # D(rho) = (gamma/2) ([J-, f] - [J+, f^dagger])
        j = SpinQuantumNumber(two_j)
        ops = make_spin_operators(j)
        gamma, nbar = 1.7, 0.6
        for _ in range(34):
            rho = random_density_matrix(j, rng).entries
            f = current_superoperator_f(rho, nbar)
            fd = f.conj().T
            rebuilt = 0.5 * gamma * (
                ops.jm @ f - f @ ops.jm - (ops.jp @ fd - fd @ ops.jp)
            )
            direct = amplitude_damping_dissipator(rho, gamma, nbar)
            assert np.max(np.abs(rebuilt - direct)) < 1e-12


class TestSpecs:
    @pytest.mark.parametrize("spec", [HamiltonianSpec, DissipatorSpec])
    def test_unknown_kind_is_refused(self, spec):
        with pytest.raises(ValueError, match="unknown .* kind 'bogus'"):
            spec(kind="bogus")

    @pytest.mark.parametrize("gamma_t", [None, 0.5])
    def test_time_dependent_damping_needs_a_rate(self, gamma_t):
        # Refused when built, not with a TypeError once evolve reads the rate.
        with pytest.raises(ValueError, match="needs a callable gamma_t"):
            DissipatorSpec(kind="time_dependent_damping", gamma_t=gamma_t)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["lam", "gamma", "nbar"])
    def test_non_finite_dissipator_refused(self, key, value):
        # nan < 0 is False, so a sign test alone lets nan through.
        with pytest.raises(NonPhysicalState, match="finite and non-negative"):
            DissipatorSpec(kind="amplitude_damping", **{key: value})


class TestLindbladRhs:
    def test_trivial_generator(self):
        rho = bloch_to_rho(BlochVector(0.3, 0.2, 0.1)).entries
        out = lindblad_rhs(rho, 0.0, HamiltonianSpec.none(), DissipatorSpec.dephasing(0.0))
        assert np.max(np.abs(out)) == 0.0

    def test_stationary_gibbs(self):
        j = SpinQuantumNumber(2)
        omega, nbar = 1.0, 0.8
        rho = gibbs_state(j, omega, temperature_from_nbar(omega, nbar))
        out = lindblad_rhs(
            rho.entries, 0.0, HamiltonianSpec.static_jz(omega),
            DissipatorSpec.amplitude_damping(1.0, nbar),
        )
        assert np.max(np.abs(out)) < 1e-12

    def test_bloch_equation_oracle(self, rng):
        # independent 3-vector oracle for the rotating field plus dephasing:
        # d tau/dt = h(t) x tau - (lambda/2)(tau_x, tau_y, 0)
        b0, b1, w, lam = 5.0, 1.0, 1.0, 0.7
        h_spec = HamiltonianSpec.rotating_field(b0, b1, w)
        d_spec = DissipatorSpec.dephasing(lam)
        paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0]).astype(complex)]
        for _ in range(10):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 0.9) / np.linalg.norm(v)
            t = rng.uniform(0, 5)
            rho = bloch_to_rho(BlochVector(*v)).entries
            out = lindblad_rhs(rho, t, h_spec, d_spec)
            dtau = np.array([np.trace(p @ out).real for p in paulis])
            field = -np.array([b1 * math.cos(w * t), b1 * math.sin(w * t), b0])
            oracle = np.cross(field, v) - 0.5 * lam * np.array([v[0], v[1], 0.0])
            assert np.max(np.abs(dtau - oracle)) < 1e-12

    def test_negative_rate_rejected(self):
        rho = bloch_to_rho(BlochVector(0, 0, 0.4)).entries
        d = DissipatorSpec.time_dependent_damping(lambda t: -0.1, nbar=0.0)
        with pytest.raises(NonMarkovianRate):
            lindblad_rhs(rho, 1.0, HamiltonianSpec.none(), d)


class TestEvolve:
    def test_trajectory_carries_one_validated_stack(self, rng):
        rho0 = random_density_matrix(SpinQuantumNumber(3), rng)
        t_grid = np.linspace(0.0, 1.0, 6)
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5), t_grid)
        assert traj.entries.shape == (6, 4, 4) and not traj.entries.flags.writeable
        assert traj.j == rho0.j
        # evolve's Hermitizing and trace renormalization of rho0, bit for bit
        herm = 0.5 * (rho0.entries + rho0.entries.conj().T)
        assert np.array_equal(traj.entries[0], herm / np.trace(herm).real)
        assert np.array_equal(traj.populations(), traj.entries.diagonal(axis1=1, axis2=2).real)

    @staticmethod
    def assert_finished_as_dense(monkeypatch, rho0, h, d, propagator, perturb):
        """evolve with its propagator's output perturbed by perturb (the
        propagated order diagonals, or the rotating frame's dense states)
        gives, bit for bit, the dense formulas on the perturbed (n, d, d)
        stack raw: the Hermitian part (raw + raw^dagger)/2 over its trace,
        and both drifts, each nonzero."""
        raws = []

        def perturbed(*args):
            out = perturb(exact(*args))
            raws.append(out if out.ndim == 3 else _from_order_diagonals(out, args[-1]))
            return out

        exact = getattr(dynamics, propagator)
        monkeypatch.setattr(dynamics, propagator, perturbed)
        traj = evolve(rho0, h, d, np.linspace(0.0, 2.0, 51))
        (raw,) = raws
        herm = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        traces = np.trace(herm, axis1=1, axis2=2).real
        assert traj.entries.tobytes() == (herm / traces[:, None, None]).tobytes()
        assert_gather_of_entries(traj)
        assert traj.max_trace_drift == float(np.abs(traces - 1.0).max()) > 0.0
        assert traj.max_hermiticity_drift == float(np.max(np.abs(raw - herm))) > 0.0
        return traj

    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_diagonal_stack_is_finished_on_its_populations(self, two_j, monkeypatch):
        # The propagated populations, order 0 in both of its columns alike,
        # are perturbed so that both drifts are nonzero.
        rng = np.random.default_rng(two_j)
        j = SpinQuantumNumber(two_j)
        rho0 = DensityMatrix(j, np.diag(rng.dirichlet(np.ones(j.dim))).astype(complex))

        def perturb(x):
            noise = rng.normal(size=(2,) + x.shape[::2])
            x[:, 0] *= (1.0 + 1e-12 * noise[0] + 1e-13j * noise[1])[..., None]
            return x

        traj = self.assert_finished_as_dense(monkeypatch, rho0, HamiltonianSpec.static_jz(1.0),
                                             DissipatorSpec.amplitude_damping(1.0, 0.5), "_covariant", perturb)
        assert traj.orders == (0,)

    @pytest.mark.parametrize("propagator", ["_covariant", "_rotating_frame"])
    def test_coherent_stack_is_finished_as_the_dense_formulas(self, propagator, monkeypatch):
        # Every trajectory is finished on its order diagonals: a spin-1/2
        # coherence under a J_z-covariant generator and the rotating frame's
        # states too. The populations are perturbed as above and each side
        # of the coherence apart, so that its Hermitian part is their mean.
        rng = np.random.default_rng(7)
        rho0 = bloch_to_rho(BlochVector(0.3, -0.4, 0.5))
        if propagator == "_covariant":
            h = HamiltonianSpec.static_jz(1.0)

            def perturb(x):
                noise = rng.normal(size=(2,) + x.shape[::2])
                x[:, 0] *= (1.0 + 1e-12 * noise[0] + 1e-13j * noise[1])[..., None]
                x[:, 1] *= 1.0 + 1e-12 * rng.normal(size=x.shape[:1] + x.shape[2:])
                return x
        else:
            h = HamiltonianSpec.rotating_field(1.0, 0.7, 1.3)

            def perturb(raw):
                return raw * (1.0 + 1e-12 * rng.normal(size=raw.shape) + 1e-13j * rng.normal(size=raw.shape))

        traj = self.assert_finished_as_dense(monkeypatch, rho0, h, DissipatorSpec.amplitude_damping(1.0, 0.5),
                                             propagator, perturb)
        assert traj.orders == (0, 1)

    @pytest.mark.parametrize("case", ["diagonal", "even_orders", "coherent", "rotating_field"])
    def test_diagonals_are_the_gather_of_the_states(self, case):
        # The trajectory keeps its order diagonals in the layout of the
        # gather: the populations in both columns of order 0, zeros beyond d - k.
        rng = np.random.default_rng(11)
        j = SpinQuantumNumber(1 if case == "rotating_field" else 6)
        h = HamiltonianSpec.rotating_field(1.0, 0.7, 1.3) if case == "rotating_field" else HamiltonianSpec.static_jz(1.0)
        if case == "diagonal":
            rho0 = DensityMatrix(j, np.diag(rng.dirichlet(np.ones(j.dim))).astype(complex))
        elif case == "even_orders":
            i, k = np.indices((j.dim, j.dim))
            rho0 = DensityMatrix(j, random_density_matrix(j, rng).entries * (np.abs(i - k) % 2 == 0))
        else:
            rho0 = random_density_matrix(j, rng)
        traj = evolve(rho0, h, DissipatorSpec.amplitude_damping(1.0, 0.5), np.linspace(0.0, 1.0, 11))
        assert traj.orders == {"diagonal": (0,), "even_orders": (0, 2, 4, 6)}.get(case, tuple(range(j.dim)))
        assert_gather_of_entries(traj)
        assert np.array_equal(traj.populations(), traj.entries.diagonal(axis1=1, axis2=2).real)

    @pytest.mark.parametrize("h", [HamiltonianSpec.static_jz(1.0), HamiltonianSpec.rotating_field(1.0, 0.7, 1.3)])
    @pytest.mark.parametrize("tau", [(0.0, 0.0, 0.6), (0.3, -0.4, 0.5), (0.0, 0.8, 0.0)])
    def test_bloch_from_the_diagonals_is_the_pauli_contraction(self, h, tau):
        traj = evolve(bloch_to_rho(BlochVector(*tau)), h, DissipatorSpec.amplitude_damping(1.0, 0.5),
                      np.linspace(0.0, 1.0, 11))
        dense = np.einsum("nab,iba->ni", traj.entries, np.stack([PAULI_X, PAULI_Y, PAULI_Z])).real
        assert traj.bloch.tobytes() == dense.tobytes() and not traj.bloch.flags.writeable

    def test_entries_are_scattered_once_on_first_read(self, monkeypatch):
        rng = np.random.default_rng(12)
        calls = []
        original = dynamics._from_order_diagonals

        def counted(x, orders):
            calls.append(orders)
            return original(x, orders)

        monkeypatch.setattr(dynamics, "_from_order_diagonals", counted)
        rho0 = DensityMatrix(SpinQuantumNumber(4), np.diag(rng.dirichlet(np.ones(5))).astype(complex))
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5),
                      np.linspace(0.0, 1.0, 6))
        assert calls == []  # evolve validates a J_z-diagonal trajectory on its populations
        entries = traj.entries
        assert traj.entries is entries and calls == [(0,)]
        assert entries.shape == (6, 5, 5)
        for array in (entries, traj.diagonals):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0, 0] = 1.0

    def test_bloch_series_of_larger_spin_rejected(self, rng):
        rho0 = random_density_matrix(SpinQuantumNumber(2), rng)
        traj = evolve(rho0, HamiltonianSpec.none(), DissipatorSpec.dephasing(1.0), np.linspace(0.0, 1.0, 3))
        with pytest.raises(WrongDimension):
            traj.bloch

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_states_are_a_stiffness_failure(self):
        rho0 = bloch_to_rho(BlochVector(0.3, 0.0, 0.5))
        h = HamiltonianSpec.rotating_field(1.0, 1e300, 1.0)  # its propagator overflows to nan
        with pytest.raises(StiffnessFailure):
            evolve(rho0, h, DissipatorSpec.dephasing(0.1), np.linspace(0.0, 1.0, 3))

    def test_quench_matches_closed_form(self):
        # tau_z(t) = tau_bar_z + exp(-gamma t/|tau_bar_z|)(tau_z(0) - tau_bar_z)
        omega, gamma = 1.0, 1.0
        t_bath, t_init = 1.0, 2.0
        j = SpinQuantumNumber(1)
        nbar = nbar_from_temperature(omega, t_bath)
        tbz = -1.0 / (2 * nbar + 1)
        rho0 = gibbs_state(j, omega, t_init)
        up, down = rho0.populations()
        tz0 = up - down
        t_grid = np.linspace(0, 6, 121)
        traj = evolve(rho0, HamiltonianSpec.static_jz(omega),
                      DissipatorSpec.amplitude_damping(gamma, nbar), t_grid)
        tz = traj.bloch[:, 2]
        expected = tbz + np.exp(-gamma * t_grid / abs(tbz)) * (tz0 - tbz)
        assert np.max(np.abs(tz - expected)) < 1e-8

    def test_dephasing_preserves_populations(self, rng):
        j = SpinQuantumNumber(2)
        rho0 = random_density_matrix(j, rng)
        t_grid = np.linspace(0, 3, 31)
        traj = evolve(rho0, HamiltonianSpec.none(), DissipatorSpec.dephasing(1.0), t_grid)
        p0 = rho0.populations()
        for s in traj.entries:
            assert np.max(np.abs(s.diagonal().real - p0)) < 1e-10

    def test_purity_monotone_under_dephasing(self, rng):
        j = SpinQuantumNumber(3)
        rho0 = random_density_matrix(j, rng)
        traj = evolve(rho0, HamiltonianSpec.none(), DissipatorSpec.dephasing(0.8),
                      np.linspace(0, 4, 41))
        purity = [float(np.trace(s @ s).real) for s in traj.entries]
        assert np.all(np.diff(purity) < 1e-10)

    def test_trace_and_spectrum_along_trajectory(self, rng):
        j = SpinQuantumNumber(2)
        rho0 = random_density_matrix(j, rng)
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0),
                      DissipatorSpec.amplitude_damping(1.0, 0.3),
                      np.linspace(0, 5, 51))
        assert traj.max_trace_drift < 1e-9
        for s in traj.entries:
            assert abs(np.trace(s).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(s).min() > -1e-8

    def test_fixed_point_residual(self):
        j = SpinQuantumNumber(3)
        omega, nbar = 1.0, 0.6
        rho = gibbs_state(j, omega, temperature_from_nbar(omega, nbar))
        res = lindblad_rhs(rho.entries, 0.0, HamiltonianSpec.static_jz(omega),
                           DissipatorSpec.amplitude_damping(1.0, nbar))
        assert np.max(np.abs(res)) <= 1e-12

    def test_input_validation(self):
        rho0 = bloch_to_rho(BlochVector(0, 0, 0.3))
        h = HamiltonianSpec.none()
        d = DissipatorSpec.dephasing(1.0)
        with pytest.raises(ValueError):
            evolve(rho0, h, d, np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(NonPhysicalState):
            DissipatorSpec.amplitude_damping(-1.0, 0.5)

    @pytest.mark.parametrize("t_grid", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [np.nan, 1.0]])
    def test_non_finite_grid_rejected(self, t_grid):
        # refused as a grid, not blamed on the integrator as a nan trace drift
        rho0 = bloch_to_rho(BlochVector(0, 0, 0.3))
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            evolve(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5), np.array(t_grid))
