import math

import numpy as np
import pytest

from spinwehrl import (
    BlochVector,
    DensityMatrix,
    DimensionMismatch,
    InvalidFrequency,
    NonPhysicalState,
    SpinQuantumNumber,
    WrongDimension,
    bloch_to_rho,
    expectation,
    gibbs_state,
    make_spin_operators,
    nbar_from_temperature,
    rho_to_bloch,
    temperature_from_nbar,
)
from conftest import random_bloch


class TestSpinOperators:
    def test_spin_half_jz_convention(self):
        ops = make_spin_operators(SpinQuantumNumber(1))
        assert np.allclose(ops.jz, np.diag([0.5, -0.5]))

    def test_spin_half_raising_entry(self):
        ops = make_spin_operators(SpinQuantumNumber(1))
        jp = ops.jp
        assert jp[0, 1] == pytest.approx(1.0)
        assert np.count_nonzero(jp) == 1

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 8])
    def test_commutator_algebra(self, two_j):
        ops = make_spin_operators(SpinQuantumNumber(two_j))
        comm = ops.jx @ ops.jy - ops.jy @ ops.jx
        assert np.max(np.abs(comm - 1j * ops.jz)) < 1e-14
        assert np.max(np.abs(ops.jp - (ops.jx + 1j * ops.jy))) < 1e-14

    def test_ladder_action_on_states(self):
        j = SpinQuantumNumber(3)  # J = 3/2
        ops = make_spin_operators(j)
        ms = j.m_values()
        for k in range(1, j.dim):
            m = ms[k]
            expected = math.sqrt(j.j * (j.j + 1) - m * (m + 1))
            assert ops.jp[k - 1, k] == pytest.approx(expected)


class TestBlochMaps:
    def test_maximally_mixed(self):
        rho = bloch_to_rho(BlochVector(0, 0, 0))
        assert np.allclose(rho.entries, 0.5 * np.eye(2))

    def test_pure_z(self):
        rho = bloch_to_rho(BlochVector(0, 0, 1))
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]))

    def test_pure_x(self):
        rho = bloch_to_rho(BlochVector(1, 0, 0))
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            b = random_bloch(rng)
            back = rho_to_bloch(bloch_to_rho(b))
            assert abs(back.tau_x - b.tau_x) < 1e-14
            assert abs(back.tau_y - b.tau_y) < 1e-14
            assert abs(back.tau_z - b.tau_z) < 1e-14

    def test_overlong_vector_rejected(self):
        with pytest.raises(NonPhysicalState):
            BlochVector(0.9, 0.9, 0.9)

    def test_wrong_dimension_rejected(self):
        j = SpinQuantumNumber(2)
        rho = gibbs_state(j, 1.0, 1.0)
        with pytest.raises(WrongDimension):
            rho_to_bloch(rho)


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(NonPhysicalState):
            DensityMatrix(SpinQuantumNumber(1), bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(NonPhysicalState):
            DensityMatrix(SpinQuantumNumber(1), np.diag([0.6, 0.6]).astype(complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NonPhysicalState):
            DensityMatrix(SpinQuantumNumber(1), np.diag([1.2, -0.2]).astype(complex))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(SpinQuantumNumber(2), np.eye(2, dtype=complex) / 2)


class TestGibbsState:
    def test_zero_temperature_ground_state(self):
        rho = gibbs_state(SpinQuantumNumber(1), omega=1.0, temperature=0.0)
        assert np.allclose(rho.entries, np.diag([0.0, 1.0]))

    def test_infinite_temperature(self):
        rho = gibbs_state(SpinQuantumNumber(1), omega=1.0, temperature=math.inf)
        assert np.allclose(rho.entries, 0.5 * np.eye(2))

    def test_spin_half_magnetization(self):
        # tau_z(t) = -tanh(omega beta / 2) parametrization of a thermal qubit
        rho = gibbs_state(SpinQuantumNumber(1), omega=1.0, temperature=1.0)
        tz = rho_to_bloch(rho).tau_z
        assert tz == pytest.approx(-math.tanh(0.5), abs=1e-14)

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_commutes_with_jz_exactly(self, two_j):
        rho = gibbs_state(SpinQuantumNumber(two_j), omega=0.7, temperature=2.3)
        off = rho.entries - np.diag(rho.entries.diagonal())
        assert np.all(off == 0)


class TestOccupation:
    def test_zero_temperature(self):
        assert nbar_from_temperature(1.0, 0.0) == 0.0

    def test_ln2_crossing(self):
        # beta*omega = ln 2 makes exp(beta omega) - 1 = 1
        assert nbar_from_temperature(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_unit_values(self):
        assert nbar_from_temperature(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.1, 10, 50)
        vals = [nbar_from_temperature(1.0, t) for t in temps]
        assert np.all(np.diff(vals) > 0)

    def test_round_trip(self):
        # omega = 0.7 keeps beta*omega representable over the whole band
        for t in np.logspace(-3, 3, 61):
            n = nbar_from_temperature(0.7, t)
            back = temperature_from_nbar(0.7, n)
            assert back == pytest.approx(t, rel=1e-12)

    def test_far_below_the_splitting(self):
        # exp(omega/T) overflows above omega/T ~ 709.8; nbar is exp(-omega/T) there
        assert nbar_from_temperature(1.0, 1e-3) == 0.0
        assert nbar_from_temperature(1.0, 1.0 / 705.0) == pytest.approx(math.exp(-705.0), rel=1e-15)

    def test_invalid_frequency(self):
        with pytest.raises(InvalidFrequency):
            nbar_from_temperature(0.0, 1.0)
        with pytest.raises(InvalidFrequency):
            temperature_from_nbar(-1.0, 0.5)


class TestExpectation:
    def test_mixed_state_sigma_z(self):
        rho = bloch_to_rho(BlochVector(0, 0, 0))
        sz = np.diag([1.0, -1.0]).astype(complex)
        assert expectation(rho, sz) == pytest.approx(0.0, abs=1e-15)

    def test_excited_state_jz(self):
        rho = bloch_to_rho(BlochVector(0, 0, 1))
        ops = make_spin_operators(SpinQuantumNumber(1))
        assert expectation(rho, ops.jz).real == pytest.approx(0.5)

    def test_thermal_jz_against_partition_function(self):
        # oracle: <J_z> = -d ln Z / d beta via central differences
        j = SpinQuantumNumber(2)
        omega, temp = 1.0, 1.0
        beta = 1.0 / temp
        ms = j.m_values()

        def ln_z(b):
            return math.log(np.sum(np.exp(-b * omega * ms)))

        h = 1e-6
        oracle = -(ln_z(beta + h) - ln_z(beta - h)) / (2 * h) / omega
        ops = make_spin_operators(j)
        rho = gibbs_state(j, omega, temp)
        assert expectation(rho, ops.jz).real == pytest.approx(oracle, abs=1e-8)

    def test_hermitian_expectation_is_real(self, rng):
        from conftest import random_density_matrix

        j = SpinQuantumNumber(3)
        ops = make_spin_operators(j)
        rho = random_density_matrix(j, rng)
        val = expectation(rho, ops.jx)
        assert abs(val.imag) < 1e-12

    def test_dimension_mismatch(self):
        rho = bloch_to_rho(BlochVector(0, 0, 0))
        with pytest.raises(DimensionMismatch):
            expectation(rho, np.eye(3))
