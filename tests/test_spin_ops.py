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
    bloch_to_rho,
    gibbs_state,
    make_spin_operators,
    nbar_from_temperature,
)
from spinwehrl.spin_ops import check_density_entries
from oracles import temperature_from_nbar


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
    def test_huge_component_rejected_without_overflow(self):
        with pytest.raises(NonPhysicalState):
            BlochVector(0.0, 0.0, 1e300)

    def test_maximally_mixed(self):
        rho = bloch_to_rho(BlochVector(0, 0, 0))
        assert np.allclose(rho.entries, 0.5 * np.eye(2))

    def test_pure_z(self):
        rho = bloch_to_rho(BlochVector(0, 0, 1))
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]))

    def test_pure_x(self):
        rho = bloch_to_rho(BlochVector(1, 0, 0))
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))

    def test_overlong_vector_rejected(self):
        with pytest.raises(NonPhysicalState):
            BlochVector(0.9, 0.9, 0.9)

    @pytest.mark.parametrize("excess", [1e-13, 1e-11, 1.9e-10, 2.1e-10, 1e-9])
    def test_same_length_bound_as_the_density_matrix(self, excess):
        # (1 + t sigma_x)/2 has eigenvalue -excess/2: both checks accept it
        # down to EIGENVALUE_FLOOR, and refuse it below.
        t = 1.0 + excess
        accepted = []
        for build in (
            lambda: DensityMatrix(SpinQuantumNumber(1), np.array([[1.0, t], [t, 1.0]], dtype=complex) / 2),
            lambda: BlochVector(t, 0.0, 0.0),
            lambda: BlochVector(0.0, 0.0, -t),
            lambda: BlochVector(*(t * np.array([0.48, 0.64, -0.6]))),
        ):
            try:
                build()
                accepted.append(True)
            except NonPhysicalState:
                accepted.append(False)
        assert accepted == [excess < 2e-10] * 4


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

    def test_non_finite_rejected(self):
        with pytest.raises(NonPhysicalState, match="non-finite"):
            DensityMatrix(SpinQuantumNumber(1), np.diag([math.nan, 1.0]).astype(complex))

    def test_stack_is_checked_with_the_same_bounds(self):
        good = np.stack([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])]).astype(complex)
        check_density_entries(good)
        for bad in (np.diag([1.2, -0.2]), np.diag([0.6, 0.6]), np.array([[0.5, 0.1], [0.3, 0.5]])):
            with pytest.raises(NonPhysicalState):
                DensityMatrix(SpinQuantumNumber(1), bad.astype(complex))
            with pytest.raises(NonPhysicalState):
                stack = np.stack([good[0], bad, good[1]]).astype(complex)
                check_density_entries(stack)


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
        up, down = rho.populations()
        assert up - down == pytest.approx(-math.tanh(0.5), abs=1e-14)

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
        rho = gibbs_state(j, omega, temp)
        assert rho.populations() @ ms == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_commutes_with_jz_exactly(self, two_j):
        rho = gibbs_state(SpinQuantumNumber(two_j), omega=0.7, temperature=2.3)
        off = rho.entries - np.diag(rho.entries.diagonal())
        assert np.all(off == 0)


class TestOccupation:
    def test_zero_temperature(self):
        assert nbar_from_temperature(1.0, 0.0) == 0.0

    def test_unbounded_occupation_rejected(self):
        with pytest.raises(NonPhysicalState):
            nbar_from_temperature(1e-73, 1e300)

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
