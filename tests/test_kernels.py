"""The separable Husimi transform against the per-node reference contraction."""

import math

import numpy as np
import pytest

from spinwehrl import BathParams, SpinQuantumNumber, husimi, husimi_fields, husimi_of_matrix, make_grid
from spinwehrl import _kernels, phase_space
from spinwehrl.dynamics import DissipatorSpec
from spinwehrl.entropy_rates import RATE_METHODS, damping_phi_quadrature, damping_pi_quadrature, damping_quadrature
from conftest import random_density_matrix


def reference_amplitudes(two_j, grid):
    """<J,m|Omega> and its theta derivative at every node, (n_nodes, 2J+1),
    m descending, straight from the coherent-state formula."""
    jj = 0.5 * two_j
    ms = jj - np.arange(two_j + 1)
    binom = np.array([math.comb(two_j, int(jj + m)) for m in ms], dtype=float)
    c = np.cos(0.5 * grid.theta)[:, None]
    s = np.sin(0.5 * grid.theta)[:, None]
    amp = np.sqrt(binom) * c ** (jj + ms) * s ** (jj - ms) * np.exp(-1j * np.outer(grid.phi, ms))
    damp = amp * 0.5 * ((jj - ms) * c / s - (jj + ms) * s / c)
    return amp, damp, ms


def reference_contraction(amp, damp, ms, mat):
    """Re <Omega|M|Omega> and, for Hermitian M, its angular derivatives:
    one O(d^2) contraction per node."""
    u = amp @ mat.T
    q = np.einsum("ni,ni->n", amp.conj(), u).real
    dq_dtheta = 2.0 * np.einsum("ni,ni->n", damp.conj(), u).real
    um = (amp * ms[None, :]) @ mat.T
    dq_dphi = 2.0 * np.einsum("ni,ni->n", amp.conj(), um).imag
    return q, dq_dtheta, dq_dphi


class TestSeparableTransform:
    @pytest.mark.parametrize("two_j", [1, 2, 5, 12, 40])
    def test_matches_per_node_contraction(self, two_j, rng):
        grid = make_grid(48, 96)
        j = SpinQuantumNumber(two_j)
        amp, damp, ms = reference_amplitudes(two_j, grid)
        for state in [random_density_matrix(j, rng) for _ in range(3)]:
            field = husimi(state, grid)
            q, dth, dph = reference_contraction(amp, damp, ms, state.entries)
            assert np.max(np.abs(field.q - q)) < 1e-13
            assert np.max(np.abs(field.dq_dtheta - dth)) < 1e-13
            assert np.max(np.abs(field.dq_dphi - dph)) < 1e-13

    def test_non_hermitian_matrix(self, rng):
        grid = make_grid(48, 96)
        j = SpinQuantumNumber(4)
        mat = rng.normal(size=(j.dim, j.dim)) + 1j * rng.normal(size=(j.dim, j.dim))
        q, _, _ = reference_contraction(*reference_amplitudes(4, grid), mat)
        assert np.max(np.abs(husimi_of_matrix(mat, j, grid) - q)) < 1e-13

    def test_fields_across_a_chunk_boundary(self, rng):
        grid = make_grid(24, 48)
        j = SpinQuantumNumber(3)
        per_chunk = phase_space._CHUNK_NODES // grid.n_nodes
        states = [random_density_matrix(j, rng) for _ in range(2 * per_chunk + 3)]
        fields = list(husimi_fields(states, grid))
        assert len(fields) == len(states)
        for state, field in zip(states, fields):
            one = husimi(state, grid)
            for name in ("q", "dq_dtheta", "dq_dphi"):
                assert np.max(np.abs(getattr(field, name) - getattr(one, name))) < 1e-14


class TestDampingQuadrature:
    def test_one_reduce_per_state(self, rng, monkeypatch):
        calls = []
        original = _kernels.damping_reduce

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(_kernels, "damping_reduce", counted)
        j = SpinQuantumNumber(4)
        field = husimi(random_density_matrix(j, rng), make_grid(48, 96))
        d = DissipatorSpec.amplitude_damping(1.0, 0.5)
        rates = RATE_METHODS["quadrature"].rates(None, [field], d, np.array([0.0]))
        assert len(calls) == 1
        assert rates.pi.shape == rates.phi.shape == (1,)
        assert np.isfinite(rates.pi[0]) and np.isfinite(rates.phi[0])

    def test_fused_matches_the_split_functions(self, rng):
        j = SpinQuantumNumber(3)
        field = husimi(random_density_matrix(j, rng), make_grid(48, 96))
        bath = BathParams(gamma=1.0, nbar=0.5)
        phi, pi = damping_quadrature(field, bath)
        assert phi == damping_phi_quadrature(field, bath)
        assert pi == damping_pi_quadrature(field, bath)
        assert pi.total == pytest.approx(pi.damping_part + pi.coherence_part, rel=1e-15)
