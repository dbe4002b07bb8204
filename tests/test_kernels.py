"""The separable Husimi transform against the per-node reference contraction,
and the quadrature reductions over chunks of states."""

import math

import numpy as np
import pytest

from spinwehrl import (
    BathParams,
    DensityMatrix,
    SpinQuantumNumber,
    husimi,
    husimi_chunks,
    make_grid,
    wehrl_entropy,
)
from spinwehrl import _kernels, phase_space
from spinwehrl.dynamics import DissipatorSpec, HamiltonianSpec
from spinwehrl.entropy_rates import (
    RATE_METHODS,
    bath_at,
    damping_phi_quadrature,
    damping_pi_quadrature,
    damping_quadrature,
    dephasing_pi_quadrature,
)
from spinwehrl.scenarios import Model, simulate
from conftest import random_density_matrix
from oracles import husimi_of_matrix


def reference_amplitudes(two_j, grid):
    """<J,m|Omega> and its theta derivative at every node,
    (n_theta, n_phi, 2J+1), m descending, straight from the coherent-state
    formula."""
    jj = 0.5 * two_j
    ms = jj - np.arange(two_j + 1)
    binom = np.array([math.comb(two_j, int(jj + m)) for m in ms], dtype=float)
    c = np.cos(0.5 * grid.theta_nodes)[:, None, None]
    s = np.sin(0.5 * grid.theta_nodes)[:, None, None]
    amp = np.sqrt(binom) * c ** (jj + ms) * s ** (jj - ms) * np.exp(-1j * grid.phi_nodes[:, None] * ms)
    damp = amp * 0.5 * ((jj - ms) * c / s - (jj + ms) * s / c)
    return amp, damp, ms


def reference_contraction(amp, damp, ms, mat):
    """Re <Omega|M|Omega> and, for Hermitian M, its angular derivatives:
    one O(d^2) contraction per node."""
    u = amp @ mat.T
    q = np.einsum("...i,...i->...", amp.conj(), u).real
    dq_dtheta = 2.0 * np.einsum("...i,...i->...", damp.conj(), u).real
    um = (amp * ms) @ mat.T
    dq_dphi = 2.0 * np.einsum("...i,...i->...", amp.conj(), um).imag
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
        chunks = list(husimi_chunks(np.stack([s.entries for s in states]), grid))
        assert sum(len(chunk.q) for chunk in chunks) == len(states)
        for name in ("q", "dq_dtheta", "dq_dphi"):
            rows = np.concatenate([getattr(chunk, name) for chunk in chunks])
            for state, row in zip(states, rows):
                assert np.max(np.abs(row - getattr(husimi(state, grid), name))) < 1e-14


def pipeline_rates(d, states, grid):
    """The quadrature's rates of the states, fed by Husimi chunks as in simulate."""
    times = np.linspace(0.0, 1.0, len(states))
    fields = husimi_chunks(np.stack([s.entries for s in states]), grid)
    return RATE_METHODS["quadrature"].rates(None, fields, d, times), times


class TestChunkReduction:
    """A chunk of states reduces to the rates of its states one by one."""

    @pytest.fixture(params=[(24, 48), (192, 384)], ids=["many-per-chunk", "one-per-chunk"])
    def grid_and_states(self, request, rng):
        grid = make_grid(*request.param)
        per_chunk = max(1, phase_space._CHUNK_NODES // grid.n_nodes)
        assert (per_chunk == 1) == (request.param == (192, 384))
        j = SpinQuantumNumber(3)
        return grid, [random_density_matrix(j, rng) for _ in range(2 * per_chunk + 3)]

    def test_dephasing(self, grid_and_states):
        grid, states = grid_and_states
        rates, _ = pipeline_rates(DissipatorSpec.dephasing(0.7), states, grid)
        one = [dephasing_pi_quadrature(husimi(s, grid), 0.7) for s in states]
        np.testing.assert_allclose(rates.pi, one, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("time_dependent", [False, True], ids=["constant-gamma", "gamma-array"])
    def test_damping(self, grid_and_states, time_dependent):
        grid, states = grid_and_states
        nbar = 0.5
        if time_dependent:
            d = DissipatorSpec.time_dependent_damping(lambda t: 1.0 + np.sin(3.0 * np.asarray(t)) ** 2, nbar)
        else:
            d = DissipatorSpec.amplitude_damping(1.3, nbar)
        rates, times = pipeline_rates(d, states, grid)
        one = [damping_quadrature(husimi(s, grid), bath_at(d, t)) for s, t in zip(states, times)]
        np.testing.assert_allclose(rates.phi, [phi for phi, _ in one], rtol=1e-13, atol=0)
        np.testing.assert_allclose(rates.pi, [pi.total for _, pi in one], rtol=1e-13, atol=0)

    def test_wehrl_entropy(self, grid_and_states):
        grid, states = grid_and_states
        stack = np.stack([s.entries for s in states])
        chunked = np.concatenate([wehrl_entropy(chunk) for chunk in husimi_chunks(stack, grid)])
        one = [wehrl_entropy(husimi(s, grid)) for s in states]
        np.testing.assert_allclose(chunked, one, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kind", ["dephasing", "amplitude_damping"])
    def test_one_reduce_per_chunk(self, monkeypatch, kind):
        name = "dephasing_reduce" if kind == "dephasing" else "damping_reduce"
        shapes = []
        original = getattr(_kernels, name)

        def counted(*args):
            shapes.append(args[0].shape)  # the chunk's coefficients
            return original(*args)

        monkeypatch.setattr(_kernels, name, counted)
        grid = make_grid(96, 192)
        per_chunk = phase_space._CHUNK_NODES // grid.n_nodes
        assert 1 < per_chunk < 11
        d = DissipatorSpec.dephasing(1.0) if kind == "dephasing" else DissipatorSpec.amplitude_damping(1.0, 0.5)
        rho0 = DensityMatrix(SpinQuantumNumber(4), np.diag([0.3, 0.25, 0.2, 0.15, 0.1]).astype(complex))
        result = simulate(Model(rho0, HamiltonianSpec.static_jz(1.0), d), t_max=1.0, dt=0.1, grid=grid)
        sizes = [per_chunk] * (11 // per_chunk) + [11 % per_chunk] * (11 % per_chunk > 0)  # 11 states
        assert shapes == [(2, 2 * 5, k, 96) for k in sizes]
        assert result.wehrl.pi.shape == (11,) and np.all(np.isfinite(result.wehrl.pi))


class TestDampingQuadrature:
    def test_fused_matches_the_split_functions(self, rng):
        j = SpinQuantumNumber(3)
        field = husimi(random_density_matrix(j, rng), make_grid(48, 96))
        bath = BathParams(gamma=1.0, nbar=0.5)
        phi, pi = damping_quadrature(field, bath)
        assert phi == damping_phi_quadrature(field, bath)
        assert pi == damping_pi_quadrature(field, bath)
        assert pi.total == pytest.approx(pi.damping_part + pi.coherence_part, rel=1e-15)
