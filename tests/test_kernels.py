"""The separable Husimi transform against the per-node reference contraction,
and the quadrature reductions over chunks of states."""

import math

import numpy as np
import pytest

from spinwehrl import (
    BathParams,
    BlochVector,
    DensityMatrix,
    HusimiField,
    SpinQuantumNumber,
    bloch_to_rho,
    gibbs_state,
    husimi,
    husimi_chunks,
    make_grid,
    spin_half_damping_rates,
    spin_half_dephasing_rates,
    wehrl_entropy,
    wehrl_entropy_spin_half,
)
from spinwehrl import _kernels, phase_space
from spinwehrl.dynamics import DissipatorSpec, HamiltonianSpec
from spinwehrl.entropy_rates import (
    RATE_METHODS,
    _damping_vectors,
    bath_at,
    damping_phi_quadrature,
    damping_pi_quadrature,
    damping_quadrature,
    dephasing_pi_quadrature,
)
from spinwehrl.scenarios import Model, simulate
from conftest import random_density_matrix, random_diagonal_state
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
        for state in [random_density_matrix(j, rng) for _ in range(3)] + [random_diagonal_state(j, rng)]:
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
        stack = np.stack([s.entries for s in states])
        chunks = list(husimi_chunks(stack, grid))
        assert sum(len(chunk.q) for chunk in chunks) == len(states)
        for name in ("q", "dq_dtheta", "dq_dphi"):
            rows = np.concatenate([getattr(chunk, name) for chunk in chunks])
            for state, row in zip(states, rows):
                assert np.max(np.abs(row - getattr(husimi(state, grid), name))) < 1e-14


def pipeline_rates(d, states, grid):
    """The quadrature's rates of the states, fed by Husimi chunks as in simulate."""
    times = np.linspace(0.0, 1.0, len(states))
    stack = np.stack([s.entries for s in states])
    fields = husimi_chunks(stack, grid)
    return RATE_METHODS["quadrature"].rates(None, fields, d, times), times


class TestChunkReduction:
    """A chunk of states reduces to the rates of its states one by one."""

    @pytest.fixture(
        params=[
            ((24, 48), "full-grid"),
            ((192, 384), "full-grid"),
            ((96, 192), "diagonal-2J4"),
            ((96, 192), "diagonal-2J40"),
            ((96, 192), "spin-half"),
        ],
        ids=["many-per-chunk", "one-per-chunk", "diagonal-2J4", "diagonal-2J40-pole", "coherent-spin-half"],
    )
    def grid_and_states(self, request, rng):
        size, layout = request.param
        grid = make_grid(*size)
        if layout == "full-grid":
            per_chunk = max(1, phase_space._CHUNK_NODES // grid.n_nodes)
            assert (per_chunk == 1) == (size == (192, 384))
            j = SpinQuantumNumber(3)
            return grid, [random_density_matrix(j, rng) for _ in range(2 * per_chunk + 3)]
        # A column stack of one state more than a chunk holds (see
        # husimi_chunks), so that its last chunk holds one state.
        if layout == "spin-half":
            j = SpinQuantumNumber(1)
            states = [random_density_matrix(j, rng) for _ in range(phase_space._CHUNK_NODES // (6 * grid.n_theta) + 1)]
            states[1] = bloch_to_rho(BlochVector(0.6, 0.0, 0.8))  # pure
            states[-1] = bloch_to_rho(BlochVector(0.0, 0.0, 0.0))  # b = 0
        else:
            j = SpinQuantumNumber(4 if layout == "diagonal-2J4" else 40)
            states = [random_diagonal_state(j, rng) for _ in range(phase_space._CHUNK_NODES // (2 * grid.n_theta) + 1)]
            if j.two_j == 40:
                pops = rng.uniform(0.05, 1.0, size=j.dim)
                pops *= (1.0 - 5e-5) / (pops.sum() - pops[-1])
                pops[-1] = 5e-5  # the south pole, m = -J
                states[0] = DensityMatrix(j, np.diag(pops).astype(complex))
        stack = np.stack([s.entries for s in states])
        assert [chunk.coef.shape[2] for chunk in husimi_chunks(stack, grid)][1:] == [1]
        return grid, states

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
        np.testing.assert_allclose(rates.pi, [pi for _, pi in one], rtol=1e-13, atol=0)

    def test_wehrl_entropy(self, grid_and_states):
        grid, states = grid_and_states
        stack = np.stack([s.entries for s in states])
        chunks = husimi_chunks(stack, grid)
        chunked = np.concatenate([wehrl_entropy(chunk) for chunk in chunks])
        one = [wehrl_entropy(husimi(s, grid)) for s in states]
        np.testing.assert_allclose(chunked, one, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kind", ["dephasing", "amplitude_damping"])
    def test_one_reduce_per_chunk(self, monkeypatch, kind):
        # A stack with a coherence takes _CHUNK_NODES // n_nodes states per
        # chunk of coefficient rows up to its largest order (here 1); a
        # J_z-diagonal one, which holds only its s = 0 rows,
        # _CHUNK_NODES // (2 n_theta).
        name = "dephasing_reduce" if kind == "dephasing" else "damping_reduce"
        shapes = []
        original = getattr(_kernels, name)

        def counted(*args):
            shapes.append(args[0].shape)  # the chunk's coefficients
            return original(*args)

        monkeypatch.setattr(_kernels, name, counted)
        grid = make_grid(96, 192)
        d = DissipatorSpec.dephasing(1.0) if kind == "dephasing" else DissipatorSpec.amplitude_damping(1.0, 0.5)
        for coherence, rows, per_chunk, n_states in [
            (0.05, 2 * 2, phase_space._CHUNK_NODES // grid.n_nodes, 11),
            (0.0, 2, phase_space._CHUNK_NODES // (2 * 96), 201),
        ]:
            assert 1 < per_chunk < n_states and n_states % per_chunk > 0
            shapes.clear()
            entries = np.diag([0.3, 0.25, 0.2, 0.15, 0.1]).astype(complex)
            entries[0, 1] = entries[1, 0] = coherence
            rho0 = DensityMatrix(SpinQuantumNumber(4), entries)
            dt = 1.0 / (n_states - 1)
            result = simulate(Model(rho0, HamiltonianSpec.static_jz(1.0), d), t_max=1.0, dt=dt, grid=grid)
            sizes = [per_chunk] * (n_states // per_chunk) + [n_states % per_chunk]
            assert shapes == [(2, rows, k, 96) for k in sizes]
            assert result.wehrl.pi.shape == (n_states,) and np.all(np.isfinite(result.wehrl.pi))


def node_array_rates(states, grid, d):
    """(Pi, Phi, S_wehrl) of each state, from its full-grid node arrays
    (husimi(...).q, dq_dtheta and dq_dphi) through grid.integrate."""
    j = states[0].j
    norm = j.dim / (4.0 * np.pi)
    sin, cos = grid.sin_theta[:, None], grid.cos_theta[:, None]
    values = []
    for state in states:
        field = husimi(state, grid)
        q, dq_dtheta, dq_dphi = field.q, field.dq_dtheta, field.dq_dphi
        floored = np.maximum(q, _kernels.Q_FLOOR)
        s_wehrl = -norm * grid.integrate(np.where(q > 0.0, q * np.log(floored), 0.0))
        if d.kind == "dephasing":
            pi, phi = 0.5 * d.lam * norm * grid.integrate(dq_dphi**2 / floored), 0.0
        else:
            r = 2.0 * d.nbar + 1.0
            u = dq_dtheta - j.two_j * q * sin / (r - cos)
            phi = norm * d.gamma * j.j * grid.integrate(-sin * u)
            drift = grid.integrate((r - cos) * u**2 / floored)
            coherence = grid.integrate(dq_dphi**2 * (r * cos - 1.0) * cos / (sin**2 * floored))
            pi = 0.5 * d.gamma * norm * (drift + coherence)
        values.append((pi, phi, s_wehrl))
    return np.array(values).T


def chunked_rates(states, grid, d):
    """(Pi, Phi, S_wehrl) of each state from the quadrature method and
    wehrl_entropy, fed by Husimi chunks as in simulate."""
    rates, _ = pipeline_rates(d, states, grid)
    stack = np.stack([s.entries for s in states])
    s_wehrl = np.concatenate([wehrl_entropy(chunk) for chunk in husimi_chunks(stack, grid)])
    return np.array([rates.pi, rates.phi, s_wehrl])


def assert_series_close(got, want, rel):
    """Each series of got within rel of the largest |value| of want's."""
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= rel * np.max(np.abs(w))


@pytest.fixture
def columns_evaluated(monkeypatch):
    """The number of phi columns of every node evaluation made while the
    test runs."""
    widths = []
    original = _kernels.node_rows

    def recorded(rows, harmonics):
        widths.append(harmonics.shape[-1])
        return original(rows, harmonics)

    monkeypatch.setattr(_kernels, "node_rows", recorded)
    return widths


DISSIPATORS = {
    "damping-nbar0": DissipatorSpec.amplitude_damping(1.3, 0.0),
    "damping-nbar0.5": DissipatorSpec.amplitude_damping(1.3, 0.5),
    "dephasing": DissipatorSpec.dephasing(0.7),
}


class TestOnePhiColumn:
    """J_z-diagonal states have a phi-independent Q and are reduced as
    column fields at zero tilt, with no node rows; any coherence keeps
    every column."""

    @pytest.mark.parametrize("two_j", [1, 4, 12, 40])
    @pytest.mark.parametrize("kind", list(DISSIPATORS))
    def test_diagonal_stack_matches_the_node_arrays(self, two_j, kind, rng, default_grid, columns_evaluated):
        j = SpinQuantumNumber(two_j)
        pure = np.zeros((j.dim, j.dim), dtype=complex)
        pure[0, 0] = 1.0
        states = [random_diagonal_state(j, rng) for _ in range(5)] + [DensityMatrix(j, pure)]
        want = node_array_rates(states, default_grid, DISSIPATORS[kind])
        columns_evaluated.clear()
        got = chunked_rates(states, default_grid, DISSIPATORS[kind])
        assert columns_evaluated == []
        assert_series_close(got, want, 1e-15)

    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_a_diagonal_field_is_its_own_frame(self, two_j, rng, default_grid):
        j = SpinQuantumNumber(two_j)
        stack = np.stack([random_diagonal_state(j, rng).entries for _ in range(3)])
        (chunk,) = husimi_chunks(stack, default_grid)
        assert chunk.frame.coef is chunk.coef
        assert np.all(chunk.frame.cos_beta == 1.0) and np.all(chunk.frame.sin2_beta == 0.0)
        field = husimi(DensityMatrix(j, stack[0]), default_grid)
        assert np.shares_memory(field.frame.coef, field.coef)
        assert np.array_equal(field.frame.coef, field.coef)

    @pytest.mark.parametrize("two_j", [4, 12, 40])
    @pytest.mark.parametrize(
        "nbar, temperature", [(1.0 / (math.e - 1.0), 1.0), (3.0, 1.0 / math.log(4.0 / 3.0))], ids=["nbar-e", "nbar-3"]
    )
    def test_the_baths_gibbs_state_produces_no_entropy(self, two_j, nbar, temperature):
        # A damping run started at the bath's Gibbs state stays there, and
        # its Pi, a sum of squares of a drift that vanishes, is 0 up to
        # roundoff of that drift: no cancellation between large terms.
        j = SpinQuantumNumber(two_j)
        bath = DissipatorSpec.amplitude_damping(1.0, nbar)
        pi = simulate(Model(gibbs_state(j, 1.0, temperature), HamiltonianSpec.static_jz(1.0), bath), 1.0, 0.1).wehrl.pi
        assert len(pi) == 11
        assert np.all((pi >= 0.0) & (pi <= 1e-20))

    def test_dephasing_production_of_a_diagonal_stack_is_zero(self, rng, default_grid):
        j = SpinQuantumNumber(6)
        rates, _ = pipeline_rates(DISSIPATORS["dephasing"], [random_diagonal_state(j, rng) for _ in range(7)], default_grid)
        assert np.all(rates.pi == 0.0)

    @pytest.mark.parametrize("kind", list(DISSIPATORS))
    def test_a_small_coherence_keeps_every_column(self, kind, rng, default_grid, columns_evaluated):
        j = SpinQuantumNumber(4)
        states = []
        for _ in range(3):
            entries = random_diagonal_state(j, rng).entries.copy()
            entries[1, 2] = entries[2, 1] = 1e-3
            states.append(DensityMatrix(j, entries))
        want = node_array_rates(states, default_grid, DISSIPATORS[kind])
        columns_evaluated.clear()
        got = chunked_rates(states, default_grid, DISSIPATORS[kind])
        assert set(columns_evaluated) == {default_grid.n_phi}
        assert_series_close(got, want, 1e-15)

    @pytest.mark.parametrize("kind", list(DISSIPATORS))
    def test_a_chunk_with_one_coherent_state_keeps_every_column(self, kind, rng, default_grid, columns_evaluated):
        j = SpinQuantumNumber(4)
        states = [random_diagonal_state(j, rng), random_density_matrix(j, rng)]
        stack = np.stack([s.entries for s in states])
        assert [len(chunk.coef[0, 0]) for chunk in husimi_chunks(stack, default_grid)] == [2]
        want = node_array_rates(states, default_grid, DISSIPATORS[kind])
        columns_evaluated.clear()
        got = chunked_rates(states, default_grid, DISSIPATORS[kind])
        assert set(columns_evaluated) == {default_grid.n_phi}
        assert_series_close(got, want, 1e-15)


class TestOneDecisionPerStack:
    """husimi_chunks alone decides phi-independence, once per stack: a
    J_z-diagonal stack's fields hold only their s = 0 rows, and any
    coherence keeps all 2d rows in every chunk."""

    @pytest.mark.parametrize("two_j", [1, 4, 12])
    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "coherent"])
    def test_husimi_is_the_one_state_chunk(self, two_j, diagonal, rng, default_grid):
        j = SpinQuantumNumber(two_j)
        state = random_diagonal_state(j, rng) if diagonal else random_density_matrix(j, rng)
        (chunk,) = husimi_chunks(state.entries[None], default_grid)
        assert np.array_equal(husimi(state, default_grid).coef, chunk.coef[:, :, 0])

    @pytest.mark.parametrize("two_j", [1, 4, 12])
    def test_rows_held_by_a_stack(self, two_j, rng, default_grid):
        j = SpinQuantumNumber(two_j)
        diagonal = np.stack([random_diagonal_state(j, rng).entries for _ in range(5)])
        coherent = diagonal.copy()
        coherent[-1, 0, -1] = coherent[-1, -1, 0] = 1e-12
        assert [chunk.coef.shape for chunk in husimi_chunks(diagonal, default_grid)] == [(2, 2, 5, 96)]
        chunks = husimi_chunks(coherent, default_grid)
        assert {chunk.coef.shape[1] for chunk in chunks} == {2 * j.dim}

    @pytest.mark.parametrize("kind", list(DISSIPATORS))
    def test_a_coherence_late_in_the_stack_keeps_every_column(self, kind, rng, default_grid, columns_evaluated):
        j = SpinQuantumNumber(4)
        states = [random_diagonal_state(j, rng) for _ in range(4)] + [random_density_matrix(j, rng)]
        stack = np.stack([s.entries for s in states])
        chunks = list(husimi_chunks(stack, default_grid))
        assert [chunk.coef.shape[1:3] for chunk in chunks] == [(2 * j.dim, 2), (2 * j.dim, 2), (2 * j.dim, 1)]
        assert not chunks[0].coef[:, 2:].any()
        want = node_array_rates(states, default_grid, DISSIPATORS[kind])
        columns_evaluated.clear()
        got = chunked_rates(states, default_grid, DISSIPATORS[kind])
        assert len(columns_evaluated) == 6 and set(columns_evaluated) == {default_grid.n_phi}
        assert_series_close(got, want, 1e-15)


class TestDampingQuadrature:
    def test_fused_matches_the_split_functions(self, rng):
        j = SpinQuantumNumber(3)
        field = husimi(random_density_matrix(j, rng), make_grid(48, 96))
        bath = BathParams(gamma=1.0, nbar=0.5)
        phi, pi = damping_quadrature(field, bath)
        assert phi == damping_phi_quadrature(field, bath)
        assert pi == damping_pi_quadrature(field, bath)
        _, harmonics = field.grid.amplitude_table(j, j.dim)
        vectors = _damping_vectors(field.grid, j.two_j, bath.nbar)
        _, pi_damping, pi_coherence = _kernels.damping_reduce(field.coef, harmonics, *vectors)
        pref = 0.5 * bath.gamma * j.dim / (4.0 * np.pi)
        assert pi == pytest.approx(pref * pi_damping + pref * pi_coherence, rel=1e-15)


def bloch_stack(rng, length, n=20):
    """(n, 3) Bloch vectors of length `length` in random directions, and
    their (n, 2, 2) spin-1/2 states."""
    directions = rng.normal(size=(n, 3))
    taus = length * directions / np.linalg.norm(directions, axis=1)[:, None]
    return taus, np.stack([bloch_to_rho(BlochVector(*tau)).entries for tau in taus])


FRAMED_DISSIPATORS = {
    "dephasing": DissipatorSpec.dephasing(0.7),
    "damping-nbar0": DissipatorSpec.amplitude_damping(1.3, 0.0),
    "damping-nbar1": DissipatorSpec.amplitude_damping(1.3, 1.0),
}


def framed_rates(stack, grid, d):
    """The quadrature's (pi, phi) of a spin-1/2 stack, as in compare."""
    states = [DensityMatrix(SpinQuantumNumber(1), rho) for rho in stack]
    rates, _ = pipeline_rates(d, states, grid)
    return rates.pi, rates.phi


def closed_form_rates(taus, d):
    if d.kind == "dephasing":
        rates = spin_half_dephasing_rates(taus, d.lam)
    else:
        rates = spin_half_damping_rates(taus, BathParams(d.gamma, d.nbar))
    return rates.pi, rates.phi


class TestOwnFrame:
    """A spin-1/2 stack with a coherence is reduced on one theta' column of
    each state's own frame (phase_space.OwnFrame)."""

    @pytest.mark.parametrize(
        "purity_gap, tol",
        [(0.5, 1e-13), (0.1, 1e-13), (0.02, 1e-13), (0.0, 1e-13), (1e-3, 5e-5), (1e-6, 5e-5)],
    )
    @pytest.mark.parametrize("kind", list(FRAMED_DISSIPATORS))
    def test_closed_forms(self, purity_gap, tol, kind, default_grid):
        # Pi relative to each state's own, Phi to the largest |Phi|, at
        # 1 - |tau| = purity_gap. A pure state's integrands are polynomials
        # in cos(theta'), which Gauss-Legendre integrates exactly. The
        # directions come from a generator of the test's own, so that they
        # do not depend on the draws of the tests run before it.
        d = FRAMED_DISSIPATORS[kind]
        taus, stack = bloch_stack(np.random.default_rng(373), 1.0 - purity_gap)
        pi, phi = framed_rates(stack, default_grid, d)
        want_pi, want_phi = closed_form_rates(taus, d)
        assert np.max(np.abs(pi - want_pi) / want_pi) <= tol
        assert np.max(np.abs(phi - want_phi)) <= tol * np.max(np.abs(want_phi))

    @pytest.mark.parametrize("purity_gap", [0.5, 0.1, 0.02])
    def test_matches_the_full_grid_kernels(self, purity_gap, rng, default_grid):
        _, stack = bloch_stack(rng, 1.0 - purity_gap)
        (field,) = husimi_chunks(stack, default_grid)
        assert field.frame is not None
        harmonics, weights = field.harmonics, default_grid.theta_weights
        framed = _kernels.dephasing_reduce(field.coef, harmonics, weights, field.frame)
        full = _kernels.dephasing_reduce(field.coef, harmonics, weights)
        assert np.max(np.abs(framed - full)) <= 1e-13 * np.max(full)
        for nbar in (0.0, 0.5, 1.0):
            vectors = _damping_vectors(default_grid, 1, nbar)
            phi, pi_damping, pi_coherence = _kernels.damping_reduce(field.coef, harmonics, *vectors, field.frame)
            full_phi, full_damping, full_coherence = _kernels.damping_reduce(field.coef, harmonics, *vectors)
            assert not np.any(pi_coherence)
            assert np.array_equal(phi, full_phi)
            full_pi = full_damping + full_coherence
            assert np.max(np.abs(pi_damping - full_pi)) <= 1e-13 * np.max(np.abs(full_pi))

    def test_no_node_rows(self, rng, default_grid, columns_evaluated):
        _, stack = bloch_stack(rng, 0.9, n=150)  # three chunks
        for d in FRAMED_DISSIPATORS.values():
            framed_rates(stack, default_grid, d)
        assert columns_evaluated == []

    def test_a_small_tilt_keeps_its_relative_accuracy(self, rng, default_grid):
        # sin^2(beta) is formed from the transverse Bloch components, not as
        # 1 - cos^2(beta), so a 1e-9 coherence keeps its digits; b = 0 is
        # its own frame.
        taus, stack = bloch_stack(rng, 0.5, n=4)
        taus[:2] = [[1e-9, 0.0, 0.6], [0.0, 0.0, 0.0]]
        stack[:2] = [bloch_to_rho(BlochVector(*tau)).entries for tau in taus[:2]]
        d = FRAMED_DISSIPATORS["dephasing"]
        pi, _ = framed_rates(stack, default_grid, d)
        want, _ = closed_form_rates(taus, d)
        assert pi[1] == 0.0
        assert abs(pi[0] - want[0]) <= 1e-13 * want[0]
        for kind in ("damping-nbar0", "damping-nbar1"):
            d = FRAMED_DISSIPATORS[kind]
            pi, phi = framed_rates(stack, default_grid, d)
            want_pi, want_phi = closed_form_rates(taus, d)
            assert np.max(np.abs(pi - want_pi) / want_pi) <= 1e-13
            assert np.max(np.abs(phi - want_phi)) <= 1e-13 * np.max(np.abs(want_phi))

    @pytest.mark.parametrize("length", [None, 1.0, 1.0 - 1e-9, 0.0], ids=["random", "pure", "gap-1e-9", "b=0"])
    def test_a_frame_is_the_transform_of_its_own_frame_states(self, length, rng, default_grid):
        # Bit for bit: the frame rows are the s = 0 rows of the J_z-diagonal
        # states diag((tr + |b|)/2, (tr - |b|)/2), with the populations
        # formed from the same entries.
        if length is None:
            stack = np.stack([random_density_matrix(SpinQuantumNumber(1), rng).entries for _ in range(5)])
        else:
            _, stack = bloch_stack(rng, length, n=5)
        (field,) = husimi_chunks(stack, default_grid)
        trace = (stack[:, 0, 0] + stack[:, 1, 1]).real
        b_z = (stack[:, 0, 0] - stack[:, 1, 1]).real
        b = np.sqrt(np.abs(stack[:, 1, 0] + stack[:, 0, 1].conj()) ** 2 + b_z * b_z)
        populations = 0.5 * (trace[:, None] + np.outer(b, [1.0, -1.0]))
        own = np.zeros_like(stack)
        own[:, 0, 0], own[:, 1, 1] = populations.T
        (own_field,) = husimi_chunks(own, default_grid)
        assert field.frame.coef.tobytes() == own_field.coef.tobytes()

    def test_frames_are_one_column_fields(self, rng, default_grid):
        # The frame rows are a J_z-diagonal field of the turned states: the
        # Wehrl entropy, which a rotation keeps, matches the lab field's.
        _, stack = bloch_stack(rng, 0.8, n=5)
        (field,) = husimi_chunks(stack, default_grid)
        turned = HusimiField(default_grid, SpinQuantumNumber(1), field.frame.coef)
        assert field.frame.coef.shape == (2, 2, 5, 96)
        np.testing.assert_allclose(wehrl_entropy(turned), wehrl_entropy(field), rtol=1e-13, atol=0)
        np.testing.assert_allclose(wehrl_entropy(turned), wehrl_entropy_spin_half(0.8), rtol=1e-13, atol=0)
        assert husimi(DensityMatrix(SpinQuantumNumber(1), stack[0]), default_grid).frame.cos_beta == field.frame.cos_beta[0]
