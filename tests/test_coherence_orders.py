"""The layers after evolve work per coherence order: D(rho) order by order,
validation and von Neumann eigenvalues on the populations of a
J_z-diagonal stack and on any other stack whole, and the Husimi transform
on the pair tables up to the largest order. Each is checked against the
dense computation it replaces, in the hard regimes: pure states, T = 0,
orders without 1, and 2J up to 40."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from spinwehrl import (
    BlochVector,
    DensityMatrix,
    DissipatorSpec,
    HamiltonianSpec,
    NonPhysicalState,
    SpinQuantumNumber,
    bloch_to_rho,
    evolve,
    gibbs_state,
    husimi_chunks,
    make_grid,
    von_neumann_rates,
)
from spinwehrl import _kernels, phase_space
from spinwehrl.cli import _write_states_csv
from spinwehrl.dynamics import Trajectory, _order_dissipation, dissipation
from spinwehrl.entropy_rates import (
    EIG_LOG_FLOOR,
    _spohn_rates,
    bath_at,
    spin_half_damping_von_neumann,
    spin_half_dephasing_von_neumann,
)
from spinwehrl.phase_space import wehrl_entropy, wehrl_entropy_spin_half
from spinwehrl.spin_ops import (
    _from_order_diagonals,
    _order_diagonals,
    check_density_entries,
    coherence_orders,
    order_layout,
)
from oracles import dense_dissipator, dense_von_neumann_ds, savetxt_csv

# (2J, coherence orders): J_z-diagonal, even orders only, orders without 1
# that still join every index (2J = 5: 0-3-5-2 and 1-4), and full.
ORDER_SETS = [
    (1, (0,)), (1, (0, 1)),
    (4, (0,)), (4, (0, 2)), (4, (0, 1, 2, 3, 4)),
    (5, (0, 3, 5)),
    (12, (0,)), (12, (0, 2)), (12, tuple(range(13))),
    (40, (0,)), (40, (0, 2)), (40, tuple(range(41))),
]
N_STATES = 7


def block_state(two_j: int, orders: tuple, rng) -> np.ndarray:
    """A random full-rank state whose coherence orders are exactly orders:
    random entries on their diagonals, made positive by diagonal
    dominance."""
    d = two_j + 1
    i, k = np.indices((d, d))
    rho = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * np.isin(np.abs(i - k), orders)
    rho = 0.5 * (rho + rho.conj().T)
    rho[i == k] = np.abs(rho).sum(axis=1) + 0.1
    return rho / np.trace(rho).real


def block_stack(two_j: int, orders: tuple, rng, n: int = N_STATES) -> np.ndarray:
    return np.stack([block_state(two_j, orders, rng) for _ in range(n)])


def assert_relative(got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rtol * scale, (np.max(np.abs(got - want)) / scale)


def gathered_orders(rho) -> tuple:
    """The coherence orders by the rule that coherence_orders replaced:
    every diagonal gathered, then any nonzero entry on each."""
    x = _order_diagonals(rho, range(np.shape(rho)[-1]))
    return tuple(np.flatnonzero(np.any(x, axis=tuple(range(x.ndim - 3)) + (-2, -1))).tolist())


class TestOrders:
    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    def test_orders_of_a_block_state(self, two_j, orders, rng):
        stack = block_stack(two_j, orders, rng)
        assert coherence_orders(stack) == orders == gathered_orders(stack)
        assert coherence_orders(stack[0]) == orders == gathered_orders(stack[0])

    def test_edge_stacks_match_the_gathered_rule(self, rng):
        nan_stack = block_stack(4, (0, 2), rng)
        nan_stack[3, 4, 1] = math.nan  # a NaN entry counts as nonzero, on order 3
        coherent = np.stack([bloch_to_rho(BlochVector(0.3, -0.2, 0.1)).entries] * 700)
        gapped = np.zeros((1001, 1001), dtype=complex)
        gapped[0, 1000] = gapped[500, 0] = 1.0
        cases = [(nan_stack, (0, 2, 3)), (np.zeros((5, 5)), ()), (np.zeros((3, 5, 5)), ()),
                 (coherent, (0, 1)), (gapped, (500, 1000)), (np.eye(1001), (0,))]
        for rho, want in cases:
            assert coherence_orders(rho) == want == gathered_orders(rho)

    @pytest.mark.parametrize("two_j, orders", [(4, (0,)), (4, (0, 2)), (12, (0, 2)), (5, (0, 3, 5))])
    def test_a_covariant_generator_keeps_the_orders(self, two_j, orders, rng):
        rho0 = DensityMatrix(SpinQuantumNumber(two_j), block_state(two_j, orders, rng))
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.3), DissipatorSpec.amplitude_damping(0.7, 0.4),
                      np.linspace(0.0, 1.0, 6))
        assert traj.orders == orders
        i, k = np.indices(rho0.entries.shape)
        assert not np.any(traj.entries[:, ~np.isin(np.abs(i - k), orders)])

    def test_the_rotating_field_keeps_every_order(self):
        rho0 = bloch_to_rho(BlochVector(0.0, 0.0, 0.6))
        traj = evolve(rho0, HamiltonianSpec.rotating_field(1.0, 0.5, 1.0), DissipatorSpec.dephasing(0.3),
                      np.linspace(0.0, 1.0, 6))
        assert traj.orders == (0, 1)


class TestOrderDiagonals:
    """The one gather, the one scatter and the one map of the order-diagonal
    layout (spin_ops._order_diagonals, _from_order_diagonals,
    order_layout)."""

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    def test_round_trip_bit_for_bit(self, two_j, orders, rng):
        stack = block_stack(two_j, orders, rng)
        for rho in (stack, stack[0]):
            back = _from_order_diagonals(_order_diagonals(rho, orders), orders)
            assert back.shape == rho.shape and back.tobytes() == rho.tobytes()

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    def test_the_map_places_every_entry_on_the_orders(self, two_j, orders):
        d = two_j + 1
        stack = block_stack(two_j, orders, np.random.default_rng(two_j))
        position, slot = order_layout(d, orders)
        assert order_layout(d, orders) is order_layout(d, orders)  # cached
        assert not position.flags.writeable and not slot.flags.writeable
        a, b = np.divmod(np.arange(d * d), d)
        assert position.tolist() == np.flatnonzero(np.isin(np.abs(a - b), orders)).tolist()
        flat = stack.reshape(len(stack), -1)
        # The slot of each entry holds it; every entry off the map is zero.
        x = np.ascontiguousarray(_order_diagonals(stack, orders)).reshape(len(stack), -1)
        assert x[:, slot].tobytes() == np.ascontiguousarray(flat[:, position]).tobytes()
        assert not np.any(np.delete(flat, position, axis=1))

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    def test_the_dump_columns_are_the_dense_entries_at_the_maps_positions(self, two_j, orders, tmp_path):
        stack = block_stack(two_j, orders, np.random.default_rng(100 + two_j))
        n, d, _ = stack.shape
        traj = Trajectory(times=np.linspace(0.0, 1.0, n), diagonals=_order_diagonals(stack, orders),
                          max_trace_drift=0.0, max_hermiticity_drift=0.0, orders=orders)
        position, values = traj.order_entries()
        assert position.tobytes() == order_layout(d, orders)[0].tobytes()
        assert values.tobytes() == np.ascontiguousarray(stack.reshape(n, -1)[:, position]).tobytes()
        header = ["t"] + [f"{part}_rho_{a}{b}" for a in range(d) for b in range(d) for part in ("re", "im")]
        savetxt_csv(tmp_path / "dense.csv", header, np.column_stack([traj.times, stack.reshape(n, -1).view(float)]))
        _write_states_csv(SimpleNamespace(trajectory=traj), tmp_path / "states.csv")
        assert (tmp_path / "states.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    @pytest.mark.parametrize("two_j, orders", [(1, (0, 1)), (4, (0, 2)), (5, (0, 3, 5)), (12, tuple(range(13)))])
    def test_entries_beyond_the_diagonal_are_zero(self, two_j, orders, rng):
        # A dense stack: every slot past the end of its diagonal, i >= d - k,
        # comes back 0, not an entry of the matrix.
        d = two_j + 1
        stack = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        x = _order_diagonals(stack, orders)
        assert x.shape == (3, len(orders), d, 2)
        for idx, k in enumerate(orders):
            assert x[:, idx, : d - k, 0].tobytes() == stack.diagonal(-k, 1, 2).tobytes()
            assert x[:, idx, : d - k, 1].tobytes() == stack.diagonal(k, 1, 2).tobytes()
            assert not np.any(x[:, idx, d - k :])


class TestDissipationPerOrder:
    """D(rho) order by order matches the dense dissipators to 1e-14 of its
    largest entry, at a constant and at a time-dependent rate."""

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    @pytest.mark.parametrize("kind", ["constant", "time_dependent", "zero_temperature"])
    def test_damping(self, two_j, orders, kind, rng):
        stack = block_stack(two_j, orders, rng)
        times = np.linspace(0.0, 1.0, len(stack))
        if kind == "time_dependent":
            d = DissipatorSpec.time_dependent_damping(lambda t: 0.3 + np.sin(3.0 * t) ** 2, nbar=0.25)
        else:
            d = DissipatorSpec.amplitude_damping(1.7, 0.0 if kind == "zero_temperature" else 0.6)
        assert_relative(dissipation(stack, d, times), dense_dissipator(stack, d, times), 1e-14)

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    def test_dephasing_is_the_dense_dissipator_bit_for_bit(self, two_j, orders, rng):
        stack = block_stack(two_j, orders, rng)
        d = DissipatorSpec.dephasing(0.9)
        assert np.array_equal(dissipation(stack, d, 0.0), dense_dissipator(stack, d, 0.0))

    def test_no_damping_builds_no_band(self):
        # At nbar = 8e307 the unit-rate bands overflow; gamma = 0 needs none.
        stack = block_stack(4, (0, 2), np.random.default_rng(3))
        with np.errstate(all="raise"):
            d_rho = dissipation(stack, DissipatorSpec.amplitude_damping(0.0, 8e307), 0.0)
        assert not np.any(d_rho)


class TestValidationPerBlock:
    def test_a_diagonal_stack_at_the_eigenvalue_floor(self):
        good = np.diag([0.5, 0.3, 0.2 + 5e-11, -5e-11]).astype(complex)
        bad = np.diag([0.5, 0.3, 0.2 + 2e-10, -2e-10]).astype(complex)
        check_density_entries(np.stack([good, good]))
        DensityMatrix(SpinQuantumNumber(3), good)
        for refuse in (lambda: check_density_entries(np.stack([good, bad, good])),
                       lambda: DensityMatrix(SpinQuantumNumber(3), bad)):
            with pytest.raises(NonPhysicalState, match=r"^matrix has negative eigenvalue -2\.000e-10$"):
                refuse()

    def test_a_negative_eigenvalue_inside_the_even_block(self):
        # Every population is positive and the odd block is positive; the
        # even block (0, 2, 4) has the eigenvalue -0.069.
        rho = np.diag([0.3, 0.2, 0.1, 0.2, 0.2]).astype(complex)
        rho[0, 2] = rho[2, 0] = 0.25
        orders = (0, 2)
        assert coherence_orders(rho) == orders
        lo = np.linalg.eigvalsh(rho)[0]
        assert lo < -1e-3
        good = block_state(4, orders, np.random.default_rng(1))
        with pytest.raises(NonPhysicalState, match=f"negative eigenvalue {lo:.3e}"):
            check_density_entries(np.stack([good, rho]))
        with pytest.raises(NonPhysicalState, match="negative eigenvalue"):
            DensityMatrix(SpinQuantumNumber(4), rho)

    @pytest.mark.parametrize("orders, entry", [((0,), (2, 2)), ((0, 2), (3, 1)), ((0, 1, 2, 3, 4), (0, 1))])
    def test_a_non_finite_entry_is_refused_on_every_path(self, orders, entry):
        for value in (math.nan, math.inf):
            rho = block_state(4, orders, np.random.default_rng(2))
            rho[entry] = value
            with pytest.raises(NonPhysicalState, match="non-finite"):
                check_density_entries(rho[None])
            with pytest.raises(NonPhysicalState, match="non-finite"):
                DensityMatrix(SpinQuantumNumber(4), rho)

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    def test_a_hermiticity_defect_is_found_in_its_block(self, two_j, orders, rng):
        stack = block_stack(two_j, orders, rng)
        stack[-1, -1, -1] += 1e-9j
        with pytest.raises(NonPhysicalState, match=r"not Hermitian \(defect 2\.000e-09\)"):
            check_density_entries(stack)


class TestVonNeumannPerBlock:
    """von_neumann_rates, on the populations of a J_z-diagonal stack and on
    any other stack whole, matches one dense eigh per state of the dense
    dissipator's D(rho) to 1e-14 of the largest rate."""

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    @pytest.mark.parametrize("kind", ["damping", "dephasing"])
    def test_matches_dense_eigh(self, two_j, orders, kind, rng):
        stack = block_stack(two_j, orders, rng)
        d = DissipatorSpec.amplitude_damping(1.2, 0.4) if kind == "damping" else DissipatorSpec.dephasing(0.8)
        rates = von_neumann_rates(stack, d, 0.0)
        assert_relative(rates.ds_dt, dense_von_neumann_ds(stack, dense_dissipator(stack, d, 0.0)), 1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nbar", [0.0, 0.5])
    def test_pure_pole_state_takes_the_floor(self, nbar):
        # Twelve zero populations: their logarithms are ln(EIG_LOG_FLOOR).
        j = SpinQuantumNumber(12)
        rho0 = DensityMatrix(j, np.diag([1.0] + [0.0] * 12).astype(complex))
        d = DissipatorSpec.amplitude_damping(1.0, nbar)
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), d, np.linspace(0.0, 0.5, 6))
        assert traj.orders == (0,)
        rates = von_neumann_rates(traj.entries, d, traj.times)
        d_rho = dense_dissipator(traj.entries, d, traj.times)
        assert_relative(rates.ds_dt, dense_von_neumann_ds(traj.entries, d_rho), 1e-14)
        # At t = 0 only D's population 1, (nbar + 1) 2J, meets a zero population.
        assert rates.ds_dt[0] == pytest.approx(-(nbar + 1.0) * 12.0 * math.log(EIG_LOG_FLOOR), rel=1e-14)
        if nbar == 0.0:  # T = 0: Phi_vN = +inf wherever <J_z> still falls
            assert np.all(rates.phi == math.inf) and np.all(rates.pi == math.inf)
        else:
            assert np.all(np.isfinite(rates.phi))

    @pytest.mark.filterwarnings("error")
    def test_zero_temperature_ground_state(self):
        # At the ground state of T = 0 damping, D(rho) = 0: every rate is 0.
        j = SpinQuantumNumber(12)
        rho0 = DensityMatrix(j, np.diag([0.0] * 12 + [1.0]).astype(complex))
        d = DissipatorSpec.amplitude_damping(1.0, 0.0)
        traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), d, np.linspace(0.0, 0.5, 6))
        assert not np.any(dense_dissipator(traj.entries, d, traj.times))
        rates = von_neumann_rates(traj.entries, d, traj.times)
        assert not np.any(rates.ds_dt) and not np.any(rates.phi) and not np.any(rates.pi)

    def test_gibbs_trajectory(self):
        # A 2J = 4 Gibbs state at T = 2 relaxing to a colder bath: Spohn's
        # production is positive and decays towards the bath's Gibbs state.
        d = DissipatorSpec.amplitude_damping(1.0, 0.5)
        traj = evolve(gibbs_state(SpinQuantumNumber(4), 1.0, 2.0), HamiltonianSpec.static_jz(1.0), d,
                      np.linspace(0.0, 1.0, 5))
        rates = von_neumann_rates(traj, d, traj.times)
        d_rho = dense_dissipator(traj.entries, d, traj.times)
        assert_relative(rates.ds_dt, dense_von_neumann_ds(traj.entries, d_rho), 1e-14)
        want_phi = np.log(0.5 / 1.5) * (d_rho.diagonal(axis1=-2, axis2=-1).real @ traj.j.m_values())
        assert_relative(rates.phi, want_phi, 1e-14)
        assert np.all(rates.pi >= 0.0)
        np.testing.assert_allclose(rates.pi, [1.1292, 0.2968, 0.0740, 0.0175, 0.0039], rtol=0, atol=5e-5)

    def test_rotating_field_trajectory(self):
        # A spin 1/2 with a coherence under the rotating field: every order
        # carries D(rho), and the rates are the spin-1/2 closed forms'.
        d = DissipatorSpec.amplitude_damping(1.0, 0.5)
        traj = evolve(bloch_to_rho(BlochVector(0.5, 0.2, 0.3)), HamiltonianSpec.rotating_field(1.0, 0.7, 1.3), d,
                      np.linspace(0.0, 1.0, 5))
        rates = von_neumann_rates(traj, d, traj.times)
        assert_relative(rates.ds_dt, dense_von_neumann_ds(traj.entries, dense_dissipator(traj.entries, d, traj.times)),
                        1e-14)
        assert np.all(rates.pi >= 0.0)
        closed = spin_half_damping_von_neumann(traj.bloch, bath_at(d, traj.times))
        for name in ("ds_dt", "pi", "phi"):
            assert_relative(getattr(rates, name), getattr(closed, name), 1e-13)


def block_trajectory(two_j: int, orders: tuple, rng, d=DissipatorSpec.amplitude_damping(1.2, 0.4)):
    """A trajectory of eleven states from block_state(two_j, orders) under
    static omega J_z and d, which keep its orders."""
    rho0 = DensityMatrix(SpinQuantumNumber(two_j), block_state(two_j, orders, rng))
    traj = evolve(rho0, HamiltonianSpec.static_jz(1.0), d, np.linspace(0.0, 1.0, 11))
    assert traj.orders == orders
    return traj


class TestFromTheTrajectory:
    """Each public function that takes states reads their coherence orders
    itself: Trajectory.orders from a Trajectory, and coherence_orders of
    a dense stack. On either it is bit for bit the private path on those
    orders, and the two agree bit for bit."""

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    @pytest.mark.parametrize("kind", ["damping", "dephasing"])
    def test_dissipation_and_von_neumann(self, two_j, orders, kind):
        d = DissipatorSpec.amplitude_damping(1.2, 0.4) if kind == "damping" else DissipatorSpec.dephasing(0.8)
        traj = block_trajectory(two_j, orders, np.random.default_rng(two_j), d)
        stack = traj.entries
        assert coherence_orders(stack) == traj.orders == orders
        dx = _order_dissipation(traj.diagonals, d, traj.times, orders)
        d_rho = dissipation(stack, d, traj.times)
        want = _from_order_diagonals(_order_dissipation(_order_diagonals(stack, orders), d, traj.times, orders), orders)
        assert d_rho.tobytes() == want.tobytes() == _from_order_diagonals(dx, orders).tobytes()
        assert dissipation(traj, d, traj.times).tobytes() == d_rho.tobytes()
        rates = von_neumann_rates(traj, d, traj.times)
        dense = von_neumann_rates(stack, d, traj.times)
        private = _spohn_rates(traj.diagonals, dx, orders, d)
        for name in ("ds_dt", "pi", "phi"):
            assert getattr(rates, name).tobytes() == getattr(dense, name).tobytes() == getattr(private, name).tobytes()
        assert_relative(rates.ds_dt, dense_von_neumann_ds(stack, dense_dissipator(stack, d, traj.times)), 1e-14)
        check_density_entries(traj)
        check_density_entries(stack)

    @pytest.mark.parametrize("two_j, orders", ORDER_SETS)
    def test_husimi_fields(self, two_j, orders):
        traj = block_trajectory(two_j, orders, np.random.default_rng(two_j))
        grid = make_grid(24, 48)
        fields = list(husimi_chunks(traj, grid))
        dense = list(husimi_chunks(traj.entries, grid))
        assert len(fields) == len(dense)
        for field, want in zip(fields, dense):
            assert field.coef.tobytes() == want.coef.tobytes()
            assert (field.frame is None) == (want.frame is None)
            if field.frame is not None:
                assert all(a.tobytes() == b.tobytes() for a, b in zip(field.frame, want.frame))

    @pytest.mark.parametrize("two_j, orders", [(t, o) for t, o in ORDER_SETS if len(o) <= t])
    def test_a_trajectory_is_read_on_its_own_orders(self, two_j, orders):
        # A trajectory that carries one order more than its entries hold is
        # transformed on the orders it carries; its dense stack on its own.
        traj = block_trajectory(two_j, orders, np.random.default_rng(two_j))
        wider = tuple(sorted(orders + (max(set(range(two_j + 1)) - set(orders)),)))
        padded = np.zeros((len(traj.times), len(wider), two_j + 1, 2), dtype=complex)
        padded[:, [wider.index(k) for k in orders]] = traj.diagonals
        loose = Trajectory(times=traj.times, diagonals=padded, max_trace_drift=0.0,
                           max_hermiticity_drift=0.0, orders=wider)
        grid = make_grid(24, 48)
        assert coherence_orders(loose.entries) == orders
        assert next(husimi_chunks(loose, grid)).coef.shape[1] == 2 * (max(wider) + 1)
        assert next(husimi_chunks(loose.entries, grid)).coef.shape[1] == 2 * (max(orders) + 1)


class TestProbes:
    """The cases that an orders argument got wrong when it named order 0
    alone for a spin-1/2 state with a coherence."""

    RHO = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)

    def test_a_negative_eigenvalue_off_the_diagonal_is_refused(self):
        with pytest.raises(NonPhysicalState, match=r"^matrix has negative eigenvalue -4\.000e-01$"):
            check_density_entries(np.array([[0.5, 0.9], [0.9, 0.5]]))

    def test_wehrl_entropy(self):
        (chunk,) = husimi_chunks(self.RHO[None], make_grid(24, 48))
        s = wehrl_entropy(chunk)[0]
        assert s == pytest.approx(0.62344474, abs=1e-8)
        assert s == pytest.approx(wehrl_entropy_spin_half(math.sqrt(0.4)), rel=1e-12)

    def test_dephasing_rates_and_dissipator(self):
        d = DissipatorSpec.dephasing(1.0)
        d_rho = dissipation(self.RHO, d, 0.0)
        assert d_rho[0, 1] == d_rho[1, 0] == -0.15
        rates = von_neumann_rates(self.RHO, d, 0.0)
        assert rates.pi == pytest.approx(0.2121724943697506, rel=1e-14)
        assert rates.ds_dt == pytest.approx(dense_von_neumann_ds(self.RHO, dense_dissipator(self.RHO, d, 0.0)), rel=1e-14)
        closed = spin_half_dephasing_von_neumann(BlochVector(0.6, 0.0, 0.2), 1.0)
        assert rates.pi == pytest.approx(closed.pi, rel=1e-13) and rates.phi == 0.0


class TestHusimiChunksFromOrders:
    """husimi_chunks takes the phi decision and its pair table from the
    coherence orders of the states."""

    def transform_of_today(self, stack, grid, n_orders):
        """The fields the transform gave before the orders reached it: the
        full pair table's first n_orders orders, chunked as husimi_chunks
        (a spin-1/2 stack with a coherence by its coefficients and frame
        rows)."""
        j = SpinQuantumNumber(stack.shape[-1] - 1)
        full = phase_space._amplitude_table(j.two_j, j.dim, grid.theta_nodes, grid.phi_nodes)[0]
        if n_orders == 1:
            per_chunk = phase_space._CHUNK_NODES // (2 * grid.n_theta)
        elif j.two_j == 1:
            per_chunk = phase_space._CHUNK_NODES // (6 * grid.n_theta)
        else:
            per_chunk = max(1, phase_space._CHUNK_NODES // grid.n_nodes)
        return [_kernels.husimi_contract(full[:, :n_orders], _order_diagonals(stack[s : s + per_chunk], range(n_orders)))
                for s in range(0, len(stack), per_chunk)]

    @pytest.mark.parametrize("two_j", [1, 4, 12, 40])
    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "coherent"])
    def test_same_fields_bit_for_bit(self, two_j, diagonal, rng):
        grid = make_grid(24, 48)
        orders = (0,) if diagonal else tuple(range(two_j + 1))
        # Two chunks of each kind: 768 diagonal states per chunk on 24 x 48,
        # 256 coherent spin-1/2 states, or 32.
        stack = block_stack(two_j, orders, rng, n=800 if diagonal else 300 if two_j == 1 else 40)
        chunks = [chunk.coef for chunk in husimi_chunks(stack, grid)]
        want = self.transform_of_today(stack, grid, 1 if diagonal else two_j + 1)
        assert len(chunks) == len(want) and all(np.array_equal(a, b) for a, b in zip(chunks, want))

    def test_rows_up_to_the_largest_order(self, rng):
        grid = make_grid(24, 48)
        stack = block_stack(12, (0, 2), rng, n=3)
        (chunk,) = husimi_chunks(stack, grid)
        (full,) = self.transform_of_today(stack, grid, 13)
        assert chunk.coef.shape[1] == 2 * 3
        assert np.array_equal(chunk.coef, full[:, :6])
        assert not np.any(full[:, 6:])

    def test_the_pair_table_is_built_up_to_the_largest_order(self):
        grid = make_grid(24, 48)
        j = SpinQuantumNumber(40)
        pairs, harmonics = grid.amplitude_table(j, 1)
        assert pairs.shape == (2, 1, 41, 24) and harmonics.shape == (2, 48)
        full_pairs, full_harmonics = phase_space._amplitude_table(40, 41, grid.theta_nodes, grid.phi_nodes)
        assert np.array_equal(pairs, full_pairs[:, :1]) and np.array_equal(harmonics, full_harmonics[:2])
        more_pairs, _ = grid.amplitude_table(j, 3)  # a larger request builds a larger table
        assert np.array_equal(more_pairs, full_pairs[:, :3])
        assert grid.amplitude_table(j, 1)[0].shape[1] == 1
