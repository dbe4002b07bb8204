"""Hot numeric kernels, in numpy.

The Husimi transform is separable on the product grid (Driscoll & Healy
1994): the coherent-state amplitudes factor as mag_m(theta) e^{-i m phi},
so with b = a + s each theta row of Q is a short phi-Fourier series,

    Q(theta, phi) = Re sum_{s >= 0} c_s(theta) e^{i s phi},
    c_s(theta) = w_s sum_a mag_a(theta) mag_b(theta) rho_ab,

w_0 = 1 and w_s = 2 otherwise. dQ/dtheta follows from the theta derivative
of mag_a mag_b, and dQ/dphi brings down a factor of i s. husimi_contract
forms the coefficients of a stack of states from its order diagonals
rho_{a+s, a} and rho_{a, a+s}, gathered by the package's one gather
(spin_ops._order_diagonals, as propagation and D(rho) read them), and one
product batched over s with the pair tables of SphereGrid.amplitude_table:
O(n_theta d^2) per state, and no Python loop over s. Node values cost one
(rows, 2d) x (2d, n_phi) product with the harmonics, and each consumer
evaluates only the rows it reads.

Coefficient arrays are real and coefficient-major, (2n, ...) for the
orders s = 0 .. n - 1: row 2s multiplies cos(s phi) and row 2s + 1
multiplies sin(s phi), so that Q = sum_s Re(c_s) cos(s phi) - Im(c_s)
sin(s phi). The trailing axes are the states, if any, then the theta rows.

c_s is zero unless s is a coherence order of the states, and a
J_z-covariant generator keeps the orders of its initial state
(dynamics.Trajectory.orders). So phase_space.husimi_chunks hands the
transform the pair tables of the orders up to the largest one alone, from
the orders, without reading the states: n = 2J + 1 for a full state, 1 for
a J_z-diagonal one. A J_z-diagonal field holds only its s = 0 rows, its Q
is phi-independent, and its node rows are evaluated on the first phi
column (phi_columns): each theta row's sum over phi is that column's value
times n_phi, and dQ/dphi is zero.

A spin-1/2 stack with a coherence keeps these lab-frame coefficients, and
its fields also carry each state's own frame (phase_space.OwnFrame), whose
z' axis is the state's Bloch vector b: Q' = (tr + |b| cos theta')/2 depends
on theta' alone, and is held as the s = 0 rows of the populations
(tr +- |b|)/2. The reductions read such a field on one theta' column, with
no node rows at all: every integrand's phi' dependence there is a
trigonometric polynomial of degree <= 2, which the uniform phi' rule
integrates exactly, so the phi' sums are done in closed form.

Q is floored at Q_FLOOR wherever it divides or enters a logarithm.
"""

from __future__ import annotations

import numpy as np

from .spin_ops import _order_diagonals

# Read by the benchmark harness; the numba backend is gone.
USE_NUMBA = False
Q_FLOOR = 1e-300


def husimi_contract(pairs, mats):
    """phi-Fourier coefficients of q and dq/dtheta of each matrix of a
    (T, d, d) stack, as a (2, 2n, T, n_theta) array (see the module
    docstring), for the n orders s = 0 .. n - 1 that pairs holds.

    pairs is the (2, n, d, n_theta) table of SphereGrid.amplitude_table
    for n orders: pairs[0, s, a] = (w_s / 2) mag_a mag_{a+s} over the
    theta nodes, pairs[1, s, a] its theta derivative, both zero where
    a + s > 2J. The shifted diagonals M_{a+s,a} and M_{a,a+s} come from
    one gather of the orders 0 .. n - 1 (spin_ops._order_diagonals), zero
    there too. Only the Hermitian part (M + M^dagger)/2 enters, so
    q = Re <Omega|M|Omega> for any M.
    """
    orders = pairs.shape[1]
    lower, upper = _order_diagonals(mats, range(orders)).transpose(3, 1, 0, 2)  # each (s, T, a)
    # conj(M_{a,a+s}) + M_{a+s,a} is 2 conj(H_{a,a+s}) for the Hermitian part H:
    # with the pair weights w_s / 2, its real part gives Re c_s, its imaginary -Im c_s.
    diag = upper.conj()
    diag += lower
    parts = np.concatenate([diag.real, diag.imag], axis=1)  # (s, [re, im] x T, a)
    return np.matmul(parts, pairs).reshape(2, 2 * orders, len(mats), -1)


def phi_derivative(coef, out):
    """Coefficients of dQ/dphi from those of Q, into out (a float array of
    coef's shape), returned: row 2s is s times row 2s + 1 of coef, and row
    2s + 1 is -s times row 2s."""
    s = np.arange(len(coef) // 2).reshape(-1, *[1] * (coef.ndim - 1))
    np.multiply(coef[1::2], s, out=out[0::2])
    np.multiply(coef[0::2], -s, out=out[1::2])
    return out


def phi_columns(coef, harmonics):
    """(harmonics, copies): the harmonics of the phi columns on which to
    evaluate the node rows of a field with coefficients coef, and how many
    phi nodes each stands for: the first column for all n_phi when the
    field holds only its s = 0 rows, else every column for itself."""
    if coef.shape[1] > 2:
        return harmonics, 1
    return harmonics[:2, :1], harmonics.shape[-1]


def node_rows(rows, harmonics):
    """Node values (f, ..., n_phi) of f stacked coefficient arrays, rows of
    shape (f, 2d, ...): one product with the (2d, n_phi) harmonics
    cos(s phi), sin(s phi) interleaved."""
    n_rows, n_coef = rows.shape[:2]
    flat = rows.reshape(n_rows, n_coef, -1).transpose(0, 2, 1)
    return np.matmul(flat, harmonics).reshape(n_rows, *rows.shape[2:], harmonics.shape[-1])


# ---------------------------------------------------------------------------
# Quadrature reductions of the rate integrands over the coefficients of a
# field, (2, 2n, n_theta) for one state or (2, 2n, k, n_theta) for a chunk
# (see husimi_contract; 2 rows for a J_z-diagonal stack). Each evaluates the
# node rows it reads in one harmonic product (see node_rows), on the phi
# columns of phi_columns, and sums each row over phi before contracting it
# with a theta vector. weights are the Gauss-Legendre weights with the
# uniform phi weight folded in. They return raw weighted sums, one per state
# (a scalar for one state); physical prefactors are applied by the caller.
# Given a frame (coef, cos_beta, sin2_beta), the OwnFrame of a spin-1/2
# field, they reduce it in its states' own frames instead (see the module
# docstring), where g = (dQ'/dtheta')^2 / max(Q', Q_FLOOR) is a theta' row.
# ---------------------------------------------------------------------------


def _framed_g(frame, harmonics):
    """n_phi g of each state of a framed field, (..., n_theta): the sum of
    g over the phi' nodes of each theta' row."""
    q, dq = frame[0][:, 0]
    return harmonics.shape[-1] * (dq * dq / np.maximum(q, Q_FLOOR))


def _inverse_and_squares(rows, coef, harmonics):
    """Given coefficient rows [Q, x, ...] of a field with coefficients
    coef, the sum over the phi nodes of x^2 / max(Q, Q_FLOOR) for each row
    x after the first, (rows - 1, ...), evaluated on the columns of
    phi_columns."""
    harmonics, copies = phi_columns(coef, harmonics)
    nodes = node_rows(rows, harmonics)
    q, rest = nodes[0], nodes[1:]
    np.maximum(q, Q_FLOOR, out=q)
    np.divide(1.0, q, out=q)
    np.square(rest, out=rest)
    return copies * np.einsum("f...p,...p->f...", rest, q)


def damping_reduce(coef, harmonics, drift, phi_weights, damping_weights, coherence_weights, cos_weights, frame=None):
    """(phi, pi_damping, pi_coherence) raw sums of each state. With
    r = 2 nbar + 1, the drift u = dQ/dtheta - 2J Q sin / (r - cos) and Q
    floored at Q_FLOOR in the denominators, the integrands are

    phi:          -sin u,
    pi_damping:   (r - cos) u^2 / Q,
    pi_coherence: (dQ/dphi)^2 (r cos - 1) cos / (sin^2 Q),

    and the theta vectors are drift = 2J sin / (r - cos), phi_weights =
    -n_phi sin weights, damping_weights = (r - cos) weights,
    coherence_weights = (r cos - 1) cos weights / sin^2 and cos_weights =
    cos weights. u's coefficients are dQ/dtheta's less drift times Q's. The
    flux integrand is linear in u, so its sum over the phi nodes of a theta
    row is n_phi times u's s = 0 cosine coefficient, exactly when
    2J < n_phi. Only Q, u and dQ/dphi are evaluated at nodes, and
    pi_coherence is exactly 0 on one phi column.

    A framed field (spin 1/2) gives the whole production as pi_damping and
    0 as pi_coherence. Their sum is, pointwise,

        (r - cos)|grad Q|^2/Q - r (dQ/dphi)^2/Q - 2 sin dQ/dtheta + Q sin^2/(r - cos).

    The last two terms are linear in Q, so they come from the lab s = 0
    rows, as phi does. In the own frame |grad Q|^2/Q is g(theta'), cos is
    cos(beta) cos(theta') + sin(beta) sin(theta') cos(phi') and
    (dQ/dphi)^2/Q is sin^2(beta) sin^2(phi') g, so the quadratic part is
    r (1 - sin^2(beta)/2) S1 - cos(beta) S2, with S1 and S2 the sums of g
    against weights and cos_weights. It is formed as
    (1 - sin^2(beta)/2) (r S1 - S2) + (1 - cos(beta))^2 S2 / 2, where
    r S1 - S2 is the sum of g against damping_weights.
    """
    q, dq_dtheta = coef
    if frame is not None:
        _, cos_beta, sin2_beta = frame
        g = _framed_g(frame, harmonics)
        u = dq_dtheta[0] - drift * q[0]
        pi = (1.0 - 0.5 * sin2_beta) * (g @ damping_weights) + 0.5 * (1.0 - cos_beta) ** 2 * (g @ cos_weights)
        pi += (u + dq_dtheta[0]) @ phi_weights
        return u @ phi_weights, pi, np.zeros_like(pi)
    rows = np.empty((3,) + q.shape)
    rows[0] = q
    np.multiply(q, drift, out=rows[1])
    np.subtract(dq_dtheta, rows[1], out=rows[1])
    phi_derivative(q, rows[2])
    phi = rows[1, 0] @ phi_weights
    pi_damp, pi_coh = _inverse_and_squares(rows, coef, harmonics)
    return phi, pi_damp @ damping_weights, pi_coh @ coherence_weights


def dephasing_reduce(coef, harmonics, weights, frame=None):
    """Raw sum of (dQ/dphi)^2 / Q of each state, Q floored at Q_FLOOR; only
    Q and dQ/dphi are evaluated at nodes, and the sum is exactly 0 on one
    phi column. On a framed field the integrand is sin^2(beta)
    sin^2(phi') g, and the sum is sin^2(beta)/2 times that of g."""
    if frame is not None:
        _, _, sin2_beta = frame
        return 0.5 * sin2_beta * (_framed_g(frame, harmonics) @ weights)
    q = coef[0]
    rows = np.empty((2,) + q.shape)
    rows[0] = q
    phi_derivative(q, rows[1])
    (sums,) = _inverse_and_squares(rows, coef, harmonics)
    return sums @ weights
