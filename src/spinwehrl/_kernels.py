"""Hot numeric kernels, in numpy.

The Husimi transform is separable on the product grid (Driscoll & Healy
1994): the coherent-state amplitudes factor as mag_m(theta) e^{-i m phi},
so with b = a + s each theta row of Q is a short phi-Fourier series,

    Q(theta, phi) = Re sum_{s >= 0} c_s(theta) e^{i s phi},
    c_s(theta) = w_s sum_a mag_a(theta) mag_b(theta) rho_ab,

w_0 = 1 and w_s = 2 otherwise. dQ/dtheta follows from the theta derivative
of mag_a mag_b, and dQ/dphi brings down a factor of i s. husimi_contract
forms the coefficients of a stack of states from its order diagonals
rho_{a+s, a} and rho_{a, a+s}, in the layout of the package's one gather
(spin_ops._order_diagonals, as propagation, D(rho) and the Trajectory
hold them), and one product batched over s with the pair tables of
SphereGrid.amplitude_table:
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
a J_z-diagonal one.

A column field's Q depends on one angle: it carries each state's own
frame (phase_space.OwnFrame), tilted from z by beta, in which Q' depends on
theta' alone. A J_z-diagonal field is its own frame, at beta = 0. A
spin-1/2 field with a coherence keeps its lab-frame coefficients, and its
frame's z' axis is each state's Bloch vector b: Q' = (tr + |b| cos
theta')/2, the field of the J_z-diagonal state of the populations
(tr +- |b|)/2. husimi_contract forms both, the lab fields and the own
frames. The reductions read a column field on one theta' column, with
no node rows: every integrand's phi' dependence there is a trigonometric
polynomial of degree <= 2, which the uniform phi' rule integrates exactly,
so the phi' sums are done in closed form. Any other field is a full-grid
field, evaluated on every phi column.

Q is floored at Q_FLOOR wherever it divides or enters a logarithm.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark harness; the numba backend is gone.
USE_NUMBA = False
Q_FLOOR = 1e-300


def husimi_contract(pairs, x):
    """phi-Fourier coefficients of q and dq/dtheta of each matrix M of a
    stack of T, given as its order diagonals x on the orders 0 .. n - 1,
    (T, n, d, 2) (see spin_ops._order_diagonals), as a (2, 2n, T, n_theta)
    array (see the module docstring), for the n orders s that pairs holds.

    pairs is the (2, n, d, n_theta) table of SphereGrid.amplitude_table
    for n orders: pairs[0, s, a] = (w_s / 2) mag_a mag_{a+s} over the
    theta nodes, pairs[1, s, a] its theta derivative, both zero where
    a + s > 2J. x[:, s, a] holds M_{a+s,a} and M_{a,a+s}, zero there too.
    Only the Hermitian part (M + M^dagger)/2 enters, so
    q = Re <Omega|M|Omega> for any M.
    """
    orders = pairs.shape[1]
    lower, upper = x.transpose(3, 1, 0, 2)  # each (s, T, a)
    # conj(M_{a,a+s}) + M_{a+s,a} is 2 conj(H_{a,a+s}) for the Hermitian part H:
    # with the pair weights w_s / 2, its real part gives Re c_s, its imaginary -Im c_s.
    diag = upper.conj()
    diag += lower
    parts = np.concatenate([diag.real, diag.imag], axis=1)  # (s, [re, im] x T, a)
    return np.matmul(parts, pairs).reshape(2, 2 * orders, len(x), -1)


def phi_derivative(coef, out):
    """Coefficients of dQ/dphi from those of Q, into out (a float array of
    coef's shape), returned: row 2s is s times row 2s + 1 of coef, and row
    2s + 1 is -s times row 2s."""
    s = np.arange(len(coef) // 2).reshape(-1, *[1] * (coef.ndim - 1))
    np.multiply(coef[1::2], s, out=out[0::2])
    np.multiply(coef[0::2], -s, out=out[1::2])
    return out


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
# (see husimi_contract). weights are the Gauss-Legendre weights with the
# uniform phi weight folded in. They return raw weighted sums, one per state
# (a scalar for one state); physical prefactors are applied by the caller.
# frame alone picks the branch. Given the OwnFrame of a column field, they
# reduce it on one theta' column of its states' own frames, where g =
# n_phi (dQ'/dtheta')^2 / max(Q', Q_FLOOR) is the phi' sum of a theta' row.
# Without one, they evaluate the node rows they read on every phi column in
# one harmonic product (see node_rows), and sum each row over phi before
# contracting it with a theta vector.
# ---------------------------------------------------------------------------


def _framed_g(frame, harmonics):
    """g of each state of a framed field, (..., n_theta)."""
    q, dq = frame[0][:, 0]
    return harmonics.shape[-1] * (dq * dq / np.maximum(q, Q_FLOOR))


def _inverse_and_squares(rows, harmonics):
    """Given coefficient rows [Q, x, ...] of a field, the sum over the phi
    nodes of x^2 / max(Q, Q_FLOOR) for each row x after the first,
    (rows - 1, ...)."""
    nodes = node_rows(rows, harmonics)
    q, rest = nodes[0], nodes[1:]
    np.maximum(q, Q_FLOOR, out=q)
    np.divide(1.0, q, out=q)
    np.square(rest, out=rest)
    return np.einsum("f...p,...p->f...", rest, q)


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
    2J < n_phi. Only Q, u and dQ/dphi are evaluated at nodes.

    A framed field gives the whole production as pi_damping and 0 as
    pi_coherence. Their sum is, pointwise,

        (r - cos)|grad Q|^2/Q - r (dQ/dphi)^2/Q - 2J sin (u + dQ/dtheta).

    In the own frame |grad Q|^2/Q is g(theta'), cos is cos(beta) cos(theta')
    + sin(beta) sin(theta') cos(phi') and (dQ/dphi)^2/Q is sin^2(beta)
    sin^2(phi') g, so the quadratic part is (1 - sin^2(beta)/2) (r S1 - S2)
    + (1 - cos(beta))^2 S2 / 2, with S1 and S2 the sums of g against weights
    and cos_weights. With u' = dQ'/dtheta' - drift Q', g is n_phi u'^2/Q' +
    n_phi drift (u' + dQ'/dtheta'), and r S1 - S2 is its sum against
    damping_weights, so the production, with @ a sum against a theta vector,
    is

        n_phi (u'^2/Q') @ damping_weights - sin^2(beta)/2 g @ damping_weights
        - n_phi (drift ((u + dQ/dtheta) - (u' + dQ'/dtheta'))) @ damping_weights
        + (1 - cos(beta))^2/2 g @ cos_weights.

    At beta = 0 the frame rows are the lab s = 0 rows, and every term after
    the first is exactly 0: the production is a sum of squares.
    """
    q, dq_dtheta = coef
    if frame is not None:
        own, cos_beta, sin2_beta = frame
        q, dq_dtheta = q[0], dq_dtheta[0]
        own_q, own_dq = own[:, 0]
        n_phi = harmonics.shape[-1]
        u = dq_dtheta - drift * q
        own_u = own_dq - drift * own_q
        pi = (n_phi * (own_u * own_u * (1.0 / np.maximum(own_q, Q_FLOOR)))) @ damping_weights
        pi -= (n_phi * drift * ((u + dq_dtheta) - (own_u + own_dq))) @ damping_weights
        g = _framed_g(frame, harmonics)
        pi -= 0.5 * sin2_beta * (g @ damping_weights)
        pi += 0.5 * (1.0 - cos_beta) ** 2 * (g @ cos_weights)
        return u @ phi_weights, pi, np.zeros_like(pi)
    rows = np.empty((3,) + q.shape)
    rows[0] = q
    np.multiply(q, drift, out=rows[1])
    np.subtract(dq_dtheta, rows[1], out=rows[1])
    phi_derivative(q, rows[2])
    phi = rows[1, 0] @ phi_weights
    pi_damp, pi_coh = _inverse_and_squares(rows, harmonics)
    return phi, pi_damp @ damping_weights, pi_coh @ coherence_weights


def dephasing_reduce(coef, harmonics, weights, frame=None):
    """Raw sum of (dQ/dphi)^2 / Q of each state, Q floored at Q_FLOOR; only
    Q and dQ/dphi are evaluated at nodes. On a framed field the integrand
    is sin^2(beta) sin^2(phi') g, and the sum is sin^2(beta)/2 times that
    of g: exactly 0 at beta = 0."""
    if frame is not None:
        _, _, sin2_beta = frame
        return 0.5 * sin2_beta * (_framed_g(frame, harmonics) @ weights)
    q = coef[0]
    rows = np.empty((2,) + q.shape)
    rows[0] = q
    phi_derivative(q, rows[1])
    (sums,) = _inverse_and_squares(rows, harmonics)
    return sums @ weights
