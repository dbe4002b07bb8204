"""Hot numeric kernels, in numpy.

The Husimi transform is separable on the product grid (Driscoll & Healy
1994): the coherent-state amplitudes factor as mag_m(theta) e^{-i m phi},
so with b = a + s

    Q(theta, phi) = Re sum_{s >= 0} w_s c_s(theta) e^{i s phi},
    c_s(theta) = sum_a mag_a(theta) mag_b(theta) rho_ab,

w_0 = 1 and w_s = 2 otherwise. dQ/dtheta follows from mag * dmag and
dQ/dphi brings down a factor of i s. Each state costs O(n_theta d^2) for
the coefficients and one (n_theta, 2d) x (2d, n_phi) product for each field.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark harness; the numba backend is gone.
USE_NUMBA = False


def husimi_contract(mag, dmag, cos_sphi, sin_sphi, mats):
    """q, dq/dtheta and dq/dphi of each matrix of a (T, d, d) stack, as
    (T, n_theta * n_phi) arrays on the product grid (theta-major).

    mag, dmag are the (n_theta, d) amplitude moduli and their theta
    derivatives (m descending); cos_sphi, sin_sphi are the (d, n_phi)
    harmonics cos(s phi), sin(s phi) for s = 0 .. d-1. Only the Hermitian
    part (M + M^dagger)/2 enters, so q = Re <Omega|M|Omega> for any M.
    """
    mats = np.asarray(mats, dtype=complex)
    n_mats, d, _ = mats.shape
    n_theta = mag.shape[0]
    herm = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    # coef[field, t, theta, k]: k < d multiplies cos(k phi), k >= d sin((k-d) phi).
    coef = np.empty((3, n_mats, n_theta, 2 * d))
    for s in range(d):
        lo, hi = mag[:, : d - s], mag[:, s:]
        rows = np.concatenate([lo * hi, dmag[:, : d - s] * hi + lo * dmag[:, s:]])
        diag = np.diagonal(herm, s, axis1=1, axis2=2)  # rho_{a, a+s}, (T, d-s)
        c = (1.0 if s == 0 else 2.0) * (np.concatenate([diag.real, diag.imag]) @ rows.T)
        re_q, im_q = c[:n_mats, :n_theta], c[n_mats:, :n_theta]
        re_dth, im_dth = c[:n_mats, n_theta:], c[n_mats:, n_theta:]
        coef[0, :, :, s], coef[0, :, :, d + s] = re_q, -im_q
        coef[1, :, :, s], coef[1, :, :, d + s] = re_dth, -im_dth
        coef[2, :, :, s], coef[2, :, :, d + s] = -s * im_q, -s * re_q
    fields = coef.reshape(-1, 2 * d) @ np.concatenate([cos_sphi, sin_sphi])
    q, dq_dtheta, dq_dphi = fields.reshape(3, n_mats, -1)
    return q, dq_dtheta, dq_dphi


def libm(fn, *args) -> np.ndarray:
    """fn, a function of the math module, element by element over arrays
    that broadcast together. numpy's own loops for atanh, log and pow can
    round differently from the C library in the last bit; the closed forms
    evaluate through this so that their array and scalar results agree bit
    for bit."""
    arrays = np.broadcast_arrays(*args)
    values = map(fn, *(np.ravel(a).tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)


# ---------------------------------------------------------------------------
# Quadrature reductions of the rate integrands over a chunk of states. Node
# arrays are (..., n_theta, n_phi), one row per theta node of the product
# grid, so every theta-dependent factor is one (n_theta,) vector: each term
# is summed over phi, then contracted with its theta vector. weights are the
# Gauss-Legendre weights with the uniform phi weight folded in. They return
# raw weighted sums, one per state (a scalar for a single (n_theta, n_phi)
# field); physical prefactors are applied by the caller.
# ---------------------------------------------------------------------------


def _sum_over_phi(x, y, inv):
    """sum over phi of x * y * inv, without a node-sized temporary."""
    return np.einsum("...p,...p,...p->...", x, y, inv)


def _inverse_floored(q, q_floor):
    """1 / max(q, q_floor), in a new array."""
    inv = np.maximum(q, q_floor)
    return np.divide(1.0, inv, out=inv)


def damping_reduce(q, dq_dtheta, dq_dphi, cos_t, sin_t, weights, two_j, nbar, q_floor):
    """(phi, pi_damping, pi_coherence) raw sums of each state. With
    r = 2 nbar + 1 and Q floored at q_floor in the denominators:

    phi:          sin (2J Q sin / (r - cos) - dQ/dtheta),
    pi_damping:   (2J Q sin + (cos - r) dQ/dtheta)^2 / ((r - cos) Q),
    pi_coherence: (dQ/dphi)^2 (r cos - 1) cos / (sin^2 Q).

    Both the flux and the drift term are read from one node array,
    u = dQ/dtheta - 2J Q sin / (r - cos): phi sums -sin u, and
    pi_damping sums (r - cos) u^2 / Q.
    """
    r = 2.0 * nbar + 1.0
    den = r - cos_t
    inv = _inverse_floored(q, q_floor)
    u = np.multiply(q, (-two_j * sin_t / den)[:, None])
    u += dq_dtheta
    phi = -(u.sum(axis=-1) @ (weights * sin_t))
    pi_damp = _sum_over_phi(u, u, inv) @ (weights * den)
    pi_coh = _sum_over_phi(dq_dphi, dq_dphi, inv) @ (weights * (r * cos_t - 1.0) * cos_t / (sin_t * sin_t))
    return phi, pi_damp, pi_coh


def dephasing_reduce(q, dq_dphi, weights, q_floor):
    """Raw sum of (dQ/dphi)^2 / Q of each state, Q floored at q_floor."""
    return _sum_over_phi(dq_dphi, dq_dphi, _inverse_floored(q, q_floor)) @ weights
