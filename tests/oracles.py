"""Oracles that the tests compare the package against; no path of the
package calls them.

* A Husimi field's Q, dQ/dtheta and dQ/dphi at the grid nodes, from its
  coefficients, and its orbital angular-momentum currents built on them.
* The two-mode (Schwinger boson) cross-representation of the Husimi
  function: its polynomial kernel V(alpha, beta), the current
  correspondences on it, and the angle-action map.
* The ln Q route to entropy rates: -(2J+1)/(4 pi) * integral of
  <Omega|G|Omega> ln Q for a generator G, against which the quadrature's
  current forms are checked.
* The dense dissipators D(rho) by matrix products, and the master
  equation's right-hand side built on them, against which the package's
  per-order D(rho) (dynamics.dissipation) is checked, and the von Neumann
  dS/dt = -tr(D(rho) ln rho) by one dense eigh per state.
* The matrix current f(rho) whose divergence is the damping dissipator.
* The exact damping flux of J_z populations by mpmath quadrature of the
  flux integrand of each level, with no hypergeometric function.
* Spin coherent states with their angular derivatives at one point.
* The pulse's decay rate Gamma_t written in terms of its drive.
* The bath temperature of an occupation, and the energy flux Phi_E of
  H = omega J_z under thermal damping in closed form.
* numpy's savetxt at %.17g, whose bytes every CSV the package writes
  (scenarios.write_csv) must reproduce.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from spinwehrl import _kernels
from spinwehrl.entropy_rates import EIG_LOG_FLOOR, BathParams
from spinwehrl.errors import InvalidFrequency, NonPhysicalState
from spinwehrl.phase_space import Q_FLOOR, HusimiField, SphereGrid, _magnitudes, husimi_chunks
from spinwehrl.scenarios import PulseParams, pulse_amplitude, pulse_xi
from spinwehrl.spin_ops import DensityMatrix, SpinQuantumNumber, make_spin_operators


class VFunction:
    """Polynomial kernel V(alpha, beta) of the two-mode Husimi function.

    V is a homogeneous polynomial of degree 2J in (alpha, beta) and in
    (alpha*, beta*) separately, with coefficients given by the density
    matrix; evaluate() returns V and its four first Wirtinger partials from
    the exact finite double sum.
    """

    def __init__(self, rho: DensityMatrix):
        self.j = rho.j
        jj = self.j.j
        ms = self.j.m_values()
        d = self.j.dim
        fact = np.array([math.lgamma(k + 1) for k in range(self.j.two_j + 1)])
        norm = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                norm[a, b] = math.exp(
                    -0.5
                    * (
                        fact[int(jj + ms[a])]
                        + fact[int(jj - ms[a])]
                        + fact[int(jj + ms[b])]
                        + fact[int(jj - ms[b])]
                    )
                )
        self._coef = rho.entries * norm
        self._p_row = (jj + ms).astype(int)  # alpha* exponent per row index
        self._q_row = (jj - ms).astype(int)  # beta* exponent per row index

    def evaluate(self, alpha: complex, beta: complex) -> dict:
        """V and partials d/d alpha, d/d beta, d/d alpha*, d/d beta* at a point."""
        p = self._p_row
        q = self._q_row
        ac = np.conj(alpha)
        bc = np.conj(beta)
        pow_a = np.array([alpha**k for k in range(self.j.two_j + 1)])
        pow_b = np.array([beta**k for k in range(self.j.two_j + 1)])
        pow_ac = np.array([ac**k for k in range(self.j.two_j + 1)])
        pow_bc = np.array([bc**k for k in range(self.j.two_j + 1)])
        row = pow_ac[p] * pow_bc[q]  # (alpha*)^(J+m) (beta*)^(J-m)
        col = pow_a[p] * pow_b[q]  # alpha^(J+m') beta^(J-m')
        d_row_ac = np.where(p > 0, p * pow_ac[np.maximum(p - 1, 0)] * pow_bc[q], 0.0)
        d_row_bc = np.where(q > 0, q * pow_ac[p] * pow_bc[np.maximum(q - 1, 0)], 0.0)
        d_col_a = np.where(p > 0, p * pow_a[np.maximum(p - 1, 0)] * pow_b[q], 0.0)
        d_col_b = np.where(q > 0, q * pow_a[p] * pow_b[np.maximum(q - 1, 0)], 0.0)
        c = self._coef
        return {
            "v": complex(row @ c @ col),
            "d_alpha": complex(row @ c @ d_col_a),
            "d_beta": complex(row @ c @ d_col_b),
            "d_alpha_conj": complex(d_row_ac @ c @ col),
            "d_beta_conj": complex(d_row_bc @ c @ col),
        }

    def q_value(self, alpha: complex, beta: complex) -> float:
        """Two-mode Husimi value Q(alpha, beta) = e^{-|c|^2} V / pi^2."""
        action = abs(alpha) ** 2 + abs(beta) ** 2
        return float((math.exp(-action) / math.pi**2) * self.evaluate(alpha, beta)["v"].real)


def v_function(rho: DensityMatrix) -> VFunction:
    return VFunction(rho)


def tss_correspondences(v: VFunction, alpha: complex, beta: complex, nbar: float = 0.0) -> dict:
    """Current values of V at (alpha, beta) in the two-mode representation:

    f(V)   = [(nbar+1) beta d_alpha - nbar alpha* d_beta*] V,
    J_+(V) = (alpha* d_beta* - beta d_alpha) V,
    J_-(V) = (beta* d_alpha* - alpha d_beta) V,
    J_z(V) = ((alpha* d_alpha* + beta d_beta) - c.c.) V / 2.
    """
    d = v.evaluate(alpha, beta)
    ac = np.conj(alpha)
    bc = np.conj(beta)
    f = (nbar + 1.0) * beta * d["d_alpha"] - nbar * ac * d["d_beta_conj"]
    j_plus = ac * d["d_beta_conj"] - beta * d["d_alpha"]
    j_minus = bc * d["d_alpha_conj"] - alpha * d["d_beta"]
    j_z = 0.5 * (
        ac * d["d_alpha_conj"] + beta * d["d_beta"] - alpha * d["d_alpha"] - bc * d["d_beta_conj"]
    )
    return {"v": d["v"], "f": f, "j_plus": j_plus, "j_minus": j_minus, "j_z": j_z, **d}


@dataclass(frozen=True)
class AngleAction:
    action: float
    theta: float
    phi: float
    psi: float


def angle_action_map(alpha: complex, beta: complex) -> AngleAction:
    """Invert alpha = sqrt(I) cos(theta/2) e^{-i(phi+psi)/2},
    beta = sqrt(I) sin(theta/2) e^{i(phi-psi)/2}."""
    ra = abs(alpha)
    rb = abs(beta)
    action = ra * ra + rb * rb
    if action == 0.0:
        raise ValueError("angle-action variables undefined at alpha = beta = 0")
    theta = 2.0 * math.atan2(rb, ra)
    arg_a = math.atan2(alpha.imag, alpha.real) if ra > 0 else 0.0
    arg_b = math.atan2(beta.imag, beta.real) if rb > 0 else 0.0
    phi = arg_b - arg_a
    psi = -(arg_a + arg_b)
    return AngleAction(action=action, theta=theta, phi=phi, psi=psi)


def angle_action_inverse(action: float, theta: float, phi: float, psi: float = 0.0):
    """Map angle-action variables back to the two-mode amplitudes."""
    if action <= 0:
        raise ValueError("action must be positive")
    r = math.sqrt(action)
    alpha = r * math.cos(0.5 * theta) * np.exp(-0.5j * (phi + psi))
    beta = r * math.sin(0.5 * theta) * np.exp(0.5j * (phi - psi))
    return complex(alpha), complex(beta)


def dephasing_dissipator(rho: np.ndarray, lam: float) -> np.ndarray:
    """-(lambda/2) [J_z, [J_z, rho]]; elementwise -(lambda/2) (m - m')^2 rho."""
    rho = np.asarray(rho, dtype=complex)
    ms = SpinQuantumNumber(rho.shape[-1] - 1).m_values()
    diff = ms[:, None] - ms[None, :]
    return -0.5 * lam * diff * diff * rho


def amplitude_damping_dissipator(rho: np.ndarray, gamma, nbar: float) -> np.ndarray:
    """Thermal amplitude-damping dissipator targeting the Gibbs state of
    omega*J_z, by dense products; gamma is a number, or an array that
    broadcasts against rho."""
    rho = np.asarray(rho, dtype=complex)
    ops = make_spin_operators(SpinQuantumNumber(rho.shape[-1] - 1))
    jp, jm = ops.jp, ops.jm
    jpjm = jp @ jm
    jmjp = jm @ jp
    down = jm @ rho @ jp - 0.5 * (jpjm @ rho + rho @ jpjm)
    up = jp @ rho @ jm - 0.5 * (jmjp @ rho + rho @ jmjp)
    return gamma * (nbar + 1.0) * down + gamma * nbar * up


def dense_dissipator(rho: np.ndarray, d, t) -> np.ndarray:
    """D(rho) of the DissipatorSpec d by the dense dissipators, of one
    matrix at the time t or of an (n, d, d) stack at n times."""
    if d.kind == "dephasing":
        return dephasing_dissipator(rho, d.lam)
    gamma = d.gamma if d.kind == "amplitude_damping" else np.asarray(d.gamma_t(t), dtype=float)[..., None, None]
    return amplitude_damping_dissipator(rho, gamma, d.nbar)


def dense_von_neumann_ds(stack: np.ndarray, d_rho: np.ndarray) -> np.ndarray:
    """-tr(D(rho) ln rho) by one dense eigh per state, eigenvalues floored."""
    evals, vecs = np.linalg.eigh(stack)
    log_rho = (vecs * np.log(np.clip(evals, EIG_LOG_FLOOR, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return -np.trace(d_rho @ log_rho, axis1=-2, axis2=-1).real


def dense_lindblad_rhs(rho: np.ndarray, t, h, d) -> np.ndarray:
    """-i [H(t), rho] + D(rho) with the dense dissipators."""
    rho = np.asarray(rho, dtype=complex)
    hm = h.matrix(SpinQuantumNumber(rho.shape[-1] - 1), t)
    return -1j * (hm @ rho - rho @ hm) + dense_dissipator(rho, d, t)


def current_superoperator_f(rho: np.ndarray, nbar: float) -> np.ndarray:
    """Matrix current f(rho) = (nbar+1) rho J+ - nbar J+ rho.

    The damping dissipator is the divergence of this current:
    D(rho) = (gamma/2) ([J-, f(rho)] - [J+, f(rho)^dagger]), and f
    annihilates the thermal target state.
    """
    rho = np.asarray(rho, dtype=complex)
    ops = make_spin_operators(SpinQuantumNumber(rho.shape[-1] - 1))
    return (nbar + 1.0) * rho @ ops.jp - nbar * ops.jp @ rho


def node_values(field: HusimiField) -> tuple:
    """(Q, dQ/dtheta, dQ/dphi) of a field at the grid nodes, each
    (n_theta, n_phi) for one state or (k, n_theta, n_phi) for a chunk: the
    coefficient rows of Q, of dQ/dtheta and of dQ/dphi
    (_kernels.phi_derivative) times the field's harmonics."""
    q, dq_dtheta = field.coef
    rows = np.stack([q, dq_dtheta, _kernels.phi_derivative(q, np.empty_like(q))])
    return tuple(_kernels.node_rows(rows, field.harmonics))


def phase_space_currents(field: HusimiField) -> tuple:
    """(J_+(Q), J_-(Q), J_z(Q)) of a field at the (interior) grid nodes:

    J_z(Q) = -i dQ/dphi,
    J_+(Q) = e^{i phi} (d_theta + i cot(theta) d_phi) Q,
    J_-(Q) = -e^{-i phi} (d_theta - i cot(theta) d_phi) Q.
    """
    grid = field.grid
    _, dq_dtheta, dq_dphi = node_values(field)
    ph = grid.phi_nodes
    cot = (grid.cos_theta / grid.sin_theta)[:, None]
    j_plus = np.exp(1j * ph) * (dq_dtheta + 1j * cot * dq_dphi)
    j_minus = -np.exp(-1j * ph) * (dq_dtheta - 1j * cot * dq_dphi)
    return j_plus, j_minus, -1j * dq_dphi


def damping_flux_mpmath(populations, gamma: float, nbar: float) -> np.ndarray:
    """The damping flux of each row of (n, 2J + 1) J_z populations p_k
    (m descending, k = J + m), by mpmath quadrature at 30 digits:

        Phi = (2J+1) gamma J / 2 * sum_k p_k [2J w_k + 8m / ((2J+1)(2J+2))],
        w_k = integral over [-1, 1] of B_k(u) (1 - u^2) / (r - u) du,

    with B_k(u) = C(2J, k) ((1+u)/2)^k ((1-u)/2)^(2J-k) the Husimi function
    of |J, m> on u = cos(theta) and r = 2 nbar + 1. Each w_k is one
    tanh-sinh quadrature over [-1, 0, 1], of r times the integrand so that
    its absolute convergence test stays meaningful at large nbar. The levels
    share their nodes, so the powers of (1 +- u)/2 are formed once a node."""
    pops = np.atleast_2d(np.asarray(populations, dtype=float))
    two_j = pops.shape[1] - 1
    with mp.workdps(30):
        r = 2 * mp.mpf(nbar) + 1
        nodes = {}

        def powers(u):
            if u not in nodes:
                north, south = (1 + u) / 2, (1 - u) / 2
                up, down = [mp.mpf(1)], [(1 - u * u) * r / (r - u)]
                for _ in range(two_j):
                    up.append(up[-1] * north)
                    down.append(down[-1] * south)
                nodes[u] = up, down
            return nodes[u]

        def integrand(u, k, binom):
            up, down = powers(u)
            return binom * up[k] * down[two_j - k]

        weights = []
        for k in range(two_j, -1, -1):
            binom = mp.binomial(two_j, k)
            weights.append(mp.quad(lambda u: integrand(u, k, binom), [-1, 0, 1]) / r)
        ms = [mp.mpf(two_j) / 2 - i for i in range(two_j + 1)]
        levels = [two_j * w + 8 * m / ((two_j + 1) * (two_j + 2)) for w, m in zip(weights, ms)]
        scale = (two_j + 1) * mp.mpf(gamma) * mp.mpf(two_j) / 4
        return np.array([float(scale * mp.fsum(mp.mpf(p) * x for p, x in zip(row, levels))) for row in pops])


def husimi_of_matrix(mat: np.ndarray, j: SpinQuantumNumber, grid: SphereGrid) -> np.ndarray:
    """Re <Omega|M|Omega> for an arbitrary matrix (no state checks).

    Used for generator fields such as <Omega|D(rho)|Omega>.
    """
    mats = np.asarray(mat, dtype=complex).reshape(1, j.dim, j.dim)
    return node_values(next(husimi_chunks(mats, grid)))[0][0]


def dissipative_entropy_rate(field: HusimiField, dissipator_field: np.ndarray) -> float:
    """dS/dt|_diss = -(2J+1)/(4 pi) * integral of D(Q) ln Q.

    dissipator_field holds <Omega|D(rho)|Omega> on the same grid (see
    husimi_of_matrix).
    """
    lnq = np.log(np.maximum(node_values(field)[0], Q_FLOOR))
    return -(field.j.dim / (4.0 * np.pi)) * field.grid.integrate(np.asarray(dissipator_field) * lnq)


def generator_entropy_rate(generator_matrix: np.ndarray, field: HusimiField) -> float:
    """Entropy rate contributed by an arbitrary generator matrix G:
    -(2J+1)/(4 pi) * integral of <Omega|G|Omega> ln Q. Vanishes for the
    commutator generator of any Hamiltonian linear in J_i."""
    gfield = husimi_of_matrix(generator_matrix, field.j, field.grid)
    return dissipative_entropy_rate(field, gfield)


@dataclass(frozen=True)
class CoherentStateVector:
    """Amplitudes <J,m|Omega> at a single point with angular derivatives."""

    j: SpinQuantumNumber
    theta: float
    phi: float
    amplitudes: np.ndarray
    d_theta: np.ndarray
    d_phi: np.ndarray


def coherent_state(j: SpinQuantumNumber, theta: float, phi: float) -> CoherentStateVector:
    """Spin coherent state at interior polar angle theta in (0, pi), in the
    amplitude convention of spinwehrl.phase_space."""
    if not 0.0 < theta < np.pi:
        raise ValueError("theta must lie strictly inside (0, pi)")
    mag, dmag = _magnitudes(j.two_j, np.array([theta]))
    ms = j.m_values()
    phase = np.exp(-1j * ms * phi)
    amp = mag[0] * phase
    return CoherentStateVector(j=j, theta=theta, phi=phi, amplitudes=amp, d_theta=dmag[0] * phase, d_phi=-1j * ms * amp)


def pulse_gamma_explicit(params: PulseParams, t):
    """Gamma_t written in terms of the pulse drive,
    gamma0 + 2 sqrt(gamma0) Re[a*(t) xi(t)] / |a(t)|^2."""
    a = np.asarray(pulse_amplitude(params, t))
    return params.gamma0 + 2.0 * math.sqrt(params.gamma0) * (np.conj(a) * pulse_xi(params, t)).real / np.abs(a) ** 2


def temperature_from_nbar(omega: float, nbar: float) -> float:
    """Inverse of spinwehrl.spin_ops.nbar_from_temperature."""
    if omega <= 0:
        raise InvalidFrequency("omega must be positive")
    if nbar < 0:
        raise NonPhysicalState("nbar must be non-negative")
    if nbar == 0.0:
        return 0.0
    return omega / math.log1p(1.0 / nbar)


def energy_flux(rho, bath: BathParams, omega: float):
    """Phi_E = (gamma omega / tau_bar_z) [tau_bar_z (J(J+1) - <J_z^2>) - <J_z>]
    of a DensityMatrix or of each matrix of an (..., d, d) stack of entries:
    -tr(H D(rho)) for H = omega J_z, in closed form. A float for one state."""
    entries = np.asarray(getattr(rho, "entries", rho))
    j = SpinQuantumNumber(entries.shape[-1] - 1)
    tbz = bath.tau_bar_z
    ms = j.m_values()
    pops = entries.diagonal(axis1=-2, axis2=-1).real
    flux = (bath.gamma * omega / tbz) * (tbz * (j.j * (j.j + 1.0) - pops @ (ms * ms)) - pops @ ms)
    return float(flux) if np.ndim(flux) == 0 else flux


def savetxt_csv(path, header: list, table) -> None:
    """table under a comma-joined header line, every cell at %.17g, by
    numpy's savetxt: the CSV bytes that scenarios.write_csv must write."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
