"""Checks of the program's outputs against computations made apart from it.

Each check returns a list of problems; an operation whose list is not empty
counts as failed. Nothing here calls into spinwehrl: the references are
closed forms, scipy's adaptive quadrature and matrix exponential, and
properties the method must have.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np
from scipy import integrate, linalg, ndimage

# Absolute error of the program's S_wehrl on its 96x192 product grid: about
# 1e-14 for mixed states, but 5.8e-9 where Q has a zero (a pure state),
# because Q ln Q is not smooth there.
S_TOL_MIXED = 1e-12
S_TOL_NEAR_PURE = 2e-8
NEAR_PURE_TAU = 0.99
# Roundoff of the closed forms near equilibrium: Pi has read -1.5e-17.
PI_FLOOR = -1e-12
# Populations: RK45 at rtol 1e-10 / atol 1e-13 matches expm to ~2e-11.
POP_TOL = 1e-9
# S_wehrl of the spin-J runs. Against the program's own rule (n_theta-point
# Gauss-Legendre in cos(theta); Q of a diagonal state does not depend on phi)
# only roundoff may differ. Against the exact value (adaptive quadrature) the
# rule's own error is allowed: up to 9e-8 relative at 2J = 40 where Q is small
# at a pole, over 5,000 seeds; the bound is the tightest bundled compare
# tolerance (damping_j2_compare, 1e-6).
S_TOL_SAME_RULE = 1e-11
S_RTOL_EXACT = 1e-6
SWEEP_PI_RTOL = 1e-9
SWEEP_PHI_RTOL = 1e-8


def load_config(op: dict) -> dict:
    with open(op["config"]) as fh:
        return json.load(fh)


def read_csv(path) -> dict:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def wehrl_spin_half(tau: float) -> float:
    """S for Q = (1 + tau cos g)/2: -(1/tau)[u^2 ln u - u^2/2] from (1-tau)/2 to (1+tau)/2."""
    tau = abs(tau)
    if tau < 1e-3:
        return math.log(2.0) - tau * tau / 6.0 - tau**4 / 60.0

    def f(u):
        return 0.0 if u <= 0.0 else u * u * math.log(u) - 0.5 * u * u

    return -(f(0.5 * (1.0 + tau)) - f(0.5 * (1.0 - tau))) / tau


def entropy_balance(d: dict, tol: float) -> list:
    """dS/dt from centred differences of S_wehrl against Pi - Phi.

    The truncation error of the step-h difference is estimated from the
    step-2h one (Richardson: D_h - D_2h is three times the error of D_h), and
    a row may miss by that much, taken as the largest estimate within two
    rows, which is a safety factor of three. The integrator's error (rtol
    tol) divided by the step is added as a floor where S''' is near zero.
    """
    t, s = d["t"], d["S_wehrl"]
    h = t[1] - t[0]
    d_h = (s[3:-1] - s[1:-3]) / (2.0 * h)
    d_2h = (s[4:] - s[:-4]) / (4.0 * h)
    rate = (d["Pi_wehrl"] - d["Phi_wehrl"])[2:-2]
    est = np.abs(d_h - d_2h)
    window = ndimage.maximum_filter1d(est, size=5, mode="nearest")
    allowed = window + 10.0 * tol / h
    miss = np.abs(d_h - rate)
    bad = np.flatnonzero(miss > allowed)
    if bad.size:
        k = bad[0]
        return [f"entropy balance at t={t[k + 2]:g}: |dS/dt - (Pi - Phi)| = {miss[k]:.3e} > {allowed[k]:.3e}"]
    return []


def check_run_spin_half(op: dict) -> list:
    d = read_csv(op["check"]["csv"])
    tol = load_config(op)["time"].get("tol", 1e-10)
    tau = np.sqrt(d["tau_x"] ** 2 + d["tau_y"] ** 2 + d["tau_z"] ** 2)
    ref = np.array([wehrl_spin_half(x) for x in tau])
    allowed = np.where(tau > NEAR_PURE_TAU, S_TOL_NEAR_PURE, S_TOL_MIXED)
    problems = []
    miss = np.abs(d["S_wehrl"] - ref)
    if np.any(~(miss <= allowed)):
        k = int(np.argmax(miss - allowed))
        problems.append(f"S_wehrl at t={d['t'][k]:g} misses the closed form by {miss[k]:.3e}")
    if not np.all(d["Pi_wehrl"] >= PI_FLOOR):
        problems.append(f"Pi_wehrl is negative: min {np.min(d['Pi_wehrl']):.3e}")
    return problems + entropy_balance(d, tol)


def _thermal_rate_matrix(two_j: int, gamma: float, nbar: float) -> np.ndarray:
    """Generator of the J_z populations (m descending) under thermal damping."""
    jj = 0.5 * two_j
    ms = jj - np.arange(two_j + 1)
    w = np.zeros((two_j + 1, two_j + 1))
    for k, m in enumerate(ms):
        if k + 1 <= two_j:  # m -> m - 1 through J_-
            rate = gamma * (nbar + 1.0) * (jj + m) * (jj - m + 1.0)
            w[k + 1, k] += rate
            w[k, k] -= rate
        if k >= 1:  # m -> m + 1 through J_+
            rate = gamma * nbar * (jj - m) * (jj + m + 1.0)
            w[k - 1, k] += rate
            w[k, k] -= rate
    return w


def check_run_spin_j(op: dict) -> list:
    cfg = load_config(op)
    two_j = cfg["two_j"]
    jj = 0.5 * two_j
    ms = jj - np.arange(two_j + 1)
    diss = cfg["dissipator"]
    d = read_csv(op["check"]["csv"])
    states = read_csv(op["check"]["states"])
    pops = np.column_stack([states[f"re_rho_{a}{a}"] for a in range(two_j + 1)])
    p0 = np.asarray(cfg["initial_state"]["populations"], dtype=float)
    p0 = p0 / p0.sum()
    w = _thermal_rate_matrix(two_j, diss["gamma"], diss["nbar"])
    ref = np.array([linalg.expm(w * t) @ p0 for t in d["t"]])
    problems = []
    miss = np.max(np.abs(pops - ref))
    if not miss <= POP_TOL:
        problems.append(f"J_z populations miss the rate-equation solution by {miss:.3e}")

    # A diagonal state has Q(x) = sum_m p_m Binomial(J + m; 2J, (1 + x)/2), x = cos(theta).
    k = (jj + ms).astype(int)
    binom = np.array([math.comb(two_j, int(i)) for i in k], dtype=float)

    def q_of(p):
        pc = p * binom

        def q(x):
            a = 0.5 * (1.0 + x)
            return float(np.dot(pc, a**k * (1.0 - a) ** (two_j - k)))

        return q

    def q_ln_q(q):
        return lambda x: q(x) * math.log(q(x)) if q(x) > 0.0 else 0.0

    lo, hi = two_j / (two_j + 1.0), math.log(two_j + 1.0)
    x_rule, w_rule = np.polynomial.legendre.leggauss(cfg["grid"]["n_theta"])
    for t, p, s in zip(d["t"], pops, d["S_wehrl"]):
        q = q_of(p)
        norm = 0.5 * (two_j + 1) * integrate.quad(q, -1.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        s_exact = -0.5 * (two_j + 1) * integrate.quad(q_ln_q(q), -1.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        s_rule = -0.5 * (two_j + 1) * float(np.dot(w_rule, [q_ln_q(q)(x) for x in x_rule]))
        if not abs(norm - 1.0) <= 1e-10:
            problems.append(f"Husimi normalization at t={t:g} is {norm!r}")
        if not abs(s - s_rule) <= S_TOL_SAME_RULE:
            problems.append(f"S_wehrl at t={t:g} misses the grid's own rule by {abs(s - s_rule):.3e}")
        if not abs(s - s_exact) <= S_RTOL_EXACT * s_exact:
            problems.append(f"S_wehrl at t={t:g} misses the adaptive quadrature by {abs(s - s_exact):.3e}")
        if not lo - S_RTOL_EXACT * lo <= s <= hi + S_RTOL_EXACT * hi:
            problems.append(f"S_wehrl at t={t:g} = {s!r} is outside [{lo:.6f}, {hi:.6f}]")
        if problems:
            break
    if not np.all(d["Pi_wehrl"] >= PI_FLOOR):
        problems.append(f"Pi_wehrl is negative: min {np.min(d['Pi_wehrl']):.3e}")
    return problems + entropy_balance(d, cfg["time"]["tol"])


_DEV_LINE = re.compile(r"^(.+): max rel dev (\S+)$")
_VERDICT = re.compile(r"^(OK|FAIL): worst deviation (\S+) (?:within|exceeds) tolerance (\S+)$")


def _deviations(stdout: str) -> tuple:
    """The printed per-check deviations, and the verdict line's match or None."""
    devs = {m.group(1): float(m.group(2)) for m in map(_DEV_LINE.match, stdout.splitlines()) if m}
    verdicts = [m for m in map(_VERDICT.match, stdout.splitlines()) if m]
    return devs, verdicts[-1] if verdicts else None


def check_compare(op: dict, code, stdout: str) -> list:
    """Exit code and printed worst deviation against the config's own tolerance."""
    tolerance = load_config(op).get("compare", {}).get("tolerance", 1e-5)
    devs, verdict = _deviations(stdout)
    if verdict is None or not devs:
        return [f"compare printed no deviations (exit code {code})"]
    worst = max(devs.values())
    problems = []
    if abs(float(verdict.group(2)) - worst) > 1e-3 * worst:
        problems.append(f"printed worst deviation {verdict.group(2)} is not the largest one, {worst:.3e}")
    if not worst <= tolerance:
        name = max(devs, key=devs.get)
        problems.append(f"{name}: {worst:.3e} exceeds the config tolerance {tolerance:g}")
    if (code == 0) != (worst <= tolerance):
        problems.append(f"exit code {code} does not match worst deviation {worst:.3e}")
    return problems


def is_known_quadrature_fault(op: dict, code, stdout: str) -> bool:
    """The named fault: Pi quadrature off the closed form at a pure initial state."""
    if not op["check"].get("known_fault") or code != 1:
        return False
    devs, _ = _deviations(stdout)
    return bool(devs) and max(devs, key=devs.get) == "pi quadrature vs closed-form"


def _pi_spin_half_adaptive(tau_vec, kind: str, rate: float, nbar: float = 0.0) -> float:
    """Pi of a spin-1/2 state by scipy's adaptive quadrature over u = cos(theta), phi."""
    tx, ty, tz = tau_vec
    r = 2.0 * nbar + 1.0

    def integrand(phi, u):
        s = math.sqrt(1.0 - u * u)
        cp, sp = math.cos(phi), math.sin(phi)
        q = 0.5 * (1.0 + tx * s * cp + ty * s * sp + tz * u)
        dq_dphi = 0.5 * s * (ty * cp - tx * sp)
        if kind == "dephasing":
            return dq_dphi * dq_dphi / q
        dq_dtheta = 0.5 * (tx * u * cp + ty * u * sp - tz * s)
        drift = q * s + (u - r) * dq_dtheta  # 2J Q sin(theta) + (cos - r) dQ/dtheta at 2J = 1
        return drift * drift / ((r - u) * q) + dq_dphi * dq_dphi * (r * u - 1.0) * u / (s * s * q)

    val, _ = integrate.dblquad(integrand, -1.0, 1.0, 0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-11)
    return 0.5 * rate * (2.0 / (4.0 * math.pi)) * val


def check_sweep(op: dict) -> list:
    cfg = load_config(op)
    d = read_csv(op["check"]["csv"])
    state = cfg["initial_state"]
    diss = cfg["dissipator"]
    t_max = cfg["time"]["t_max"]
    param = op["check"]["param"].split(".")[-1]
    values = op["check"]["values"]
    if list(d["value"]) != values:
        return [f"the value column does not hold the {len(values)} swept values"]
    problems = []
    for row, value in enumerate(values):
        angles = dict(state, **{param: value})
        tau, th, ph = angles["tau"], angles["theta"], angles["phi"]
        tau_vec = (tau * math.sin(th) * math.cos(ph), tau * math.sin(th) * math.sin(ph), tau * math.cos(th))
        if diss["type"] == "dephasing":
            ref = _pi_spin_half_adaptive(tau_vec, "dephasing", diss["lambda"])
            phi_ref = 0.0  # dephasing carries no flux
        else:
            ref = _pi_spin_half_adaptive(tau_vec, "damping", diss["gamma"], diss["nbar"])
            phi_ref = None
            if diss["nbar"] == 0.0:
                # tau_z relaxes to -1 at rate gamma; Phi = 2 gamma J (J + <J_z>) with J = 1/2.
                tau_z = -1.0 + (tau_vec[2] + 1.0) * math.exp(-diss["gamma"] * t_max)
                phi_ref = 0.5 * diss["gamma"] * (1.0 + tau_z)
        pi0 = float(d["pi_wehrl_initial"][row])
        if not abs(pi0 - ref) <= SWEEP_PI_RTOL * abs(ref):
            problems.append(f"value {value!r}: pi_wehrl_initial {pi0!r} vs adaptive quadrature {ref!r}")
        phi = float(d["phi_wehrl_final"][row])
        if phi_ref is not None and not abs(phi - phi_ref) <= SWEEP_PHI_RTOL * abs(phi_ref):
            problems.append(f"value {value!r}: phi_wehrl_final {phi!r} vs {phi_ref!r}")
        if problems:
            break
    return problems
