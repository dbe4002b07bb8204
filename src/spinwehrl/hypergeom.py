"""Gauss hypergeometric function 2F1(a, b; c; z) on z in [0, 1).

Two evaluation paths:

* z <= 0.99: direct power series with a term-ratio recurrence. All terms
  are positive in the supported regime (a, b > 0, c > b), so the summation
  is cancellation-free; the tail is geometric with ratio -> z.
* z > 0.99: analytic continuation in powers of (1 - z). For c - a - b a
  non-negative integer (the only case reachable here) the continuation is
  the standard degenerate form with a log(1 - z) term and digamma
  coefficients; it converges in a handful of terms arbitrarily close to
  z = 1.

The near-unit branch requires integer a, b (digammas are then evaluated by
harmonic-number recurrence); that covers every argument produced by the
damping flux formulas, where a = 1 and b is a positive integer.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import PrecisionFailure, UnsupportedParameters

MAX_TERMS = 100_000
TERM_STOP = 1e-17
Z_SWITCH = 0.99

_EULER_GAMMA = float(np.euler_gamma)


def _digamma_int(n: int) -> float:
    """psi(n) for integer n >= 1 via psi(1) = -euler_gamma, psi(n+1) = psi(n) + 1/n."""
    s = -_EULER_GAMMA
    for k in range(1, n):
        s += 1.0 / k
    return s


def _series(a: float, b: float, c: float, z: float) -> float:
    total = 1.0
    term = 1.0
    for k in range(MAX_TERMS):
        term *= (a + k) * (b + k) * z / ((c + k) * (k + 1.0))
        total += term
        if term < TERM_STOP * total:
            return total
    raise PrecisionFailure(f"2F1 series did not converge within {MAX_TERMS} terms at z={z}")


def _log_branch(a: int, b: int, c: int, omz: float) -> float:
    """Continuation around z = 1 for p = c - a - b a non-negative integer,
    in powers of omz = 1 - z."""
    p = c - a - b
    finite = 0.0
    if p >= 1:
        term = 1.0
        for k in range(p):
            if k > 0:
                term *= (a + k - 1.0) * (b + k - 1.0) * omz / (k * (k - p))
            finite += term
        finite *= math.exp(math.lgamma(p) + math.lgamma(a + b + p) - math.lgamma(a + p) - math.lgamma(b + p))
    log_omz = math.log(omz)
    tail = 0.0
    term = 1.0 / math.factorial(p)
    for k in range(MAX_TERMS):
        if k > 0:
            term *= (a + p + k - 1.0) * (b + p + k - 1.0) * omz / (k * (k + p))
        bracket = (
            log_omz
            - _digamma_int(k + 1)
            - _digamma_int(k + p + 1)
            + _digamma_int(a + k + p)
            + _digamma_int(b + k + p)
        )
        tail += term * bracket
        if abs(term) * (abs(log_omz) + 25.0) < TERM_STOP * max(abs(tail), 1e-30):
            break
    else:
        raise PrecisionFailure(f"2F1 continuation did not converge within {MAX_TERMS} terms")
    tail *= math.exp(math.lgamma(a + b + p) - math.lgamma(a) - math.lgamma(b))
    return finite - ((-1.0) ** p) * (omz**p) * tail


def gauss_2f1(a: float, b: float, c: float, z: float, one_minus_z: Optional[float] = None) -> float:
    """2F1(a, b; c; z) for a, b > 0, c > b, 0 <= z < 1. The continuation
    around z = 1 reads one_minus_z, when given, in place of 1.0 - z, which
    loses digits near z = 1 that the caller may hold (z = 1/(nbar + 1) has
    1 - z = nbar/(nbar + 1))."""
    if not (a > 0 and b > 0 and c > b):
        raise UnsupportedParameters(f"need a > 0, b > 0, c > b; got a={a}, b={b}, c={c}")
    if not 0.0 <= z < 1.0:
        raise UnsupportedParameters(f"need 0 <= z < 1; got z={z}")
    if z == 0.0:
        return 1.0
    if z <= Z_SWITCH:
        return _series(a, b, c, z)
    p = c - a - b
    ints = (round(a), round(b), round(c))
    if (
        abs(a - ints[0]) > 1e-12
        or abs(b - ints[1]) > 1e-12
        or abs(c - ints[2]) > 1e-12
        or round(p) < 0
    ):
        raise UnsupportedParameters(
            f"z > {Z_SWITCH} requires integer a, b with c - a - b a non-negative integer; "
            f"got a={a}, b={b}, c={c}"
        )
    omz = 1.0 - z if one_minus_z is None else one_minus_z
    return _log_branch(int(ints[0]), int(ints[1]), int(ints[2]), omz)
