import math

import mpmath as mp
import numpy as np
import pytest

from spinwehrl import PrecisionFailure, UnsupportedParameters, gauss_2f1, hypergeom

mp.mp.dps = 40


def oracle_2f1(a, b, c, z):
    """Independent arbitrary-precision oracle.

    Plain high-precision series summation for z <= 0.9; mpmath's own
    hypergeometric evaluation for points closer to 1 where the raw series
    is too slow.
    """
    if z <= 0.9:
        a, b, c, z = map(mp.mpf, (a, b, c, z))
        total = mp.mpf(1)
        term = mp.mpf(1)
        for k in range(200_000):
            term *= (a + k) * (b + k) * z / ((c + k) * (k + 1))
            total += term
            if abs(term) < mp.mpf(10) ** (-mp.mp.dps) * abs(total):
                return float(total)
        raise RuntimeError("oracle series did not converge")
    return float(mp.hyp2f1(a, b, c, z))


class TestValues:
    def test_z_zero(self):
        assert gauss_2f1(1.0, 2.0, 4.0, 0.0) == 1.0

    def test_logarithmic_identity(self):
        # series summed against the known closed form -ln(1-z)/z
        z = 0.5
        assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log(1 - z) / z, rel=1e-14)

    def test_oracle_sweep(self):
        # 50-point sweep across the regime used by the damping flux,
        # including near-unit arguments served by the log-branch.
        params = [
            (1.0, 1.0, 4.0),
            (1.0, 2.0, 4.0),
            (1.0, 3.0, 4.0),
            (1.0, 2.0, 5.0),
            (1.0, 5.0, 7.0),
            (1.0, 6.0, 7.0),
            (1.0, 9.0, 11.0),
            (1.0, 21.0, 43.0),
            (1.0, 42.0, 43.0),
            (2.0, 3.0, 8.0),
        ]
        zs = [0.05, 0.35, 0.65, 0.95, 1 - 1e-6]
        count = 0
        for a, b, c in params:
            for z in zs:
                mine = gauss_2f1(a, b, c, z)
                ref = oracle_2f1(a, b, c, z)
                assert mine == pytest.approx(ref, rel=1e-12), (a, b, c, z)
                count += 1
        assert count == 50

    def test_branch_continuity(self):
        # direct series just below the switch, continuation just above
        for a, b, c in [(1.0, 2.0, 4.0), (1.0, 6.0, 7.0)]:
            lo = gauss_2f1(a, b, c, 0.9899)
            hi = gauss_2f1(a, b, c, 0.9901)
            ref_lo = oracle_2f1(a, b, c, 0.9899)
            ref_hi = oracle_2f1(a, b, c, 0.9901)
            assert lo == pytest.approx(ref_lo, rel=1e-12)
            assert hi == pytest.approx(ref_hi, rel=1e-12)

    def test_extreme_near_unit_argument(self):
        # tau_bar_z -> -1 maps to z -> 1; the log-branch must stay accurate
        z = 1 - 5e-7
        assert gauss_2f1(1.0, 2.0, 4.0, z) == pytest.approx(float(mp.hyp2f1(1, 2, 4, z)), rel=1e-12)


class TestProperties:
    def test_euler_transformation(self):
        # 2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a, c-b; c; z)
        a, b, c = 1.0, 2.0, 4.0
        for z in np.linspace(0.04, 0.79, 20):
            lhs = gauss_2f1(a, b, c, z)
            rhs = (1 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_monotone_in_z(self):
        vals = [gauss_2f1(1.0, 3.0, 6.0, z) for z in np.linspace(0.0, 0.98, 40)]
        assert np.all(np.diff(vals) > 0)


class TestErrors:
    def test_rejects_negative_parameters(self):
        with pytest.raises(UnsupportedParameters):
            gauss_2f1(-1.0, 2.0, 4.0, 0.5)
        with pytest.raises(UnsupportedParameters):
            gauss_2f1(1.0, 2.0, 1.5, 0.5)

    def test_rejects_argument_outside_range(self):
        with pytest.raises(UnsupportedParameters):
            gauss_2f1(1.0, 2.0, 4.0, -0.2)
        with pytest.raises(UnsupportedParameters):
            gauss_2f1(1.0, 2.0, 4.0, 1.0)

    def test_rejects_noninteger_near_unit(self):
        with pytest.raises(UnsupportedParameters):
            gauss_2f1(1.0, 2.5, 4.6, 0.999)

    def test_precision_failure_on_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(hypergeom, "MAX_TERMS", 5)
        with pytest.raises(PrecisionFailure):
            gauss_2f1(1.0, 2.0, 4.0, 0.95)
