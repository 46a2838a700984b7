import math
import random
import sys

import numpy as np
import pytest

from bellbound import BellQuery, DomainError, bell_dobinski, series
from bellbound.asymptotics import (
    bell_lambert_approx,
    bell_lambert_approx_corrected,
    debruijn_expansion,
    lambert_w,
)


class TestDebruijn:
    def test_at_e_to_e(self):
        p = math.e**math.e
        exp = debruijn_expansion(p)
        want = math.e - 2 + 2 / math.e + 1 / (2 * math.e**2)
        assert exp.total == pytest.approx(want, rel=1e-13)
        assert len(exp.partial_terms) == 6
        assert exp.total == pytest.approx(math.fsum(exp.partial_terms), abs=1e-15)

    def test_at_100(self):
        assert debruijn_expansion(100.0).total == pytest.approx(
            2.6817474980418807, rel=1e-12)

    def test_leading_term_dominates(self):
        for p in (20.0, 100.0, 300.0):
            exp = debruijn_expansion(p)
            assert all(abs(t) < exp.partial_terms[0]
                       for t in exp.partial_terms[1:])

    def test_domain_edge(self):
        with pytest.raises(DomainError):
            debruijn_expansion(math.e)

    def test_residual_decay(self):
        norm = []
        for p in (25.0, 50.0, 100.0, 200.0, 300.0):
            r = bell_dobinski(BellQuery(p, 1))
            resid = abs(r.log_value / p - debruijn_expansion(p).total)
            norm.append(resid * math.log(p) ** 2 / math.log(math.log(p)))
        assert norm == sorted(norm, reverse=True)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-13)
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, rel=1e-12)

    def test_residual_on_log_grid(self):
        xs = [0.0] + np.logspace(-6, 6, 49).tolist()
        for x in xs:
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    @pytest.mark.parametrize("x", [1e305, 1e307, sys.float_info.max])
    def test_near_the_double_limit(self, x):
        mpmath = pytest.importorskip("mpmath")
        w = lambert_w(x)
        with mpmath.workdps(30):
            mw = mpmath.mpf(w)
            assert float(abs(mw * mpmath.exp(mw) / x - 1)) <= 1e-13
            assert float(abs(mw / mpmath.lambertw(x) - 1)) <= 1e-15

    @pytest.mark.parametrize("x", [3.8e-5, 0.25181370764269145])
    def test_to_an_ulp(self, x):
        # an absolute residual test below x = 1 left W(3.8e-5) 2.4e-9 off;
        # a stop at 2^-52 * w let the steps at 0.2518... cycle by +-2 ulps
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = mpmath.lambertw(mpmath.mpf(x)).real
            assert float(abs(lambert_w(x) / want - 1)) <= 4e-16

    def test_log_uniform_over_the_doubles(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(13)
        lo, hi = math.log(5e-324), math.log(sys.float_info.max)
        xs = [5e-324, sys.float_info.max] + [
            math.exp(rng.uniform(lo, hi)) for _ in range(2000)] + (
            np.logspace(-3, 5, 30).tolist())
        with mpmath.workdps(40):
            for x in xs:
                want = mpmath.lambertw(mpmath.mpf(x)).real
                assert float(abs(lambert_w(x) / want - 1)) <= 4e-16, x

    def test_against_scipy(self):
        # imported here, so the module collects without scipy
        special = pytest.importorskip("scipy.special")
        for x in np.logspace(-3, 5, 30):
            assert lambert_w(float(x)) == pytest.approx(
                float(special.lambertw(x).real), rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambert_w(-0.5)


class TestBellLambertApprox:
    def test_literal_value_p2(self):
        w = lambert_w(2.0)
        assert w == pytest.approx(0.8526055020137254, rel=1e-12)
        res = bell_lambert_approx(2.0)
        want = (1 / math.sqrt(2)) * (2 / w) * math.exp(2 / w - 3)
        assert math.exp(res.log_value) == pytest.approx(want, rel=1e-12)

    def test_ratio_measured_not_asserted(self):
        res = bell_lambert_approx(10.0)
        assert res.log_ratio_to_series is not None
        assert math.isfinite(res.log_ratio_to_series)

    def test_literal_ratio_trend_recorded(self):
        log_ratios = [bell_lambert_approx(float(p)).log_ratio_to_series
                      for p in (10, 20, 40, 80)]
        # diagnostic: the printed formula underestimates, increasingly so
        assert all(a > b for a, b in zip(log_ratios, log_ratios[1:]))

    def test_corrected_variant_is_closer(self):
        for p in (10.0, 40.0, 80.0):
            lit = bell_lambert_approx(p).log_ratio_to_series
            cor = bell_lambert_approx_corrected(p).log_ratio_to_series
            assert abs(cor) < abs(lit)
            assert abs(cor) < math.log(2.0)

    @pytest.mark.parametrize("p", [200.0, 500.0])
    def test_log_ratio_where_the_ratio_underflows(self, p):
        # the literal formula is off by e^-784 at p = 200, e^-2334 at 500,
        # past exp's underflow at e^-745
        res = bell_lambert_approx(p)
        series_log = bell_dobinski(BellQuery(p, 1.0)).log_value
        assert res.log_ratio_to_series == res.log_value - series_log
        assert -3000.0 < res.log_ratio_to_series < -745.0

    def test_domain(self):
        with pytest.raises(DomainError):
            bell_lambert_approx(1.5)

    @pytest.mark.parametrize("p", [series.P_MAX, series.P_MAX + 0.5, 1e4])
    def test_ratio_exactly_where_the_series_answers(self, p):
        # the series alone decides where it is defined
        try:
            bell_dobinski(BellQuery(p, 1.0))
            measured = True
        except DomainError:
            measured = False
        for approx in (bell_lambert_approx, bell_lambert_approx_corrected):
            assert (approx(p).log_ratio_to_series is not None) == measured
