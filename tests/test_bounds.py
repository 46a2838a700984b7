import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellbound import (BellQuery, DomainError, bell_dobinski,
                       bell_touchard_exact, log_mgf_bound)
from bellbound import bounds, series, verify
from bellbound.applications import REL_SLACK
from bellbound.bounds import (
    CANDIDATES,
    _ROUGH_FIT_GRID,
    K_MINUS_FORMULA,
    K_MINUS_PAPER,
    K_PLUS,
    bound_report,
    fitted_rough_constant,
    k0_selector,
    lower_closed_form_largep,
    lower_h0_search,
    lower_h_continuous,
    lower_jensen,
    regime_lower_largebeta,
    regime_upper_largebeta,
    rough_upper_triangle,
    upper_closed_form_largep,
    upper_g_optimized,
)
from bellbound.series import Regime, log_term, peak_index


def series_root(p, beta):
    return bell_dobinski(BellQuery(p, beta)).root(p)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(
        lambda t: min(hi, max(lo, math.exp(t))))


class TestUpperGOptimized:
    def test_dominated_by_lambda0(self):
        for p, beta in [(10, 1), (50, 3), (4, 2)]:
            q = BellQuery(p, beta)
            lam0 = math.log(p / beta) - math.log(math.log(p / beta))
            g, _ = upper_g_optimized(q)
            assert g <= math.exp(log_mgf_bound(q, lam0)) * (1 + 1e-9)

    def test_sandwich_10_1(self):
        g, _ = upper_g_optimized(BellQuery(10, 1))
        assert 3.2094 <= g <= 3.4995
        assert g >= series_root(10, 1)

    def test_above_series_2_1(self):
        # B(2, 1) = 2, so the bound must clear sqrt(2)
        g, _ = upper_g_optimized(BellQuery(2, 1))
        assert g >= math.sqrt(2)
        assert g >= series_root(2, 1)

    def test_ratio_past_1e305(self):
        # lambda* = W(p/beta) ~ 698 once p/beta = 1e306; the bound is
        # finite and still above the series
        q = BellQuery(10, 1e-305)
        g, lam = upper_g_optimized(q)
        assert lam == pytest.approx(698.0, abs=1.0)
        assert math.isfinite(g) and g >= series_root(10, 1e-305)

    @pytest.mark.parametrize("p,beta", [(22, 39977.67), (2.37, 13237.85)])
    def test_large_beta(self, p, beta):
        # beta > 700 (p + 1): lambda* = W(p/beta) is below 1e-3
        g, _ = upper_g_optimized(BellQuery(p, beta))
        assert g >= series_root(p, beta)

    @pytest.mark.parametrize(
        "beta", [1e14, 1e16, 2.680240813500836e52, 8e307, sys.float_info.max])
    def test_never_below_beta(self, beta):
        # g >= B^{1/p} >= beta, while the rounding of the log, ~1e-16 *
        # ln(beta) relative, exceeds g/beta - 1 ~ p/(2 beta) here
        for p in (1.0, 1.5, 2.0):
            assert upper_g_optimized(BellQuery(p, beta))[0] >= beta

    def test_past_double_range(self):
        # beta * (1 + p/(2 beta)) is DBL_MAX to rounding; its log rounds up
        with pytest.raises(DomainError, match="double range"):
            upper_g_optimized(BellQuery(50, sys.float_info.max))

    @pytest.mark.parametrize("p,beta", [
        (1.0, 5e-324), (2.0, 5e-324), (50.0, 1e-310), (500.0, 5e-324),
        (500.0, 1e-306), (1e6, 5e-324), (1e6, 1e-303)])
    def test_ratio_overflows(self, p, beta):
        # p/beta is inf; lambda* solves lambda + ln lambda = ln p - ln beta
        q = BellQuery(p, beta)
        assert q.ratio == math.inf
        g, lam = upper_g_optimized(q)
        log_r = math.log(p) - math.log(beta)
        assert abs(lam + math.log(lam) - log_r) <= 1e-13 * log_r
        assert g <= upper_closed_form_largep(q) * (1 + 1e-13)
        if p <= 500:
            assert g >= series_root(p, beta) * (1 - 1e-9)

    def test_witness_is_w_at_small_ratio(self):
        # lambda_star = W(p/beta) to an ulp where p/beta is far below 1
        mpmath = pytest.importorskip("mpmath")
        _, lam = upper_g_optimized(BellQuery(2, 5e4))
        with mpmath.workdps(40):
            want = mpmath.lambertw(mpmath.mpf(2) / 5e4).real
            assert float(abs(lam / want - 1)) <= 1e-15

    def test_witness_stationarity(self):
        # interior optimum solves lambda * e^lambda = p / beta
        for p, beta in [(10, 1), (2, 10), (100, 0.3)]:
            _, lam = upper_g_optimized(BellQuery(p, beta))
            resid = abs(lam * math.exp(lam) * beta / p - 1.0)
            assert resid <= 1e-6


class TestUpperClosedForm:
    def test_point_10_1(self):
        val = upper_closed_form_largep(BellQuery(10, 1))
        assert val == pytest.approx(3.4994375392405255, rel=1e-12)
        assert val >= series_root(10, 1)

    def test_equals_mgf_at_lambda0(self):
        for p, beta in [(10, 1), (30, 5), (2, 1)]:
            q = BellQuery(p, beta)
            lam0 = math.log(p / beta) - math.log(math.log(p / beta))
            assert upper_closed_form_largep(q) == pytest.approx(
                math.exp(log_mgf_bound(q, lam0)), rel=1e-12)

    def test_ratio_at_100(self):
        val = upper_closed_form_largep(BellQuery(100, 1))
        root = series_root(100, 1)
        assert val >= root
        assert val / root < 1.25

    def test_regime_error(self):
        with pytest.raises(DomainError):
            upper_closed_form_largep(BellQuery(3, 2))


class TestLowerH0:
    def test_point_10_1(self):
        res = lower_h0_search(BellQuery(10, 1))
        assert res.k_star == 6
        assert math.exp(res.log_bound_on_b) == pytest.approx(
            math.exp(-1) * 6**10 / math.factorial(6), rel=1e-12)

    def test_point_1_1(self):
        res = lower_h0_search(BellQuery(1, 1))
        assert res.k_star == 1
        assert math.exp(res.log_bound_on_b) == pytest.approx(math.exp(-1),
                                                             rel=1e-12)

    def test_below_series(self):
        for p, beta in [(10, 1), (2, 10), (33, 0.4)]:
            res = lower_h0_search(BellQuery(p, beta))
            log_b = bell_dobinski(BellQuery(p, beta)).log_value
            assert res.log_bound_on_b <= log_b + 1e-12

    def test_huge_beta_without_walk(self):
        # the query's peak, searched once by bisection in O(log beta) steps
        res = lower_h0_search(BellQuery(3, 1e12))
        assert res.k_star == peak_index(3, 1e12)
        assert abs(res.k_star - 1e12) < 10

    def test_largest_beta(self):
        # a peak ~1e292 indices off made the bound e^-2.9e281, i.e. 0
        assert 0.0 < lower_h0_search(BellQuery(1, 8e307)).root_bound <= 8e307

    def test_witness_is_argmax(self):
        for p, beta in [(10, 1), (2, 10), (77, 13)]:
            res = lower_h0_search(BellQuery(p, beta))
            k = res.k_star
            here = log_term(k, p, beta)
            assert here >= log_term(k + 1, p, beta)
            if k > 1:
                assert here >= log_term(k - 1, p, beta)


class TestLowerHContinuous:
    def test_below_series_root(self):
        for p, beta in [(10, 1), (2, 1), (2, 10), (60, 7)]:
            val, _ = lower_h_continuous(BellQuery(p, beta))
            assert val <= series_root(p, beta) * (1 + 1e-9)

    def test_near_h0(self):
        val, _ = lower_h_continuous(BellQuery(10, 1))
        h0 = math.exp(lower_h0_search(BellQuery(10, 1)).log_bound_on_b)
        assert 0.9 * h0 <= val**10 <= 1.2 * h0
        assert val**10 <= 115975.0

    def test_smoothed_term_below_exact_term(self):
        # zeta(k) >= k! makes the smoothed term at the rounded argmax no
        # larger than the exact Dobinski term there.
        for p, beta in [(10, 1), (25, 2)]:
            val, x_star = lower_h_continuous(BellQuery(p, beta))
            k = max(1, round(x_star))
            assert p * math.log(val) <= log_term(k, p, beta) + 0.5

    @pytest.mark.parametrize("p,beta", [
        (1, 0.1), (0.5, 1.5), (1, 1e2), (2, 1e2), (37.5, 1e2), (500, 1e2),
        (1, 1e4), (3, 1e4), (120, 1e4), (499, 1e4), (1.3197, 63513.9),
        (1, 1e5), (2.5, 1e5), (50, 1e5), (500, 1e5), (10, 1), (200, 0.3),
        (2, 10), (7.7, 7.7), (60, 7), (2, 1e-310),
        (0.4, 1.0), (0.1, 1.3), (1, 0.3), (300, 1e-200), (500, 1e-300),
    ])
    def test_matches_the_sup_to_50_digits(self, p, beta):
        mpmath = pytest.importorskip("mpmath")
        val, x_star = lower_h_continuous(BellQuery(p, beta))
        if p + math.log(beta) <= 5 / 12:  # slope <= 0 at x = 1
            assert x_star == 1.0
        with mpmath.workdps(50):
            mp, mb = mpmath.mpf(p), mpmath.mpf(beta)

            def objective(x):  # log of e^-b x^p b^x / zeta(x)
                return (mp * mpmath.log(x) + x * mpmath.log(mb) - mb
                        - mpmath.log(2 * mpmath.pi * x) / 2
                        - x * (mpmath.log(x) - 1) - 1 / (12 * x))

            x_sup = mpmath.mpf(1)
            if mpmath.diff(objective, x_sup) > 0:
                x_sup = mpmath.findroot(lambda x: mpmath.diff(objective, x),
                                        mpmath.mpf(x_star))
            sup = mpmath.exp(objective(x_sup) / mp)
            assert float(abs(val / sup - 1)) <= 1e-13
            assert x_star == pytest.approx(float(x_sup), rel=1e-9)

    @pytest.mark.parametrize("p,beta", [(1e160, 1e-300), (1e200, 1.0)])
    def test_newton_keeps_its_curvature_past_x_squared(self, p, beta):
        # x * x overflows from x ~ 1.3e154; the curvature is formed without
        # it, so Newton still lands on the largest term (at the stopping
        # tolerance, 1e-15 relative, which exceeds 1 here)
        q = BellQuery(p, beta)
        val, x_star = lower_h_continuous(q)
        k = peak_index(p, beta)
        assert abs(x_star - k) <= 1 + 1e-15 * k
        assert val == pytest.approx(lower_h0_search(q).root_bound, rel=1e-9)

    @pytest.mark.parametrize("p,beta", [
        (17.0, 4953.922018879395), (126.97693067172546, 64780.48444213749)])
    def test_newton_stops_at_a_rounding_cycle(self, monkeypatch, p, beta):
        # Newton's iterate alternates between two doubles 10 ulps apart, a
        # step above its 1e-15 x stop; it must stop at the first step that
        # does not shrink, not at the 100-step cap.  Each step calls max
        # once; the cap's n = m - (x_star < m) calls none.
        q = BellQuery(p, beta)
        k = q.peak  # searched before max is counted
        calls = []

        def counted(*args):
            calls.append(args)
            return max(*args)

        monkeypatch.setattr(bounds, "max", counted, raising=False)
        _, x_star = lower_h_continuous(q)
        assert len(calls) <= 8
        assert abs(x_star - k) <= 1.0

    @staticmethod
    def caps(q, x_star):
        # the cap's log as lower_h_continuous forms it, from t_m and the
        # ratio to its neighbour n on x_star's side, and log(t_k + t_{k+1})
        # from two log_terms at k = max(1, floor(x_star))
        p, beta, m = q.p, q.beta, q.peak
        n = m - (x_star < m)
        cap = log_term(m, p, beta) + math.log1p(math.exp(-abs(
            series._log_term_ratio(n, p, beta, math.log(beta)))))
        k = max(1, math.floor(x_star))
        a, b = log_term(k, p, beta), log_term(k + 1, p, beta)
        return n, cap, k, a, b, max(a, b) + math.log1p(math.exp(-abs(a - b)))

    @given(p=log_uniform(1e-3, 500.0), beta=log_uniform(1e-300, 1e13))
    @settings(max_examples=200, deadline=None)
    def test_cap_is_the_pair_at_floor_x_star(self, p, beta):
        q = BellQuery(p, beta)
        val, x_star = lower_h_continuous(q)
        n, cap, k, a, b, pair = self.caps(q, x_star)
        assert n == k
        # 4 ulps of the largest operand of the two logs: p log k, the logs
        # themselves, and k log beta where log k! comes from the table
        scale = max(abs(a), abs(b), p * math.log(k + 1),
                    min(k + 1, 20) * abs(math.log(beta)) if k <= 20 else 0.0)
        assert abs(cap - pair) <= 4 * math.ulp(scale)
        assert val <= math.exp(cap / p)

    def test_cap_holds_the_peak_where_x_star_strays(self):
        # x_star strayed ~4 below the peak here while Newton's slope took
        # ln x - ln beta, which cancels near x ~ beta; it now lies at the
        # smoothed argmax, m + 0.29 to the nearest double, so the cap is
        # the pair at floor(x_star), through t_m
        q = BellQuery(1.1666637574722798, 678525004858732.6)
        val, x_star = lower_h_continuous(q)
        n, cap, k, _, _, pair = self.caps(q, x_star)
        assert n == k == q.peak
        assert cap >= pair
        assert val <= math.exp(cap / q.p)

    @pytest.mark.parametrize("p,beta", [
        (2.0, 1e15), (1.1666637574722798, 678525004858732.6)])
    def test_newton_slope_without_cancellation(self, p, beta):
        # ln x - ln beta cancels to an ulp of ln beta near x ~ beta, which
        # put x_star - m at 1.5 and -4.125 here, against roots at m + 0.5
        # and m + 0.29; log1p((x - beta)/beta), x - beta exact, puts it at
        # the root, to the nearest double where their spacing (0.125 here)
        # exceeds 1e-9
        mpmath = pytest.importorskip("mpmath")
        q = BellQuery(p, beta)
        _, x_star = lower_h_continuous(q)
        with mpmath.workdps(60):
            mp, mb = mpmath.mpf(p), mpmath.mpf(beta)
            root = mpmath.findroot(  # the stationary point of the objective
                lambda x: (mp - mpmath.mpf(1) / 2) / x + mpmath.log(mb / x)
                + 1 / (12 * x * x), mpmath.mpf(q.peak))
            err = float(abs(mpmath.mpf(x_star) - root))
        assert err <= max(1e-9, 0.5 * math.ulp(x_star))

    def test_capped_below_series_at_tiny_beta(self):
        # the smoothed sup lies 6% above B^{1/p} here; the cap at
        # (t_n + t_{n+1})^{1/p}, n = floor(x_star), keeps it below
        p, beta = 444.65, 5.8e-135
        val, x_star = lower_h_continuous(BellQuery(p, beta))
        assert val <= series_root(p, beta) * (1 + REL_SLACK)
        n = max(1, math.floor(x_star))
        a, b = log_term(n, p, beta), log_term(n + 1, p, beta)
        cap = max(a, b) + math.log1p(math.exp(-abs(a - b)))
        assert val == pytest.approx(math.exp(cap / p), rel=1e-12)


class TestK0AndClosedFormLower:
    def test_k0_values(self):
        assert k0_selector(BellQuery(10, 1)) == 4
        assert k0_selector(BellQuery(100, 1)) == 18

    def test_k0_where_p_e_over_beta_overflows(self):
        # p * e / beta is inf here, which sent k0 to 1
        mpmath = pytest.importorskip("mpmath")
        q = BellQuery(1e10, 1e-300)
        with mpmath.workdps(40):
            arg = mpmath.log(mpmath.mpf(q.p) * mpmath.e / mpmath.mpf(q.beta))
            assert k0_selector(q) == int(mpmath.floor(q.p / arg)) + 1
        h0 = lower_h0_search(q).root_bound
        assert 0.999 * h0 <= lower_closed_form_largep(q) <= h0 * (1 + 1e-12)

    def test_closed_form_point(self):
        val = lower_closed_form_largep(BellQuery(10, 1))
        assert val == pytest.approx(
            (math.exp(-1) * 4**10 / 24) ** 0.1, rel=1e-12)

    def test_dominated_by_h0(self):
        for p, beta in [(10, 1), (100, 1), (40, 6)]:
            q = BellQuery(p, beta)
            assert lower_closed_form_largep(q) <= (
                lower_h0_search(q).root_bound * (1 + 1e-12))

    def test_regime_error(self):
        with pytest.raises(DomainError):
            lower_closed_form_largep(BellQuery(3, 2))

    def test_refused_where_p_log_k_overflows(self):
        with pytest.raises(DomainError, match="double range"):
            lower_closed_form_largep(BellQuery(1e308, 1))


class TestRegimeLargeBeta:
    def test_constants(self):
        assert 8.975 <= K_PLUS <= 8.976
        assert K_PLUS == pytest.approx(math.exp((math.e**2 - 3) / 2), rel=1e-15)
        assert K_MINUS_FORMULA == pytest.approx(0.46322382403840295, rel=1e-12)
        assert K_MINUS_PAPER == 0.6538

    def test_upper_point(self):
        assert regime_upper_largebeta(BellQuery(2, 10)) == pytest.approx(
            89.7576394045, rel=1e-9)
        assert series_root(2, 10) == pytest.approx(math.sqrt(110), rel=1e-10)

    def test_kplus_identity_at_boundary(self):
        # At p/beta = 2 the MGF bound at lambda = 2 collapses to K+ * beta.
        for p, beta in [(2, 1), (4, 2), (20, 10)]:
            q = BellQuery(p, beta)
            assert math.exp(log_mgf_bound(q, 2.0)) == pytest.approx(
                regime_upper_largebeta(q), rel=1e-12)

    def test_upper_regime_error(self):
        with pytest.raises(DomainError):
            regime_upper_largebeta(BellQuery(10, 1))

    def test_kplus_past_double_range(self):
        # K+ * beta passes DBL_MAX from beta ~ 2e307
        with pytest.raises(DomainError, match=r"K\+ \* beta exceeds the double"):
            regime_upper_largebeta(BellQuery(2, sys.float_info.max))

    def test_jensen(self):
        for p, beta in [(1, 3.5), (2, 10), (500, 1e-300)]:
            q = BellQuery(p, beta)
            assert lower_jensen(q) == beta <= series_root(p, beta) * (1 + 1e-12)
        with pytest.raises(DomainError):
            lower_jensen(BellQuery(0.5, 1))

    def test_kminus_holds_without_the_series(self, monkeypatch):
        # the flag is proven (K- <= 1, Jensen), not checked against the series
        def refuse(*args, **kwargs):
            raise AssertionError("series called")

        monkeypatch.setattr(bounds, "bell_dobinski", refuse)
        km = regime_lower_largebeta(BellQuery(2, 1e12))
        assert km.holds is True and km.value <= 1e12

    def test_kminus_default_and_flag(self):
        km = regime_lower_largebeta(BellQuery(2, 10))
        assert km.constant_label == "formula"
        assert km.value == pytest.approx(K_MINUS_FORMULA * 10, rel=1e-12)
        assert km.holds is True


class TestRoughTriangle:
    def test_fitted_constant_covers_examples(self):
        c3 = fitted_rough_constant()
        assert c3 > 0
        assert rough_upper_triangle(BellQuery(10, 1)) >= series_root(10, 1)
        assert rough_upper_triangle(BellQuery(10, 3)) >= series_root(10, 3)

    def test_integer_beta_scaling(self):
        one = rough_upper_triangle(BellQuery(10, 1))
        assert rough_upper_triangle(BellQuery(10, 3)) == pytest.approx(
            3 * one, rel=1e-14)

    def test_past_double_range(self):
        with pytest.raises(DomainError, match="double range"):
            rough_upper_triangle(BellQuery(100, 1e308))

    def test_refused_below_fitted_range(self):
        # the fit's first grid point with lnln p > 0 is p ~ 2.8502; below
        # it the formula falls under B^{1/p}
        with pytest.raises(DomainError):
            rough_upper_triangle(BellQuery(2.84, 1))

    def test_holds_from_fitted_range_to_3_5(self):
        p_min = _ROUGH_FIT_GRID[0]
        assert 2.85 <= p_min < 2.851
        for p in [p_min + (3.5 - p_min) * i / 12 for i in range(13)]:
            for beta in [1.0, 2.5, 10.0, 333.3, 1e4, 1e5]:
                q = BellQuery(p, beta)
                assert rough_upper_triangle(q) >= series_root(p, beta) * (
                    1 - 1e-9)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            rough_upper_triangle(BellQuery(1.5, 1))
        with pytest.raises(DomainError):
            rough_upper_triangle(BellQuery(5, 0.5))


class TestBoundReport:
    def test_largep_report(self):
        rep = bound_report(BellQuery(10, 1))
        assert rep.regime is Regime.LARGE_P
        assert rep.upper_method == "GOptimized"
        assert rep.lower <= 3.2095 <= rep.upper
        assert rep.lower <= rep.upper
        assert rep.series_root == pytest.approx(3.2094930392192045, rel=1e-10)

    def test_largebeta_report(self):
        q = BellQuery(2, 10)
        rep = bound_report(q)
        assert rep.regime is Regime.LARGE_BETA
        assert rep.upper == upper_g_optimized(q)[0]
        assert rep.upper <= K_PLUS * 10
        assert rep.upper_method == "GOptimized"
        assert rep.lower == 10 and rep.lower_method == "Jensen"
        assert rep.lower <= math.sqrt(110) <= rep.upper
        assert rep.kminus is not None and rep.kminus.holds is True

    @staticmethod
    def count_series_calls(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bell_dobinski(*args, **kwargs)

        monkeypatch.setattr(bounds, "bell_dobinski", counted)
        return calls

    def test_one_series_call_when_it_fails(self, monkeypatch):
        # p = 600 is past P_MAX; the K- flag rests on Jensen, so the report
        # does not run the series a second time for it
        calls = self.count_series_calls(monkeypatch)
        rep = bound_report(BellQuery(600, 1e10))
        assert len(calls) == 1
        assert len([e for e in rep.errors if e.startswith("series:")]) == 1
        assert rep.lower == 1e10 and rep.lower_method == "Jensen"
        assert math.isfinite(rep.upper) and rep.upper_method == "GOptimized"
        assert rep.kminus.holds is True

    def test_series_past_the_former_budget(self, monkeypatch):
        # beta = 1e10 exceeded the series' old 500k-term budget; now the
        # report's one series call certifies B(2, beta) = beta^2 + beta
        calls = self.count_series_calls(monkeypatch)
        beta = 1e10
        rep = bound_report(BellQuery(2, beta))
        res = bell_dobinski(BellQuery(2, beta))
        assert len(calls) == 1 and rep.errors == ()
        exact = Fraction(beta) ** 2 + Fraction(beta)
        err = float(abs(Fraction(res.value) - exact) / exact)
        assert err <= math.exp(res.tail_bound_log) + math.exp(
            res.rounding_bound_log) + 2.3e-16
        assert rep.series == res and rep.series_root == res.root(2)
        assert rep.lower == beta <= rep.series_root <= rep.upper
        assert rep.kminus.holds is True

    def test_boundary_tie(self):
        assert bound_report(BellQuery(2, 1)).regime is Regime.LARGE_P

    def test_requires_p_ge_1(self):
        with pytest.raises(DomainError):
            bound_report(BellQuery(0.5, 1))

    @pytest.mark.parametrize("p", [1.0, 2.0, 50.0, 500.0])
    def test_smallest_beta(self, p):
        # p/beta overflows and beta/(k + 1) underflows at beta = 5e-324
        rep = bound_report(BellQuery(p, 5e-324))
        assert math.isfinite(rep.upper) and rep.upper_method == "GOptimized"
        assert rep.lower <= rep.series_root * (1 + 1e-12) <= rep.upper
        assert rep.errors == ()


    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("beta", [1e16, 8e307, sys.float_info.max])
    def test_largest_beta(self, p, beta):
        # x + beta overflowed in the Poisson deviance (H0Search NaN) and
        # x**3 in HContinuous's Newton step (OverflowError)
        rep = bound_report(BellQuery(p, beta))
        assert (rep.lower_method, rep.upper_method) == ("Jensen", "GOptimized")
        assert rep.lower == beta <= rep.upper
        assert all(e.startswith("series:") for e in rep.errors)

    def test_largest_beta_refusal_is_reported(self):
        rep = bound_report(BellQuery(50, sys.float_info.max))
        assert rep.lower == sys.float_info.max
        assert any(e.startswith("GOptimized:") for e in rep.errors)

    def test_peak_past_the_double_range_is_refused(self):
        # the largest term's index, ~beta + p, has no double
        rep = bound_report(BellQuery(1e300, sys.float_info.max))
        assert (rep.lower, rep.lower_method) == (sys.float_info.max, "Jensen")
        for name in ("H0Search", "HContinuous"):
            assert any(e.startswith(f"{name}: peak index") for e in rep.errors)

    def test_single_terms_refused_where_p_log_k_overflows(self):
        # p log k passes DBL_MAX from p ~ 2.6e305; the terms were inf.  At
        # the second point D(m) overflows too, and log t_m = inf - inf
        for p, beta in ((1e308, 1.0),
                        (1.3549863193146328e+308, 8.218407461554972e+307)):
            rep = bound_report(BellQuery(p, beta))
            assert (rep.lower, rep.lower_method) == (beta, "Jensen")
            assert rep.lower <= rep.upper < math.inf
            for name in ("H0Search", "HContinuous"):
                assert any(e.startswith(f"{name}:") and "double range" in e
                           for e in rep.errors)
            assert not any("nan" in e for e in rep.errors)


class TestSharedPeak:
    """The largest term's index is searched once per query and shared by
    the series, H0Search and HContinuous."""

    # grid (p in [1, 500], beta in [0.1, 50]) and large_beta (beta in
    # [1e2, 1e5]) points, the tie t_2 = t_3 at (1, 2), p = 1, beta = 1e-300
    POINTS = ([(p, b) for p in np.logspace(0.0, math.log10(500.0), 7).tolist()
               for b in np.logspace(-1.0, math.log10(50.0), 4).tolist()]
              + [(p, b) for p in (1.5, 3.0, 17.0, 120.0, 480.0)
                 for b in (100.0, 3e3, 1e5)]
              + [(1.0, 2.0), (1.0, 0.37), (1.0, 1e4), (2.0, 1e-300),
                 (250.0, 1e-300)])

    @staticmethod
    def count_searches(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[:2])  # (p, beta), without the seed lambda*
            return peak_index(*args)

        monkeypatch.setattr(series, "peak_index", counted)
        return calls

    @pytest.mark.parametrize("p,beta", [(37, 3.3), (1.5, 40.0), (12, 3e3),
                                        (240.0, 1e5)])
    def test_one_search_per_report(self, monkeypatch, p, beta):
        calls = self.count_searches(monkeypatch)
        rep = bound_report(BellQuery(p, beta))
        assert calls == [(p, beta)] and rep.errors == ()

    @pytest.mark.parametrize("p,beta", [(37, 3.3), (12, 3e3)])
    def test_one_search_per_series(self, monkeypatch, p, beta):
        calls = self.count_searches(monkeypatch)
        q = BellQuery(p, beta)
        bell_dobinski(q)
        bell_dobinski(q, tol=1e-6)
        assert calls == [(p, beta)]

    def test_refused_peak_is_refused_per_candidate(self, monkeypatch):
        # the series refuses p past P_MAX first; each single-term bound
        # then meets the peak's refusal itself
        calls = self.count_searches(monkeypatch)
        rep = bound_report(BellQuery(1e300, sys.float_info.max))
        assert len(calls) == 2
        for name in ("H0Search", "HContinuous"):
            assert sum(e.startswith(f"{name}: peak index")
                       for e in rep.errors) == 1

    @pytest.mark.parametrize("p,beta", [
        (37, 3.3), (1.5, 40.0), (12, 3e3), (240.0, 1e5), (1.0, 1e-300),
        (2.0, 1e-310), (1e300, 1e-300), (1e300, sys.float_info.max)])
    def test_one_lambert_w_per_report(self, monkeypatch, p, beta):
        # lambda* seeds the peak search and is GOptimized's witness; where
        # p/beta overflows it comes from logs, without W
        calls = []
        lambert_w = series.lambert_w

        def counted(x):
            calls.append(x)
            return lambert_w(x)

        monkeypatch.setattr(series, "lambert_w", counted)
        q = BellQuery(p, beta)
        rep = bound_report(q)
        assert len(calls) == (q.ratio < math.inf)
        # GOptimized's bound leaves the double range at beta = DBL_MAX
        assert rep.witness.get("lambda_star", q.lambda_star) == q.lambda_star

    @pytest.mark.parametrize("p,beta", [(3.0, 2.0), (4.0, 300.0), (29.0, 5.0),
                                        (30.0, 5.0), (120.0, 1e4)])
    def test_bare_series_takes_w_only_to_seed(self, monkeypatch, p, beta):
        # below series._SEED_MIN_P the series' peak search is plain bisection
        calls = []
        lambert_w = series.lambert_w
        monkeypatch.setattr(series, "lambert_w",
                            lambda x: calls.append(x) or lambert_w(x))
        q = BellQuery(p, beta)
        bell_dobinski(q)
        assert len(calls) == (p >= series._SEED_MIN_P)
        assert q.peak == peak_index(p, beta)

    @pytest.mark.parametrize("p,beta", POINTS)
    def test_sharing_changes_nothing(self, p, beta):
        h0 = lower_h0_search(BellQuery(p, beta))
        h_cont, x_star = lower_h_continuous(BellQuery(p, beta))
        g, lam = upper_g_optimized(BellQuery(p, beta))
        rep = bound_report(BellQuery(p, beta))
        assert rep.series_root == series_root(p, beta)
        assert (rep.lower, rep.lower_method) == max(
            (h0.root_bound, "H0Search"), (h_cont, "HContinuous"),
            (lower_jensen(BellQuery(p, beta)), "Jensen"))
        assert (rep.upper, rep.upper_method) == (g, "GOptimized")
        assert rep.witness == {"k_star": h0.k_star, "x_star": x_star,
                               "lambda_star": lam}


class TestRefusalGuards:
    # each guard's refusal, at a point no other test sends it
    @pytest.mark.parametrize("call, message", [
        (lambda: upper_g_optimized(BellQuery(0.5, 0.1)),
         "upper_g_optimized requires p >= 1"),
        (lambda: k0_selector(BellQuery(0.5, 0.1)), "k0_selector requires p >= 1"),
        (lambda: regime_upper_largebeta(BellQuery(0.5, 1.0)), "requires p >= 1"),
        (lambda: regime_lower_largebeta(BellQuery(0.5, 1.0)), "requires p >= 1"),
        (lambda: log_mgf_bound(BellQuery(0.5, 0.1), 1.0),
         "MGF bound requires p >= 1"),
        (lambda: k0_selector(BellQuery(2.0, 6.0)), r"ln\(p\*e/beta\) = .* <= 0"),
        # without these root_bound and the smoothed root would divide by p = 0
        (lambda: lower_h0_search(BellQuery(0.0, 1.0)),
         "lower_h0_search requires p > 0"),
        (lambda: lower_h_continuous(BellQuery(0.0, 1.0)),
         "lower_h_continuous requires p > 0"),
        (lambda: bell_touchard_exact(2.5, 1.0),
         "p must be a non-negative integer"),
        (lambda: bell_touchard_exact(2, math.nan), "beta must be finite and > 0"),
    ], ids=["upper_g_optimized", "k0_selector-p", "regime_upper_largebeta",
            "regime_lower_largebeta", "log_mgf_bound", "k0_selector-log",
            "lower_h0_search", "lower_h_continuous", "touchard-p",
            "touchard-beta"])
    def test_refused(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()


class TestCandidates:
    def test_every_public_bound_listed_once(self):
        names = [c.name for c in CANDIDATES]
        assert len(set(names)) == len(names) == 9
        assert {c.side for c in CANDIDATES} == {"lower", "upper"}

    def test_report_lower_candidates(self):
        # the k0 term never exceeds H0Search, so it is not reported
        assert [c.name for c in CANDIDATES
                if c.side == "lower" and c.reported] == [
            "H0Search", "HContinuous", "Jensen"]

    def test_report_upper_candidates(self):
        # the closed form and K+ * beta are values of the infimum GOptimized,
        # so only GOptimized is reported
        assert [c.name for c in CANDIDATES
                if c.side == "upper" and c.reported] == ["GOptimized"]

    @given(p=log_uniform(1.0, 500.0), beta=log_uniform(1e-3, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_g_optimized_below_the_bounds_it_minimises(self, p, beta):
        # GOptimized is the inf over lambda of the MGF bound; the closed form
        # is the MGF bound at lambda0, and K+ * beta the one at lambda =
        # p/beta, maximised over p/beta <= 2
        rep = bound_report(BellQuery(p, beta))
        assert rep.upper_method == "GOptimized"  # GOptimized answers here
        assert verify.check_point(rep.query, rep) == []

    def test_report_calls_module_globals(self, monkeypatch):
        # a patched module attribute is what the report runs
        monkeypatch.setattr(bounds, "upper_g_optimized",
                            lambda q: (1e9, 0.25))
        rep = bound_report(BellQuery(10, 1))
        assert rep.upper == 1e9 and rep.upper_method == "GOptimized"
        assert rep.witness["lambda_star"] == 0.25

    def test_table_drives_the_sandwich_suite(self, monkeypatch):
        wrong = tuple(
            c._replace(evaluate=lambda q: (
                bounds.rough_upper_triangle(q) / 1e3, None))
            if c.name == "RoughTriangle" else c
            for c in CANDIDATES)
        monkeypatch.setattr(bounds, "CANDIDATES", wrong)
        sandwich = next(r for r in verify.suite_sandwich()
                        if r.name == "sandwich")
        assert not sandwich.passed
        assert "RoughTriangle" in sandwich.detail

    def test_sandwich_suite_checks_the_domination(self, monkeypatch):
        # a closed form between B^{1/p} and GOptimized is on its side, but
        # below the infimum it is a value of: only the domination check fails
        closed_form = bounds.upper_closed_form_largep

        def inside(q):
            closed_form(q)  # keeps its regime guard
            return math.sqrt(upper_g_optimized(q)[0]
                             * bell_dobinski(q).root(q.p))

        monkeypatch.setattr(bounds, "upper_closed_form_largep", inside)
        sandwich = next(r for r in verify.suite_sandwich()
                        if r.name == "sandwich")
        assert not sandwich.passed
        assert "first: ('GOptimized>ClosedFormLargeP(upper)', " in sandwich.detail

    @given(p=log_uniform(1.0, 500.0), beta=log_uniform(1e-300, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_every_bound_on_its_side_or_refused(self, p, beta):
        rep = bound_report(BellQuery(p, beta))
        assert rep.series is not None  # p <= 500: the series answers
        assert verify.check_point(rep.query, rep) == []

    @given(p=log_uniform(1.0, sys.float_info.max),
           beta=log_uniform(5e-324, sys.float_info.max))
    # a peak near DBL_MAX whose search bracket's upper end passes it
    @example(p=1.3549863193146328e+308, beta=8.218407461554972e+307)
    @settings(max_examples=300, deadline=None)
    def test_extreme_inputs_give_a_double_or_a_refusal(self, p, beta):
        assert verify.check_point(BellQuery(p, beta)) == []

    @pytest.mark.parametrize("label, change", [
        ("RoughTriangle", {}),  # its value is patched to inf below
        ("report.lower>upper", {"series": None, "lower": 1e9}),  # no root
        ("report.lower_method", {"lower_method": "none"}),
        ("KMinusLargeBeta", {"kminus": bounds.KMinusBound(  # listed once
            math.inf, K_MINUS_FORMULA, "formula", True)}),
        ("report.kminus.holds", {"kminus": bounds.KMinusBound(
            K_MINUS_FORMULA * 10, K_MINUS_FORMULA, "formula", False)}),
    ])
    def test_each_violation_is_found_alone(self, monkeypatch, label, change):
        q = BellQuery(10, 10)  # LargeBeta, so the report carries K-
        rep = dataclasses.replace(bound_report(q), **change)
        monkeypatch.setattr(bounds, "CANDIDATES", tuple(
            c._replace(evaluate=lambda _: (math.inf, None))
            if c.name == label else c for c in CANDIDATES))
        assert verify.check_point(q, rep) == [(label, 10, 10)]


class TestRatioConvergence:
    def test_doubling_grid_trend(self):
        # normalized deviation from p/(e ln(p/beta)) on p = 2^j, beta = 1:
        # bounded, and non-increasing over the last decade of the grid
        devs = []
        for j in range(2, 9):
            p = float(2**j)
            root = series_root(p, 1)
            ref = p / (math.e * math.log(p))
            devs.append(abs(root - ref) / ref * math.log(p)
                        / math.log(math.log(p)))
        assert all(math.isfinite(d) for d in devs)
        tail = devs[-4:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
