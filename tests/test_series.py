import dataclasses
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellbound import (
    BellQuery,
    DomainError,
    Regime,
    bell_dobinski,
    bell_touchard_exact,
    log_mgf_bound,
    stirling_second_row,
)
from bellbound import series
from bellbound.series import _REANCHOR, log_term, peak_index


class TestBellQuery:
    def test_rejects_negative_p(self):
        with pytest.raises(DomainError):
            BellQuery(-1.0, 1.0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(DomainError):
            BellQuery(2.0, 0.0)
        with pytest.raises(DomainError):
            BellQuery(2.0, -3.0)

    def test_regime_split(self):
        assert BellQuery(10, 1).regime is Regime.LARGE_P
        assert BellQuery(2, 10).regime is Regime.LARGE_BETA
        assert BellQuery(0.5, 0.1).regime is Regime.LARGE_P
        # tie p/beta == 2 resolves to LargeP
        assert BellQuery(2, 1).regime is Regime.LARGE_P
        assert list(Regime) == [Regime.LARGE_P, Regime.LARGE_BETA]

    def test_cached_peak_is_not_part_of_the_value(self):
        cached, fresh = BellQuery(37, 3.3), BellQuery(37, 3.3)
        assert cached.peak == peak_index(37, 3.3)
        assert "frame" in vars(cached) and "frame" not in vars(fresh)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh) == "BellQuery(p=37, beta=3.3)"

    def test_replace_searches_the_new_peak(self):
        q = BellQuery(37, 3.3)
        assert q.peak == 20
        moved = dataclasses.replace(q, beta=100.0)
        assert "frame" not in vars(moved)
        assert moved.peak == peak_index(37, 100.0) != q.peak

    def test_refused_peak_is_not_cached(self):
        q = BellQuery(1e300, sys.float_info.max)
        for _ in range(2):
            with pytest.raises(DomainError, match="peak index"):
                q.peak
        assert "frame" not in vars(q)

    def test_cached_frame_and_lambda_are_not_part_of_the_value(self):
        cached, fresh = BellQuery(37, 3.3), BellQuery(37, 3.3)
        m, _, _, log_peak, _ = cached.frame
        assert m == cached.peak == 20 and log_peak == log_term(20, 37, 3.3)
        assert cached.lambda_star == series.lambert_w(37 / 3.3)
        assert {"frame", "lambda_star"} <= vars(cached).keys()
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh) == "BellQuery(p=37, beta=3.3)"
        refused = BellQuery(1e300, sys.float_info.max)
        with pytest.raises(DomainError, match="peak index"):
            refused.frame
        assert "frame" not in vars(refused)

    @given(p=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
           beta=st.floats(-300.0, 5.0).map(lambda t: 10.0**t))
    @example(p=0.0, beta=1.0)
    @example(p=1.0, beta=2.0)  # t_2 = t_3: the earlier index
    @settings(max_examples=200, deadline=None)
    def test_peak_is_peak_index(self, p, beta):
        q = BellQuery(p, beta)
        assert q.peak == peak_index(p, beta)


class TestDobinski:
    @pytest.mark.parametrize("p,beta,expected", [
        (0.0, 7.3, 1.0),            # Poisson mass normalizes
        (1.0, 2.5, 2.5),            # mean
        (2.0, 3.0, 12.0),           # beta^2 + beta
        (3.0, 1.0, 5.0),            # Bell number
        (10.0, 1.0, 115975.0),      # Bell number
    ])
    def test_known_values(self, p, beta, expected):
        res = bell_dobinski(BellQuery(p, beta), tol=1e-12)
        assert res.value == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("beta", [1e-310, 1e-120, 0.5, 1.0, 3.0, 1e4])
    def test_poisson_mass_normalizes(self, beta):
        # for beta <= 1 the largest term is t_0 = e^{-beta}, below peak_index
        res = bell_dobinski(BellQuery(0.0, beta))
        assert abs(math.expm1(res.log_value)) <= math.exp(
            res.tail_bound_log) + math.exp(res.rounding_bound_log)
        assert (res.method, res.terms_used) == ("ClosedForm", 0)

    def test_method_has_no_default(self):
        with pytest.raises(TypeError, match="method"):
            series.EvalResult(log_value=0.0, terms_used=0,
                              tail_bound_log=-math.inf, peak_index=0,
                              rounding_bound_log=-math.inf)

    def test_certificate_below_tol(self):
        res = bell_dobinski(BellQuery(25, 3), tol=1e-10)
        assert math.exp(res.tail_bound_log) <= 1e-10
        assert res.terms_used >= res.peak_index

    def test_tail_certificate_honesty(self):
        # Re-summing at tol/100 moves the value by less than the original
        # certificate claims.
        for p, beta in [(10, 1), (50, 0.5), (7, 20), (200, 2)]:
            coarse = bell_dobinski(BellQuery(p, beta), tol=1e-6)
            fine = bell_dobinski(BellQuery(p, beta), tol=1e-8)
            shift = abs(math.exp(coarse.log_value - fine.log_value) - 1.0)
            assert shift <= math.exp(coarse.tail_bound_log)

    def test_unimodal_terms(self):
        for p, beta in [(10, 1), (2, 10), (100, 0.5), (0, 5)]:
            res = bell_dobinski(BellQuery(p, beta))
            # k up to 4x the peak covers every term summed at p > 0; at
            # p = 0 the closed form sums none
            terms = [log_term(k, p, beta)
                     for k in range(1, 4 * res.peak_index + 1)]
            # ties (ratio exactly 1) are possible at the peak, so compare
            # with a one-ulp-scale slack
            peak = res.peak_index
            for k in range(1, peak):
                assert terms[k - 1] <= terms[k] + 1e-12
            for k in range(peak, len(terms)):
                assert terms[k - 1] >= terms[k] - 1e-12

    def test_monotone_in_beta(self):
        for p in (2, 5, 10):
            grid = [0.2 * i for i in range(1, 40)]
            logs = [bell_dobinski(BellQuery(p, b)).log_value for b in grid]
            assert all(a <= b + 1e-12 for a, b in zip(logs, logs[1:]))

    def test_tol_out_of_range(self):
        with pytest.raises(DomainError):
            bell_dobinski(BellQuery(2, 1), tol=0.5)

    def test_p_max_enforced(self):
        with pytest.raises(DomainError):
            bell_dobinski(BellQuery(600, 1))

    def test_large_p_no_overflow(self):
        res = bell_dobinski(BellQuery(400, 1))
        assert math.isfinite(res.log_value)
        assert res.log_value > 700  # value itself would overflow a double

    def test_value_past_double_range(self):
        res = bell_dobinski(BellQuery(300, 1.0))  # log_value ~ 1045.3
        with pytest.raises(DomainError, match="double range"):
            res.value

    def test_root_refuses_p_zero_and_overflow(self):
        # B(0, beta) = 1 has no 1/0-th root; it was a bare ZeroDivisionError
        with pytest.raises(DomainError, match="p > 0"):
            bell_dobinski(BellQuery(0, 1.0)).root(0)
        res = bell_dobinski(BellQuery(300, 1.0))
        assert res.root(300) == pytest.approx(math.exp(res.log_value / 300))
        with pytest.raises(DomainError, match="^root = exp.*double range"):
            res.root(1.0)

    @pytest.mark.parametrize("p, beta, method", [
        (2.5, 170.0, "Series"), (2.5, 199.9, "Trapezoid"),
        (500.0, 40.0, "Series"), (500.0, 50.0, "Trapezoid"),
        (2.5, 1e5, "Trapezoid")])
    def test_method_switches_at_the_crossover(self, p, beta, method):
        # the rule takes over where _trapezoid_step's h reaches 5
        assert bell_dobinski(BellQuery(p, beta)).method == method

    def test_step_of_3_is_refused(self):
        # at (2, 150) the floor lies above 0 and the strip allows h = 3, the
        # largest odd step below pi sd_a sqrt(2 / g_min); its directly built
        # nodes would cost more than the series
        p, beta, tol = 2.0, 150.0, 1e-12
        m = peak_index(p, beta)
        far = math.sqrt(2.0 * (math.log(2.0) - math.log(tol))) + 2.0
        floor = m - far * math.sqrt(m / (1.0 + p / m))
        sd_a = math.sqrt(floor / (1.0 + p / floor))
        g_min = math.log(16.0) - math.log(8.0 * series._U)
        assert floor > 0.0 and 3 <= math.pi * sd_a * math.sqrt(2.0 / g_min) < 5
        assert series._trapezoid_step(p, m, tol) is None
        assert bell_dobinski(BellQuery(p, beta), tol=tol).method == "Series"

    def test_trapezoid_falls_back_where_it_cannot_certify(self):
        # at tol = 1e-300 the floor below the peak of beta = 250 is under 0
        assert series._trapezoid_step(2.0, peak_index(2.0, 250.0), 1e-300) is None
        res = bell_dobinski(BellQuery(2, 250.0), tol=1e-300)
        assert res.method == "Series"
        exact = Fraction(250) ** 2 + 250
        err = float(abs(Fraction(res.value) - exact) / exact)
        assert err <= total_certificate(res) + 2.3e-16
        # and a walk whose next node would pass below its floor gives up
        m = peak_index(2.0, 1e4)
        h, alias, _ = series._trapezoid_step(2.0, m, 1e-12)
        frame = series._peak_frame(2.0, 1e4, m)
        assert series._walk(2.0, 1e4, frame, 1e-12, h, alias, m - h) is None

    def test_floor_that_rounds_to_the_peak(self):
        # at beta ~1e151 the floor rounds to float(m); the first left node,
        # tested as k - h/2 < floor in floats, lies above it, so the rule
        # answers instead of leaving ~1e75 unit steps to the fallback
        p, beta, tol = 3.5473, 1.0151e151, 1e-12
        m = peak_index(p, beta)
        step = series._trapezoid_step(p, m, tol)
        assert step[2] == float(m)
        frame = series._peak_frame(p, beta, m)
        assert series._walk(p, beta, frame, tol, *step).method == "Trapezoid"

    def test_trapezoid_falls_back_where_its_step_would_be_1(self):
        # at beta = 1800 the floor lies above 0, but the strip below it is
        # too narrow for a step of 5, or even 3, at tol = 1e-300: h = 1,
        # refused
        p, beta, tol = 2.0, 1800.0, 1e-300
        m = peak_index(p, beta)
        far = math.sqrt(2.0 * (math.log(2.0) - math.log(tol))) + 2.0
        assert m - far * math.sqrt(m / (1.0 + p / m)) > 100.0  # the floor
        assert series._trapezoid_step(p, m, tol) is None
        res = bell_dobinski(BellQuery(p, beta), tol=tol)
        assert res.method == "Series"
        exact = Fraction(1800) ** 2 + 1800
        err = float(abs(Fraction(res.value) - exact) / exact)
        assert err <= total_certificate(res) + 2.3e-16


class TestInRange:
    def test_finite_value_passes_through(self):
        assert series.in_range("x", math.exp, 1.0) == math.exp(1.0)
        assert series.in_range("x", math.exp, -800.0) == 0.0

    @pytest.mark.parametrize("f,args", [
        (math.ldexp, (1.0, 2000)),  # raises OverflowError
        (float.__mul__, (1e308, 10.0)),  # returns inf
        (float.__sub__, (math.inf, math.inf)),  # returns NaN
    ])
    def test_refuses_what_leaves_the_double_range(self, f, args):
        with pytest.raises(DomainError, match="^y exceeds the double range$"):
            series.in_range("y", f, *args)

    def test_exp_names_its_exponent(self):
        with pytest.raises(DomainError,
                           match=r"^z = exp\(710\) exceeds the double range$"):
            series.in_range("z", math.exp, 710.0)


class TestPeakIndex:
    @staticmethod
    def linear_scan(p, beta):
        # smallest k >= 1 with t_{k+1} <= t_k: the earlier index of a tie
        k = 1
        while log_term(k + 1, p, beta) > log_term(k, p, beta):
            k += 1
        return k

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 7.5, 30.0, 500.0])
    @pytest.mark.parametrize("beta", [1e-3, 0.5, 2.0, 17.3, 300.0, 4321.0])
    def test_matches_linear_scan(self, p, beta):
        # at integer p the exact peak: the float scan follows log_term's
        # last-ulp ranking at exact ties, (2, 0.5), (0, 300) and (0, 4321)
        want = (self.exact_peak(int(p), beta) if p == int(p)
                else self.linear_scan(p, beta))
        assert peak_index(p, beta) == want

    def test_exact_tie(self):
        # p = 1, beta = 2: t_2 = t_3 = 4 e^{-2}; the ratio between them is
        # computed as exactly 0, so the earlier index wins
        assert series._log_term_ratio(2, 1.0, 2.0, math.log(2.0)) == 0.0
        assert peak_index(1.0, 2.0) == 2
        assert bell_dobinski(BellQuery(1.0, 2.0)).peak_index == 2

    def test_exact_ties(self):
        # t_k = t_{k+1} where beta = k^p / (k+1)^(p-1); every such beta that
        # is a double, for integer p in [0, 8] and k < 200
        ties = 0
        for p in range(9):
            for k in range(1, 200):
                b = Fraction(k) ** p / Fraction(k + 1) ** (p - 1)
                beta = float(b)
                if Fraction(beta) != b:
                    continue
                ties += 1
                m = peak_index(float(p), beta)
                # t_{m+1} <= t_m >= t_{m-1}, exactly: a largest term
                assert Fraction(m + 1) ** (p - 1) * b <= m**p
                assert m == 1 or Fraction(m) ** (p - 1) * b >= (m - 1) ** p
                if series._log_term_ratio(k, p, beta, math.log(beta)) <= 0.0:
                    assert m == k
        assert ties == 446

    @staticmethod
    def bisection(p, beta):
        # the search without a seed, from the checked lower end
        # max(1, floor(beta) - 1): the reference for the seeded search
        log_beta = math.log(beta)
        lo = max(1, math.floor(beta) - 1)
        hi = math.ceil(beta) + math.ceil(p) + 1
        if series._log_term_ratio(lo, p, beta, log_beta) <= 0.0:
            hi = lo
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if series._log_term_ratio(mid, p, beta, log_beta) > 0.0:
                lo = mid
            else:
                hi = mid
        if hi >= 2**1024 - 2**970:
            raise DomainError("peak index exceeds DBL_MAX")
        return hi

    @given(p=st.one_of(st.just(0.0), st.floats(math.log(1e-3), math.log(1e300))
                       .map(math.exp)),
           beta=st.floats(math.log(1e-300), math.log(sys.float_info.max))
           .map(math.exp))
    @example(p=1e300, beta=sys.float_info.max)  # refused
    @example(p=1.0, beta=2.0)  # t_2 = t_3
    @example(p=2.4139208466070818e72, beta=8.906841986498795e72)
    @settings(max_examples=300, deadline=None)
    def test_seeded_matches_bisection(self, p, beta):
        # the last example: a ratio that crosses 0 many times near the peak,
        # where a seed could land on another crossing, so none is taken
        lam = BellQuery(p, beta).lambda_star
        try:
            want = self.bisection(p, beta)
        except DomainError:
            for seed in (None, lam):
                with pytest.raises(DomainError, match="peak index"):
                    peak_index(p, beta, seed)
            return
        assert peak_index(p, beta, lam) == peak_index(p, beta) == want

    def test_seeded_exact_ties(self):
        # the exact ties of test_exact_ties, from the seed
        ties = 0
        for p in range(9):
            for k in range(1, 200):
                b = Fraction(k) ** p / Fraction(k + 1) ** (p - 1)
                beta = float(b)
                if Fraction(beta) != b:
                    continue
                ties += 1
                p_f = float(p)
                lam = BellQuery(p_f, beta).lambda_star
                assert peak_index(p_f, beta, lam) == self.bisection(p_f, beta)
        assert ties == 446

    @pytest.mark.parametrize("p", [2.0, 40.0, 500.0])
    def test_seed_decides_in_two_evaluations(self, monkeypatch, p):
        calls = []
        ratio = series._log_term_ratio
        monkeypatch.setattr(series, "_log_term_ratio",
                            lambda *args: calls.append(args) or ratio(*args))
        for beta in (0.1, 1.0, 7.3, 50.0, 3e3, 1e5):
            lam = BellQuery(p, beta).lambda_star
            calls.clear()
            m = peak_index(p, beta, lam)
            assert len(calls) <= 2 and m == self.bisection(p, beta)

    @pytest.mark.parametrize("p", [0.0, 2.0, 800.0, 2000.0])
    @pytest.mark.parametrize("beta", [5e-324, 1e-320])
    def test_subnormal_beta(self, p, beta):
        # beta / (k + 1) underflows to 0 here; the ratio takes log(beta) apart
        assert peak_index(p, beta) == self.linear_scan(p, beta)

    @staticmethod
    def exact_peak(p, beta):
        # smallest k >= 1 with t_{k+1} <= t_k, i.e. (k+1)^(p-1) beta <= k^p
        b = Fraction(beta)
        lo, hi = 0, math.ceil(b) + p + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if Fraction(mid + 1) ** (p - 1) * b <= mid**p:
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1e16, 1e20, 1e30, 1e100, 8e307])
    def test_huge_beta_matches_exact(self, p, beta):
        # log(beta) - log(k + 1) cancels to ulp(log beta) near the peak,
        # which put it ~1e-16 * beta indices off
        assert peak_index(p, beta) == self.exact_peak(p, beta)

    @pytest.mark.parametrize("p, beta", [(2, 8e307), (10, 1e4)])
    def test_bracket_starts_below_beta(self, monkeypatch, p, beta):
        # the ratio is > 0 below k + 1 = beta, so the bisection spans ~p + 3
        # indices, not beta + p
        calls = []
        ratio = series._log_term_ratio

        def counted(*args):
            calls.append(args[0])
            return ratio(*args)

        monkeypatch.setattr(series, "_log_term_ratio", counted)
        assert peak_index(p, beta) == self.exact_peak(p, beta)
        assert len(calls) <= 2 * math.log2(p + 4) + 4

    def test_peak_without_a_double_is_refused(self):
        with pytest.raises(DomainError, match="peak index"):
            peak_index(1e300, sys.float_info.max)
        # ~DBL_MAX + 50 rounds to DBL_MAX, so it is kept
        assert peak_index(50.0, sys.float_info.max) > sys.float_info.max

    def test_series_at_smallest_beta(self):
        # B(2, beta) = beta^2 + beta
        res = bell_dobinski(BellQuery(2.0, 5e-324))
        assert res.log_value == pytest.approx(math.log(5e-324), rel=1e-15)

    def test_reported_by_series(self):
        for p, beta in [(10, 1), (3, 1e4), (250, 40)]:
            assert bell_dobinski(BellQuery(p, beta)).peak_index == peak_index(
                p, beta)


def total_certificate(res) -> float:
    return math.exp(res.tail_bound_log) + math.exp(res.rounding_bound_log)


def log_error(res, exact, mpmath) -> float:
    """|value / exact - 1|, at 50 digits, for values past the double range."""
    with mpmath.workdps(50):
        if isinstance(exact, Fraction):
            exact = mpmath.mpf(exact.numerator) / exact.denominator
        return float(abs(mpmath.expm1(mpmath.mpf(res.log_value)
                                      - mpmath.log(exact))))


def unit_steps(p, beta, tol=1e-12):
    """The series summed term by term, at any beta."""
    frame = series._peak_frame(p, beta, peak_index(p, beta))
    return series._walk(p, beta, frame, tol)


def trapezoid(p, beta, tol=1e-12):
    """The trapezoid rule, at any beta where it can certify tol."""
    m = peak_index(p, beta)
    return series._walk(p, beta, series._peak_frame(p, beta, m), tol,
                        *series._trapezoid_step(p, m, tol))


class TestCertificate:
    @pytest.mark.parametrize("p", [2, 5, 10, 30])
    @pytest.mark.parametrize("beta", [1e3, 1e4, 1e5])
    def test_total_error_vs_exact_touchard(self, p, beta):
        tol = 1e-12
        res = bell_dobinski(BellQuery(float(p), beta), tol=tol)
        exact = bell_touchard_exact(p, Fraction(beta))
        err = float(abs(Fraction(res.value) - exact) / exact)
        # exp() of log_value adds at most an ulp of its own
        assert err <= total_certificate(res) + 2.3e-16
        assert math.exp(res.rounding_bound_log) <= tol / 2
        assert total_certificate(res) <= tol

    @pytest.mark.parametrize("p", [1.5, 2.7, 7.3, 33.3, 480.5])
    @pytest.mark.parametrize("beta", [0.01, 1.0, 37.5, 1e3])
    def test_total_error_vs_mpmath(self, p, beta):
        mpmath = pytest.importorskip("mpmath")
        res = bell_dobinski(BellQuery(p, beta), tol=1e-12)
        with mpmath.workdps(50):
            mp, mb = mpmath.mpf(p), mpmath.mpf(beta)
            k_max = int(beta + p + 40 * math.sqrt(beta + p) + 60)
            total = mpmath.fsum(
                mpmath.exp(mp * mpmath.log(k) + k * mpmath.log(mb)
                           - mpmath.loggamma(k + 1) - mb)
                for k in range(1, k_max))
            err = float(abs(mpmath.expm1(mpmath.mpf(res.log_value)
                                         - mpmath.log(total))))
        assert err <= total_certificate(res)

    def test_rounding_past_half_tol_is_reported_not_raised(self):
        # |log B| ~ 5800: log_value's own ulp exceeds tol/2, so the
        # certificate honestly exceeds tol; truncation is pushed to tol/2
        tol = 1e-12
        res = bell_dobinski(BellQuery(500, 1e5), tol=tol)
        assert math.exp(res.rounding_bound_log) > tol / 2
        assert math.exp(res.tail_bound_log) <= tol / 2

    def test_beta_1e8_within_budget(self):
        # B(2, beta) = beta^2 + beta
        beta = 1e8
        res = bell_dobinski(BellQuery(2, beta))
        assert res.terms_used <= 200_000
        exact = Fraction(beta) ** 2 + Fraction(beta)
        err = float(abs(Fraction(res.value) - exact) / exact)
        assert err <= total_certificate(res) + 2.3e-16

    def test_beta_1e9_within_budget(self):
        beta = 1e9
        res = bell_dobinski(BellQuery(2, beta))
        exact = Fraction(beta) ** 2 + Fraction(beta)
        err = float(abs(Fraction(res.value) - exact) / exact)
        assert err <= total_certificate(res) + 2.3e-16

    def test_beta_1e10_certified(self):
        # past the old 500k-term budget; the trapezoid rule needs few nodes
        beta = 1e10
        res = bell_dobinski(BellQuery(2, beta))
        assert res.method == "Trapezoid" and res.terms_used <= 40
        exact = Fraction(beta) ** 2 + Fraction(beta)
        err = float(abs(Fraction(res.value) - exact) / exact)
        assert err <= total_certificate(res) + 2.3e-16

    @pytest.mark.parametrize("beta", [1.263e9, 1e10, 1e16, 8e307,
                                      sys.float_info.max])
    def test_refused_before_summing(self, beta, monkeypatch):
        # p past P_MAX, the one refusal left at these beta, comes before
        # the peak search and any term (the term budget that refused them
        # at p <= P_MAX is gone: test_huge_beta_in_few_nodes)
        def refuse(*args):
            raise AssertionError("the peak was searched or a term summed")

        for name in ("peak_index", "_log_offset", "lambert_w", "log_mgf_bound"):
            monkeypatch.setattr(series, name, refuse)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="exceeds p_max"):
            bell_dobinski(BellQuery(series.P_MAX + 0.5, beta))
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("beta", [1.263e9, 1e10, 1e16, 8e307,
                                      sys.float_info.max])
    def test_huge_beta_in_few_nodes(self, beta):
        # B(2, beta) = beta^2 + beta, answered in well under a millisecond
        # of work where the series refused before summing
        mpmath = pytest.importorskip("mpmath")
        start = time.perf_counter()
        res = bell_dobinski(BellQuery(2, beta))
        assert time.perf_counter() - start < 0.05
        assert res.method == "Trapezoid" and res.terms_used <= 40
        exact = Fraction(beta) ** 2 + Fraction(beta)
        assert log_error(res, exact, mpmath) <= total_certificate(res) + 2.3e-16

    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_former_refusal_band_certified(self, p):
        # [1.227e9, 1.263e9] summed 500k terms before refusing, and beta
        # above was refused up front; B(0.5, beta) is checked against the
        # 40-digit integral of the continued term, which differs from the
        # sum by far less than 1e-30 here (_trapezoid_step, with s = 1)
        mpmath = pytest.importorskip("mpmath")
        for beta in (1.227e9, 1.263e9, 1.3142e9):
            res = bell_dobinski(BellQuery(p, beta))
            assert res.method == "Trapezoid"
            if p == 2.0:
                exact = Fraction(beta) ** 2 + Fraction(beta)
            else:
                with mpmath.workdps(40):
                    b, sd = mpmath.mpf(beta), mpmath.sqrt(beta)
                    exact = mpmath.quad(
                        lambda x: mpmath.exp(p * mpmath.log(x) + x * mpmath.log(b)
                                             - b - mpmath.loggamma(x + 1)),
                        [b + i * sd for i in range(-40, 41, 4)])
            assert log_error(res, exact, mpmath) <= total_certificate(res) + 2.3e-16

    @given(p=st.one_of(st.integers(0, 500).map(float), st.floats(0.0, 500.0)),
           beta=st.floats(-3.0, 6.0).map(lambda t: 10.0**t))
    @settings(max_examples=60, deadline=None)
    def test_below_refusal_bound(self, p, beta):
        # B(p, beta) <= (beta + ceil(p))^p, once the bound of the series'
        # up-front refusal: for Poisson X, E X^n = beta E (X + 1)^(n-1)
        # (Stein), so ||X||_n <= beta + n by Minkowski and induction, and
        # ||X||_p <= ||X||_ceil(p) (Lyapunov)
        res = bell_dobinski(BellQuery(p, beta))
        assert res.log_value <= p * math.log(beta + math.ceil(p)) + (
            total_certificate(res))

    @given(p=st.integers(0, 30),
           beta=st.floats(-3.0, 6.0).map(lambda t: 10.0**t))
    @settings(max_examples=100, deadline=None)
    def test_ratio_steps_vs_exact_touchard(self, p, beta):
        # terms built by the ratio from their neighbours, re-anchored every
        # _REANCHOR steps per side, and the direct k <= 20 table
        res = bell_dobinski(BellQuery(float(p), beta))
        exact = bell_touchard_exact(p, Fraction(beta))
        err = float(abs(Fraction(res.value) - exact) / exact)
        assert err <= total_certificate(res) + 2.3e-16

    def test_several_reanchors(self):
        assert unit_steps(5.0, 1e5).terms_used > 4 * _REANCHOR


def certificate_holds(res, err, tol):
    """err within the certificate, and the method error within tol less
    the rounding it must leave room for."""
    tail, rounding = math.exp(res.tail_bound_log), math.exp(res.rounding_bound_log)
    return err <= tail + rounding + 2.3e-16 and tail <= tol - min(rounding, tol / 2)


class TestTrapezoid:
    @given(p=st.floats(1e-3, 500.0),
           beta=st.floats(math.log10(200), 6.0).map(
               lambda t: 10.0**t),
           tol=st.sampled_from([1e-3, 1e-8, 1e-12, 1e-15]))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_unit_steps(self, p, beta, tol):
        trap, steps = trapezoid(p, beta, tol), unit_steps(p, beta, tol)
        assert trap.method == "Trapezoid" and steps.method == "Series"
        diff = abs(math.expm1(trap.log_value - steps.log_value))
        assert diff <= total_certificate(trap) + total_certificate(steps)
        assert certificate_holds(trap, 0.0, tol)

    @given(p=st.integers(1, 30), beta=st.floats(
        math.log10(200), 15.0).map(lambda t: 10.0**t),
           tol=st.sampled_from([1e-3, 1e-8, 1e-12, 1e-15]))
    @settings(max_examples=100, deadline=None)
    def test_vs_exact_touchard(self, p, beta, tol):
        mpmath = pytest.importorskip("mpmath")
        res = bell_dobinski(BellQuery(float(p), beta), tol=tol)
        assert res.method == "Trapezoid"
        exact = bell_touchard_exact(p, Fraction(beta))
        assert certificate_holds(res, log_error(res, exact, mpmath), tol)

    @given(p=st.floats(40.0, 500.0), beta=st.floats(10.0, 200.0),
           tol=st.sampled_from([1e-3, 1e-8, 1e-12, 1e-15]))
    @settings(max_examples=30, deadline=None)
    def test_rule_below_beta_200(self, p, beta, tol):
        # at large p the step reaches 5 well below beta = 200
        m = peak_index(p, beta)
        assume(series._trapezoid_step(p, m, tol) is not None)
        mpmath = pytest.importorskip("mpmath")
        trap = bell_dobinski(BellQuery(p, beta), tol=tol)
        steps = unit_steps(p, beta, tol)
        assert trap.method == "Trapezoid"
        diff = abs(math.expm1(trap.log_value - steps.log_value))
        assert diff <= total_certificate(trap) + total_certificate(steps)
        with mpmath.workdps(50):
            mp, mb = mpmath.mpf(p), mpmath.mpf(beta)
            k_max = int(beta + p + 40 * math.sqrt(beta + p) + 60)
            total = mpmath.fsum(
                mpmath.exp(mp * mpmath.log(k) + k * mpmath.log(mb)
                           - mpmath.loggamma(k + 1) - mb)
                for k in range(1, k_max))
        assert certificate_holds(trap, log_error(trap, total, mpmath), tol)

    @pytest.mark.parametrize("beta", [1e4, 1e100, sys.float_info.max])
    def test_smallest_tol_stays_on_the_rule(self, beta):
        # the series fallback would need ~1e51 terms at beta = 1e100
        start = time.perf_counter()
        res = bell_dobinski(BellQuery(2, beta), tol=5e-324)
        assert time.perf_counter() - start < 0.5
        assert res.method == "Trapezoid"
        assert math.exp(res.tail_bound_log) <= 5e-324

    def test_rule_tail_guards(self, monkeypatch):
        # the rule's tail in log form: a node not below the one before
        # (here the first node of each side, at or above the peak's offset
        # 0) has an infinite tail, so its side takes another node; a node
        # far below it (exp underflows to 0) has a finite, non-negative tail
        p, beta = 2.0, 1e4
        m = peak_index(p, beta)
        h, alias, floor = series._trapezoid_step(p, m, 1e-12)
        for first in (0.0, 0.5):
            asked = []

            def offset(k, *args):
                asked.append(k)
                return (first if abs(k - m) == h else -1e4), 0.0

            monkeypatch.setattr(series, "_log_offset", offset)
            res = series._walk(p, beta, series._peak_frame(p, beta, m),
                               1e-12, h, alias, floor)
            assert asked == [m + h, m + 2 * h, m - h, m - 2 * h]
            assert res.terms_used == 5
            assert 0.0 <= math.exp(res.tail_bound_log) < math.inf

    def test_node_count_flat_in_beta(self):
        counts = [bell_dobinski(BellQuery(2.0, 10.0**t)).terms_used
                  for t in range(3, 309, 15)]
        assert max(counts) <= 40


class TestPoissonRounding:
    @staticmethod
    def error_in_units(k, beta):
        # |computed - exact| of dr = -log Poisson(beta)(k) - log(2 pi k)/2,
        # and its bound
        mpmath = pytest.importorskip("mpmath")
        got, err = series._log_dr(k, beta)
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            want = (-(k * mpmath.log(b) - b - mpmath.loggamma(k + 1))
                    - mpmath.log(2 * mpmath.pi * k) / 2)
            return float(abs(got - want) / series._U), err

    def test_peak_of_60_8_at_181_96(self):
        # the closed-form deviance was charged 6 * 480.7 = 2884 units
        # against a first-order error of a few hundred
        seen, err = self.error_in_units(235, 181.96)
        assert seen <= err < 1000
        mpmath = pytest.importorskip("mpmath")
        tol = 1e-12
        res = bell_dobinski(BellQuery(60.8, 181.96), tol=tol)
        assert math.exp(res.rounding_bound_log) < tol / 2
        with mpmath.workdps(50):
            mp, mb = mpmath.mpf(60.8), mpmath.mpf(181.96)
            total = mpmath.fsum(
                mpmath.exp(mp * mpmath.log(k) + k * mpmath.log(mb)
                           - mpmath.loggamma(k + 1) - mb)
                for k in range(1, 700))
        assert certificate_holds(res, log_error(res, total, mpmath), tol)

    @given(beta=st.floats(-3.0, 20.0).map(lambda t: 10.0**t),
           spread=st.floats(-1.5, 1.5), small=st.integers(1, 40),
           use_small=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_error_within_bound(self, beta, spread, small, use_small):
        # k near beta exercises the deviance series (past 2**53, with a
        # rounded k), k far from it the closed form, k <= 20 the table
        k = small if use_small else max(1, round(beta * math.exp(spread)))
        seen, err = self.error_in_units(k, beta)
        assert seen <= err

    @given(p=st.floats(-3.0, math.log10(500.0)).map(lambda t: 10.0**t),
           beta=st.floats(-300.0, 6.0).map(lambda t: 10.0**t),
           k=st.floats(0.0, 6.0).map(lambda t: round(10.0**t)),
           at_peak=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_log_term_within_the_walks_charge(self, p, beta, k, at_peak):
        # the charge _walk puts on its peak term: the frame's peak_err, and
        # dr_err for the peak's dr
        mpmath = pytest.importorskip("mpmath")
        if at_peak:
            k = peak_index(p, beta)
        got = log_term(k, p, beta)
        _, _, dr_err, _, peak_err = series._peak_frame(p, beta, k)
        with mpmath.workdps(50):
            mb = mpmath.mpf(beta)
            want = (mpmath.mpf(p) * mpmath.log(k) + k * mpmath.log(mb) - mb
                    - mpmath.loggamma(k + 1))
            seen = float(abs(got - want))
        assert seen <= peak_err + series._U * dr_err

    @given(p=st.floats(1e-3, 500.0), beta=st.floats(-3.0, 3.0).map(
        lambda t: 10.0**t))
    @settings(max_examples=30, deadline=None)
    def test_series_within_certificate(self, p, beta):
        mpmath = pytest.importorskip("mpmath")
        tol = 1e-12
        res = bell_dobinski(BellQuery(p, beta), tol=tol)
        with mpmath.workdps(50):
            mp, mb = mpmath.mpf(p), mpmath.mpf(beta)
            k_max = int(beta + p + 40 * math.sqrt(beta + p) + 60)
            total = mpmath.fsum(
                mpmath.exp(mp * mpmath.log(k) + k * mpmath.log(mb)
                           - mpmath.loggamma(k + 1) - mb)
                for k in range(1, k_max))
        assert certificate_holds(res, log_error(res, total, mpmath), tol)


class TestLogOffset:
    """series._log_offset, the walk's one node formula: log(t_k/t_m) from
    the peak frame, and its rounding bound."""

    @given(p=st.floats(-3.0, math.log10(500.0)).map(lambda t: 10.0**t),
           beta=st.floats(-3.0, 20.0).map(lambda t: 10.0**t),
           j=st.integers(-12, 12), small=st.integers(1, 20),
           use_small=st.booleans())
    # the table, at a table peak (m = 20) and beyond one (k <= 20 < m); a
    # table peak with k beyond the table; the deviance series near beta;
    # the closed form far from it; beta >= 2**52, where float(k) rounds
    @example(p=37.0, beta=3.3, j=0, small=5, use_small=True)
    @example(p=3.0, beta=40.0, j=0, small=8, use_small=True)
    @example(p=37.0, beta=3.3, j=12, small=1, use_small=False)
    @example(p=2.0, beta=1e4, j=-3, small=1, use_small=False)
    @example(p=500.0, beta=100.0, j=-12, small=1, use_small=False)
    @example(p=2.5, beta=1e17, j=5, small=1, use_small=False)
    @example(p=1e-3, beta=1e3, j=12, small=1, use_small=False)
    # the frame's dr_err is needed here: k = m, past 2**53
    @example(p=0.005414154432526086, beta=3.1990475595007836e+16, j=0,
             small=1, use_small=False)
    # k < m 2**-53, where (k - m)/m rounds to -1, and a subnormal k/m
    @example(p=1.0, beta=1e17, j=0, small=1, use_small=True)
    @example(p=1.0, beta=1e308, j=0, small=1, use_small=True)
    @settings(max_examples=300, deadline=None)
    def test_error_within_bound(self, p, beta, j, small, use_small):
        # k = m + j h, h the trapezoid rule's step where it has one, else
        # about a standard deviation of the terms, or k in the table at any
        # peak (the walk asks for k <= 20 only from m <= 52); against
        # log t_k - log_peak to 50 digits
        mpmath = pytest.importorskip("mpmath")
        m = peak_index(p, beta)
        step = series._trapezoid_step(p, m, 1e-12)
        h = step[0] if step else max(1, round(math.sqrt(m / (1.0 + p / m))))
        k = small if use_small else max(1, m + j * h)
        frame = series._peak_frame(p, beta, m)
        got, err = series._log_offset(k, p, beta, frame)
        with mpmath.workdps(50):
            mb = mpmath.mpf(beta)
            want = (mpmath.mpf(p) * mpmath.log(k) + k * mpmath.log(mb) - mb
                    - mpmath.loggamma(k + 1) - mpmath.mpf(frame[3]))
            seen = float(abs(got - want))
        assert seen <= series._U * err + frame[4]


class TestTouchard:
    def test_bell_numbers(self):
        assert [bell_touchard_exact(p, 1) for p in range(6)] == [1, 1, 2, 5, 15, 52]
        assert bell_touchard_exact(10, 1) == 115975

    def test_quadratic_identity(self):
        b0 = Fraction(7, 3)
        assert bell_touchard_exact(2, b0) == b0**2 + b0

    def test_stirling_row(self):
        assert stirling_second_row(5) == (0, 1, 15, 25, 10, 1)

    def test_stirling_row_600_from_a_cold_cache(self):
        # one row at a time, so no recursion depth to exceed
        stirling_second_row.cache_clear()
        row = stirling_second_row(600)
        assert row[2] == 2**599 - 1
        assert row[599] == math.comb(600, 2)

    def test_cap(self):
        from bellbound import BudgetError
        with pytest.raises(BudgetError):
            bell_touchard_exact(31, 1)

    def test_float_past_double_range(self):
        # beta**30 overflows; the exact paths have no range to leave
        with pytest.raises(DomainError, match="double range"):
            bell_touchard_exact(30, 1e11)
        assert bell_touchard_exact(30, 10**11) > 10**330
        assert bell_touchard_exact(30, Fraction(10**11)) > 10**330
        assert math.isfinite(bell_touchard_exact(30, 1e10))

    @given(p=st.integers(0, 30), beta=st.floats(1e-300, 1e10))
    @settings(max_examples=200, deadline=None)
    def test_float_beta_rounds_the_exact_sum_once(self, p, beta):
        got = bell_touchard_exact(p, beta)
        exact = bell_touchard_exact(p, Fraction(beta))
        ulp = Fraction(math.ulp(got))
        assert abs(Fraction(got) - exact) <= ulp / 2

    @given(p=st.integers(0, 20), beta=st.sampled_from([0.5, 1.0, 2.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, p, beta):
        exact = float(bell_touchard_exact(p, beta))
        approx = bell_dobinski(BellQuery(float(p), beta)).value
        assert approx == pytest.approx(exact, rel=1e-10)


class TestMgfBound:
    def test_closed_form_point(self):
        lam0 = math.log(10) - math.log(math.log(10))
        val = math.exp(log_mgf_bound(BellQuery(10, 1), lam0))
        assert val == pytest.approx(3.4994375392405255, rel=1e-12)

    def test_simple_point(self):
        val = math.exp(log_mgf_bound(BellQuery(2, 1), 1.0))
        assert val == pytest.approx((2 / math.e) * math.exp((math.e - 1) / 2),
                                    rel=1e-14)
        # must dominate B(2,1)^{1/2} = sqrt(2)
        assert val >= math.sqrt(2)

    def test_rejects_bad_lambda(self):
        for lam in (0.0, math.inf):
            with pytest.raises(DomainError):
                math.exp(log_mgf_bound(BellQuery(2, 1), lam))

    @pytest.mark.parametrize("p, beta, lam", [
        (2, 1, 710.0),          # e^lam - 1 overflows
        (3, 1e-300, 1400.0),
        (2, 1.5e308, 1.0),      # beta (e^lam - 1) overflows
        (1e300, 1e300, 700.0),
    ])
    def test_log_past_double_range(self, p, beta, lam):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = (mpmath.log(p) - 1 - mpmath.log(lam)
                    + mpmath.mpf(beta) * mpmath.expm1(lam) / p)
            got = log_mgf_bound(BellQuery(p, beta), lam)
            # exp of an argument near 700, whose ulp is 1.1e-13
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_bits_kept_where_expm1_fits(self):
        lam = math.log(sys.float_info.max)  # the largest expm1 accepts
        assert log_mgf_bound(BellQuery(2, 1), lam) == (
            math.log(2) - 1.0 - math.log(lam) + math.expm1(lam) / 2)

    def test_refuses_what_its_log_cannot_hold(self):
        with pytest.raises(DomainError, match="double range"):
            log_mgf_bound(BellQuery(2, 1), 720.0)

    @given(
        p=st.floats(1.0, 60.0),
        beta=st.floats(0.1, 20.0),
        lam=st.floats(0.01, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_chernoff_domination(self, p, beta, lam):
        q = BellQuery(p, beta)
        root = bell_dobinski(q).root(p)
        assert math.exp(log_mgf_bound(q, lam)) >= root * (1 - 1e-11)
