import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbound import BellQuery, DomainError, bell_dobinski, mgf_bound_at_lambda
from bellbound import bounds, verify
from bellbound.applications import REL_SLACK
from bellbound.bounds import (
    CANDIDATES,
    _rough_fit_grid,
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
            assert g <= mgf_bound_at_lambda(q, lam0) * (1 + 1e-9)

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
                mgf_bound_at_lambda(q, lam0), rel=1e-12)

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
        assert res.bound_on_b == pytest.approx(
            math.exp(-1) * 6**10 / math.factorial(6), rel=1e-12)

    def test_point_1_1(self):
        res = lower_h0_search(BellQuery(1, 1))
        assert res.k_star == 1
        assert res.bound_on_b == pytest.approx(math.exp(-1), rel=1e-12)

    def test_below_series(self):
        for p, beta in [(10, 1), (2, 10), (33, 0.4)]:
            res = lower_h0_search(BellQuery(p, beta))
            log_b = bell_dobinski(BellQuery(p, beta)).log_value
            assert res.log_bound_on_b <= log_b + 1e-12

    def test_huge_beta_without_walk(self):
        # the peak is found by bisection, in O(log beta) steps
        res = lower_h0_search(BellQuery(3, 1e12))
        assert res.k_star == peak_index(3, 1e12)
        assert abs(res.k_star - 1e12) < 10

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
        h0 = lower_h0_search(BellQuery(10, 1)).bound_on_b
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
    ])
    def test_matches_the_sup_to_50_digits(self, p, beta):
        mpmath = pytest.importorskip("mpmath")
        val, x_star = lower_h_continuous(BellQuery(p, beta))
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
            assert mgf_bound_at_lambda(q, 2.0) == pytest.approx(
                regime_upper_largebeta(q), rel=1e-12)

    def test_upper_regime_error(self):
        with pytest.raises(DomainError):
            regime_upper_largebeta(BellQuery(10, 1))

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
        for paper in (False, True):
            km = regime_lower_largebeta(BellQuery(2, 1e12), paper)
            assert km.holds is True and km.value <= 1e12

    def test_kminus_default_and_flag(self):
        km = regime_lower_largebeta(BellQuery(2, 10))
        assert km.constant_label == "formula"
        assert km.value == pytest.approx(K_MINUS_FORMULA * 10, rel=1e-12)
        assert km.holds is True
        km_paper = regime_lower_largebeta(BellQuery(2, 10),
                                          use_paper_constant=True)
        assert km_paper.constant_label == "paper"
        assert km_paper.value == pytest.approx(6.538, rel=1e-12)
        assert km_paper.holds is True


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

    def test_refused_below_fitted_range(self):
        # the fit's first grid point with lnln p > 0 is p ~ 2.8502; below
        # it the formula falls under B^{1/p}
        with pytest.raises(DomainError):
            rough_upper_triangle(BellQuery(2.84, 1))

    def test_holds_from_fitted_range_to_3_5(self):
        p_min = _rough_fit_grid()[0]
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

    def test_one_series_call_when_it_fails(self, monkeypatch):
        # beta = 1e9 is past the series budget; the K- flag rests on Jensen,
        # so the report does not run the series a second time for it
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bell_dobinski(*args, **kwargs)

        monkeypatch.setattr(bounds, "bell_dobinski", counted)
        rep = bound_report(BellQuery(2, 1e9))
        assert len(calls) == 1
        assert len([e for e in rep.errors if e.startswith("series:")]) == 1
        assert rep.lower == 1e9 and rep.lower_method == "Jensen"
        assert math.isfinite(rep.upper) and rep.upper_method == "GOptimized"
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
        assert math.isfinite(rep.upper)
        assert rep.lower <= rep.series_root * (1 + 1e-12) <= rep.upper
        assert all(e.startswith("GOptimized:") for e in rep.errors)


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


class TestCandidates:
    def test_every_public_bound_listed_once(self):
        names = [c.name for c in CANDIDATES]
        assert len(set(names)) == len(names) == 8
        assert {c.side for c in CANDIDATES} == {"lower", "upper"}

    def test_report_lower_candidates(self):
        # the k0 term never exceeds H0Search, so it does not compete
        for regime in (Regime.LARGE_P, Regime.LARGE_BETA):
            assert [c.method for c in CANDIDATES
                    if c.side == "lower" and regime in c.regimes] == [
                "H0Search", "HContinuous", "Jensen"]

    def test_report_upper_candidates(self):
        # K+ * beta is one value of the infimum GOptimized, so it does not
        # compete; the closed form applies only at p/beta >= 2
        assert [c.method for c in CANDIDATES if c.side == "upper"
                and Regime.LARGE_BETA in c.regimes] == ["GOptimized"]
        assert [c.method for c in CANDIDATES if c.side == "upper"
                and Regime.LARGE_P in c.regimes] == [
            "GOptimized", "ClosedFormLargeP"]

    @given(p=log_uniform(1.0, 500.0), beta=log_uniform(1e-3, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_g_optimized_below_the_bounds_it_minimises(self, p, beta):
        # GOptimized is the inf over lambda of the MGF bound; the closed form
        # is the MGF bound at lambda0, and K+ * beta the one at lambda =
        # p/beta, maximised over p/beta <= 2
        q = BellQuery(p, beta)
        g, _ = upper_g_optimized(q)
        for other in (upper_closed_form_largep, regime_upper_largebeta):
            try:
                bound = other(q)
            except DomainError:
                continue
            assert g <= bound * (1 + 1e-12), other.__name__

    def test_report_calls_module_globals(self, monkeypatch):
        # a patched module attribute is what the report runs
        monkeypatch.setattr(bounds, "upper_g_optimized",
                            lambda q: (1e9, 0.25))
        rep = bound_report(BellQuery(10, 1))
        assert rep.upper_method == "ClosedFormLargeP"
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

    @given(p=log_uniform(1.0, 500.0), beta=log_uniform(1e-300, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_every_bound_on_its_side_or_refused(self, p, beta):
        q = BellQuery(p, beta)
        root = series_root(p, beta)
        for c in CANDIDATES:
            try:
                value, _ = c.evaluate(q)
            except DomainError:
                continue
            assert math.isfinite(value), c.name
            assert c.on_side(value, root, REL_SLACK), (c.name, value, root)
        rep = bound_report(q)
        assert rep.lower <= root * (1 + REL_SLACK)
        assert rep.upper >= root * (1 - REL_SLACK)


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
