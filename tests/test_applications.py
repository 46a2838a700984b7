import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbound import BudgetError, DomainError
from bellbound.applications import (
    DiscreteDist,
    ExtremalProblem,
    FamilyCheck,
    check_family,
    exact_sum_moment,
    load_instances,
    mc_sum_moment,
    parse_instance_line,
    rosenthal_bound,
    schechtman_extremal,
    verify_inequalities,
)

COIN = DiscreteDist(((0.0, 0.5), (1.0, 0.5)))
# Finite atoms whose fourth moment, and E(X1 + X2)^4, exceed the double range.
HUGE = DiscreteDist(((1e100, 0.5), (1.0, 0.5)))


class TestDiscreteDist:
    def test_validation(self):
        with pytest.raises(DomainError):
            DiscreteDist(((0.0, 0.5), (1.0, 0.6)))
        with pytest.raises(DomainError):
            DiscreteDist(((-1.0, 1.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value(self, value):
        with pytest.raises(DomainError):
            DiscreteDist(((value, 1.0),))

    def test_moments(self):
        assert COIN.mean() == 0.5
        assert COIN.moment(3) == 0.5

    def test_past_double_range(self):
        assert HUGE.moment(3) == pytest.approx(5e299, rel=1e-15)
        with pytest.raises(DomainError, match="double range"):
            HUGE.moment(4)
        # probabilities may sum to 1 + 1e-12, so the mean of DBL_MAX atoms
        # can exceed DBL_MAX
        top = DiscreteDist(((sys.float_info.max, 0.5 + 4e-13),
                            (sys.float_info.max, 0.5 + 4e-13)))
        with pytest.raises(DomainError, match="double range"):
            top.mean()


class TestRosenthal:
    def test_p2(self):
        assert rosenthal_bound(2, 1, 1) == pytest.approx(2.0, rel=1e-11)

    def test_p3(self):
        assert rosenthal_bound(3, 10, 1) == pytest.approx(50.0, rel=1e-11)

    def test_degenerate_constant_variable(self):
        # eta == 1, p = 3: bound 5 >= E eta^3 = 1
        assert rosenthal_bound(3, 1, 1) == pytest.approx(5.0, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            rosenthal_bound(1.5, 1, 1)

    def test_past_double_range(self):
        # B(300) ~ e^1291
        with pytest.raises(DomainError, match="double range"):
            rosenthal_bound(300, 1, 1)


class TestSchechtman:
    def test_p2_examples(self):
        assert schechtman_extremal(ExtremalProblem(1, 2, 2)) == pytest.approx(
            3.0, rel=1e-10)
        assert schechtman_extremal(ExtremalProblem(3, 5, 2)) == pytest.approx(
            14.0, rel=1e-10)

    def test_p3_unit(self):
        prob = ExtremalProblem(1, 1, 3)
        assert prob.mu == pytest.approx(1.0, rel=1e-14)
        assert schechtman_extremal(prob) == pytest.approx(5.0, rel=1e-10)

    def test_requires_p_above_1(self):
        with pytest.raises(DomainError):
            ExtremalProblem(1, 1, 1)

    def test_large_mu(self):
        # mu = 1e6; B(3, mu) = mu^3 + 3 mu^2 + mu and (b/a)^{3/2} = 1e-9
        prob = ExtremalProblem(1e3, 1e-3, 3)
        assert prob.mu == pytest.approx(1e6, rel=1e-12)
        assert schechtman_extremal(prob) == pytest.approx(
            1e9 + 3e3 + 1e-3, rel=1e-10)

    def test_past_double_range(self):
        # mu = 1, so the value is B(300) ~ e^1291
        with pytest.raises(DomainError, match="double range"):
            schechtman_extremal(ExtremalProblem(1, 1, 300))

    @given(a=st.floats(0.1, 10), b=st.floats(0.1, 10))
    @settings(max_examples=100, deadline=None)
    def test_p2_closed_form(self, a, b):
        val = schechtman_extremal(ExtremalProblem(a, b, 2))
        assert val == pytest.approx(a * a + b, rel=1e-10)

    @given(a=st.floats(0.5, 5), b=st.floats(0.5, 5), c=st.floats(0.5, 3),
           p=st.sampled_from([2.0, 3.0, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_scaling_covariance(self, a, b, c, p):
        base = schechtman_extremal(ExtremalProblem(a, b, p))
        scaled = schechtman_extremal(ExtremalProblem(c * a, c**p * b, p))
        assert scaled == pytest.approx(c**p * base, rel=1e-9)


class TestExactSumMoment:
    def test_two_coins(self):
        res = exact_sum_moment([COIN, COIN], 2)
        assert res.value == pytest.approx(1.5, rel=1e-14)
        assert res.method == "Enumeration"
        assert res.stderr is None

    def test_single_dist_mean(self):
        d = DiscreteDist(((1.0, 0.25), (3.0, 0.75)))
        assert exact_sum_moment([d], 1).value == pytest.approx(d.mean(),
                                                               rel=1e-14)

    def test_point_masses(self):
        d = DiscreteDist(((2.5, 1.0),))
        assert exact_sum_moment([d] * 4, 3).value == pytest.approx(
            10.0**3, rel=1e-13)

    def test_budget(self):
        d = DiscreteDist(tuple((float(i), 0.125) for i in range(8)))
        with pytest.raises(BudgetError):
            exact_sum_moment([d] * 8, 2)

    def test_past_double_range(self):
        # (2e100)^3 / 4 + (1e100)^3 / 2, the 2^3 / 4 term lost to rounding
        assert exact_sum_moment([HUGE, HUGE], 3).value == pytest.approx(
            2.5e300, rel=1e-12)
        with pytest.raises(DomainError, match="double range"):
            exact_sum_moment([HUGE, HUGE], 4)
        # the sum itself overflows, at p = 1
        big = DiscreteDist(((1.7e308, 1.0),))
        with pytest.raises(DomainError, match="double range"):
            exact_sum_moment([big, big], 1)

    @given(c=st.floats(0.1, 10), p=st.sampled_from([2.0, 3.0]))
    @settings(max_examples=50, deadline=None)
    def test_scaling_covariance(self, c, p):
        base = exact_sum_moment([COIN, COIN], p).value
        scaled = exact_sum_moment([COIN.scaled(c), COIN.scaled(c)], p).value
        assert scaled == pytest.approx(c**p * base, rel=1e-10)


class TestMonteCarlo:
    def test_agrees_with_enumeration(self):
        mc = mc_sum_moment([COIN, COIN], 2, samples=100_000, seed=11)
        assert mc.stderr is not None and mc.stderr > 0
        assert abs(mc.value - 1.5) <= 4 * mc.stderr

    def test_deterministic(self):
        a = mc_sum_moment([COIN, COIN], 2, samples=10_000, seed=3)
        b = mc_sum_moment([COIN, COIN], 2, samples=10_000, seed=3)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            mc_sum_moment([COIN], 2, samples=100, seed=1)

    def test_past_double_range(self):
        with pytest.raises(DomainError, match="double range"):
            mc_sum_moment([HUGE, HUGE], 4, samples=10_000, seed=1)


class TestScaledMoments:
    # plain p-th powers of these atoms overflow; the moments do not
    TINY_TAIL = DiscreteDist(((1e100, 1e-200), (1.0, 1 - 1e-200)))

    def test_representable_moment(self):
        assert self.TINY_TAIL.moment(4) == pytest.approx(1e200, rel=1e-15)
        assert exact_sum_moment([self.TINY_TAIL], 4).value == pytest.approx(
            1e200, rel=1e-15)

    def test_monte_carlo_standard_error(self):
        d = DiscreteDist(((1e80, 0.5), (0.0, 0.5)))
        mc = mc_sum_moment([d], 2, samples=10_000, seed=1)
        assert math.isfinite(mc.stderr) and mc.stderr > 0
        assert abs(mc.value - 5e159) <= 4 * mc.stderr

    def test_monte_carlo_sums_past_double_range(self):
        # drawn sums of 3.4e308 are inf; inf - inf in the deviations must
        # not escape as a RuntimeWarning
        big = DiscreteDist(((1.7e308, 1.0),))
        with pytest.raises(DomainError, match="double range"):
            mc_sum_moment([big, big], 1, samples=10_000, seed=1)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_scaled_by_a_power_of_two_exactly(self, p):
        # atoms times 2**k, k p > 1024: the moments are those of the plain
        # atoms times 2**(k p), bit for bit
        k = 1100 // int(p)
        d = DiscreteDist(((1.0, 1e-200), (2.0**-60, 1 - 1e-200)))
        big = d.scaled(2.0**k)
        assert big.moment(p) == math.ldexp(d.moment(p), k * int(p))
        assert exact_sum_moment([big, big], p).value == math.ldexp(
            exact_sum_moment([d, d], p).value, k * int(p))
        mc, mc_big = (mc_sum_moment([x, x], p, samples=10_000, seed=5)
                      for x in (d, big))
        assert mc_big.value == math.ldexp(mc.value, k * int(p))
        assert mc_big.stderr == math.ldexp(mc.stderr, k * int(p))

    def test_non_integer_p(self):
        # 2**(e p) is split exactly into its integer and fractional parts
        mpmath = pytest.importorskip("mpmath")
        p = 3.7
        d = DiscreteDist(((1e150, 1e-300), (1.0, 1 - 1e-300)))
        with mpmath.workdps(40):
            want = float(sum(mpmath.mpf(v) ** p * pr for v, pr in d.atoms))
        assert d.moment(p) == pytest.approx(want, rel=1e-15)
        assert exact_sum_moment([d], p).value == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("top, prob", [(3.0, 1e-300), (2.1, 1e-40)])
    def test_rare_atom_at_large_p(self, top, prob):
        # top**1000 overflows; the scaled terms must not underflow
        # (exact big-integer arithmetic gives `want` to double precision)
        want = float(sum(
            Fraction(v) ** 1000 * Fraction(pr)
            for v, pr in ((top, prob), (1.0, 1 - prob))))
        d = DiscreteDist(((top, prob), (1.0, 1 - prob)))
        assert d.moment(1000) == pytest.approx(want, rel=1e-15)
        assert exact_sum_moment([d], 1000).value == pytest.approx(
            want, rel=1e-15)

    def test_refuses_what_scaling_underflows(self):
        # 1.627**1713 overflows and one step of scaling moves the terms by
        # 2**-1713, below the double range: refused, not returned as ~0
        d = DiscreteDist(((1.6268869276187377, 8.0393595478850185e-224),
                          (0.0367937493736251, 1.0)))
        with pytest.raises(DomainError, match="underflows"):
            d.moment(1713)
        with pytest.raises(DomainError, match="underflows"):
            exact_sum_moment([d], 1713)


class TestCheckFamily:
    def test_matches_enumeration(self):
        dists = [COIN, DiscreteDist(((0.5, 0.25), (3.0, 0.75))), COIN]
        for p in (2.0, 3.0, 4.0):
            c = check_family(dists, p)
            a = sum(d.mean() for d in dists)
            b = sum(d.moment(p) for d in dists)
            assert c.exact == exact_sum_moment(dists, p).value
            assert c.rosenthal == pytest.approx(rosenthal_bound(p, b, a), rel=1e-15)
            assert c.schechtman == pytest.approx(
                schechtman_extremal(ExtremalProblem(a, b, p)), rel=1e-15)
            assert c.passed and not c.violated()

    def test_p2_values(self):
        # exact E(X1 + X2)^2 of two fair coins is 1.5; B(2) = 2 and
        # a^2 + b = 1 + 1
        c = check_family([COIN, COIN], 2.0)
        assert c.exact == pytest.approx(1.5, rel=1e-15)
        assert c.rosenthal == pytest.approx(2.0, rel=1e-11)
        assert c.schechtman == pytest.approx(2.0, rel=1e-10)

    def test_violation_is_reported(self):
        c = FamilyCheck(exact=2.0, rosenthal=3.0, schechtman=1.5)
        assert not c.passed
        assert c.violated() == (("schechtman", 1.5),)


class TestVerifyInequalities:
    def test_zero_violations(self):
        report = verify_inequalities(trials=200, seed=7)
        assert report.ok
        assert report.max_rosenthal_ratio <= 1.0 + 1e-9
        assert report.max_schechtman_ratio <= 1.0 + 1e-9

    def test_near_extremal_two_point_family(self):
        # i.i.d. rare-large-atom family approaching Schechtman's extremal
        # configuration: the exact/bound ratio climbs toward 1.
        p, n = 3.0, 10
        eps = 0.02
        d = DiscreteDist(((0.0, 1 - eps), (1.0, eps)))
        dists = [d] * n
        exact = exact_sum_moment(dists, p).value
        a = n * d.mean()
        b = n * d.moment(p)
        bound = schechtman_extremal(ExtremalProblem(a, b, p))
        assert 0.5 <= exact / bound <= 1.0 + 1e-9


class TestInstanceFiles:
    def test_parse_line(self):
        d = parse_instance_line("0:0.5,1:0.25,2.5:0.25")
        assert d.atoms == ((0.0, 0.5), (1.0, 0.25), (2.5, 0.25))

    @pytest.mark.parametrize("line", ["x:1", "1.0", "1.0:0.5,x:0.5", "1:"])
    def test_parse_error(self, line):
        with pytest.raises(DomainError, match="not value:prob"):
            parse_instance_line(line)

    def test_load_names_line(self, tmp_path):
        path = tmp_path / "instances.txt"
        path.write_text("# comment\n0:0.5,1:0.5\n1.0\n")
        with pytest.raises(DomainError, match="line 3"):
            load_instances(str(path))

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.txt")
        with pytest.raises(DomainError, match="absent.txt"):
            load_instances(path)

    def test_load(self, tmp_path):
        path = tmp_path / "instances.txt"
        path.write_text("# comment\n0:0.5,1:0.5\n\n2:1.0\n")
        dists = load_instances(str(path))
        assert len(dists) == 2
        assert dists[1].atoms == ((2.0, 1.0),)
