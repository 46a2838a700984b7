import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbound import BudgetError, DomainError
from bellbound import applications, verify
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
)
from bellbound.verify import suite_inequalities

COIN = DiscreteDist(((0.0, 0.5), (1.0, 0.5)))


def scale_values(d: DiscreteDist, c: float) -> DiscreteDist:
    """d with every value multiplied by c."""
    return DiscreteDist(tuple((c * v, pr) for v, pr in d.atoms))


def fraction_moment(dists: list[DiscreteDist], p: int) -> Fraction:
    """E(sum eta_j)^p in exact rational arithmetic, over all outcome tuples."""
    total = Fraction(0)
    for outcome in itertools.product(*(d.atoms for d in dists)):
        prob = math.prod(Fraction(pr) for _, pr in outcome)
        total += prob * sum(Fraction(v) for v, _ in outcome) ** p
    return total


def normalised(atoms: list[tuple[float, float]]) -> DiscreteDist:
    """The distribution with these values and weights scaled to sum to 1."""
    total = math.fsum(w for _, w in atoms)
    return DiscreteDist(tuple((v, w / total) for v, w in atoms))


small_dists = st.lists(
    st.tuples(st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
              st.floats(0.01, 1.0)),
    min_size=1, max_size=4).map(normalised)


# Finite atoms whose fourth moment, and E(X1 + X2)^4, exceed the double range.
HUGE = DiscreteDist(((1e100, 0.5), (1.0, 0.5)))


class TestDiscreteDist:
    def test_validation(self):
        with pytest.raises(DomainError):
            DiscreteDist(((0.0, 0.5), (1.0, 0.6)))
        with pytest.raises(DomainError):
            DiscreteDist(((-1.0, 1.0),))
        with pytest.raises(DomainError, match="at least one atom"):
            DiscreteDist(())
        with pytest.raises(DomainError, match="outside"):
            DiscreteDist(((0.0, 0.0), (1.0, 1.0)))

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
        with pytest.raises(DomainError, match="sum_p_moments"):
            rosenthal_bound(3, 0, 1)
        with pytest.raises(DomainError, match="sum_means"):
            rosenthal_bound(3, 1, -1)

    def test_past_double_range(self):
        # B(300) ~ e^1291
        with pytest.raises(DomainError, match="double range"):
            rosenthal_bound(300, 1, 1)

    def test_bell_number_is_cached(self, monkeypatch):
        applications._log_bell_at_one.cache_clear()
        calls = []
        series_sum = applications.bell_dobinski

        def counted(q):
            calls.append(q)
            return series_sum(q)

        monkeypatch.setattr(applications, "bell_dobinski", counted)
        assert rosenthal_bound(3, 10, 1) == pytest.approx(50.0, rel=1e-11)
        assert rosenthal_bound(3.0, 1, 1) == pytest.approx(5.0, rel=1e-11)
        assert len(calls) == 1


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
        with pytest.raises(DomainError, match="^a must be finite and > 0, got 0$"):
            ExtremalProblem(0, 1, 2)

    @pytest.mark.parametrize("a, b, p, name", [
        (math.inf, 1, 2, "a"), (math.nan, 1, 2, "a"), (1, math.inf, 2, "b"),
        (1, -math.inf, 2, "b"), (1, 1, math.inf, "p"), (1, 1, math.nan, "p")])
    def test_non_finite_argument_is_named(self, a, b, p, name):
        # refused by name before mu = exp(...) is formed from them
        least = 1 if name == "p" else 0
        with pytest.raises(DomainError,
                           match=f"^{name} must be finite and > {least}, got"):
            ExtremalProblem(a, b, p)

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
        assert res.method == "Convolution"
        assert res.stderr is None

    def test_single_dist_mean(self):
        d = DiscreteDist(((1.0, 0.25), (3.0, 0.75)))
        assert exact_sum_moment([d], 1).value == pytest.approx(d.mean(),
                                                               rel=1e-14)

    def test_point_masses(self):
        d = DiscreteDist(((2.5, 1.0),))
        assert exact_sum_moment([d] * 4, 3).value == pytest.approx(
            10.0**3, rel=1e-13)

    def test_many_atoms_in_one_summand(self):
        # 12 outcome tuples: far within the enumeration budget
        d = DiscreteDist(tuple((float(i), 1 / 12) for i in range(12)))
        res = exact_sum_moment([d], 2.5)
        assert res.method == "Enumeration"
        assert res.value == pytest.approx(d.moment(2.5), rel=1e-14)

    def test_empty_family(self):
        with pytest.raises(DomainError, match="no distribution"):
            exact_sum_moment([], 2)
        with pytest.raises(DomainError, match="no distribution"):
            mc_sum_moment([], 2, samples=10_000, seed=1)
        with pytest.raises(DomainError, match="no distribution"):
            check_family([], 2.0)
        with pytest.raises(DomainError, match="p must be > 0"):
            exact_sum_moment([COIN], 0)

    def test_budget(self):
        # 8**8 states; integer p <= 56 convolves and needs no enumeration
        d = DiscreteDist(tuple((float(i), 0.125) for i in range(8)))
        for p in (2.5, 57):
            with pytest.raises(BudgetError):
                exact_sum_moment([d] * 8, p)
        assert issubclass(BudgetError, DomainError)  # a refusal like any other

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

    @given(dists=st.lists(small_dists, min_size=1, max_size=6),
           p=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_convolution_matches_exact_enumeration(self, dists, p):
        res = exact_sum_moment(dists, p)
        assert res.method == "Convolution"
        assert res.value == pytest.approx(float(fraction_moment(dists, p)),
                                          rel=1e-14)

    def test_convolution_boundary(self):
        # every C(56, i) is an exact double, C(57, 28) is not
        dists = [COIN, DiscreteDist(((0.5, 0.25), (3.0, 0.75)))]
        for p, method in ((56, "Convolution"), (57, "Enumeration")):
            res = exact_sum_moment(dists, p)
            assert res.method == method
            assert res.value == pytest.approx(
                float(fraction_moment(dists, p)), rel=1e-14)

    @given(c=st.floats(0.1, 10), p=st.sampled_from([2.0, 3.0]))
    @settings(max_examples=50, deadline=None)
    def test_scaling_covariance(self, c, p):
        base = exact_sum_moment([COIN, COIN], p).value
        coin = scale_values(COIN, c)
        scaled = exact_sum_moment([coin, coin], p).value
        assert scaled == pytest.approx(c**p * base, rel=1e-10)


def choice_reference(dists: list[DiscreteDist], p: float, samples: int,
                     seed: int) -> tuple[float, float]:
    """(value, stderr) of mc_sum_moment with each summand drawn by
    Generator.choice on the installed numpy: the reference that its guide
    table must match bit for bit."""
    rng = np.random.Generator(np.random.Philox(seed))
    e = applications._scale_exponent(dists, p, samples)
    totals = np.zeros(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in dists:
            values, weights = zip(*d.atoms)
            totals += rng.choice(np.ldexp(values, -e), size=samples, p=weights)
        powered = totals**p
        mean = float(powered.mean())
        stderr = float(powered.std(ddof=1) / math.sqrt(samples))
    return applications._scale_back((mean, stderr), e, p, "reference")


moment_dists = st.lists(
    st.tuples(st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
              st.floats(0.01, 1.0)),
    min_size=1, max_size=8).map(normalised)

EDGE_FAMILIES = {
    "one atom first": [DiscreteDist(((3.0, 1.0),)), COIN,
                       DiscreteDist(((0.5, 0.25), (2.0, 0.75)))],
    "probability 1e-200": [DiscreteDist(((1e3, 1e-200), (1.0, 1 - 1e-200))),
                           COIN],
    # cumsum (0.5, 1.0, 1.0): a cut equal to 1.0 before the last entry
    "cut rounds to 1": [DiscreteDist(((1.0, 0.5), (2.0, 0.5), (9.0, 1e-17))),
                        COIN],
    "1000 atoms": [normalised([(math.exp((i % 37) / 5), 1.0 + i % 7)
                               for i in range(1000)]), COIN],
}


def check_inverse_cdf(cdf, u):
    """applications._inverse_cdf against cdf.searchsorted(u, side="right")."""
    cdf, u = np.asarray(cdf, dtype=float), np.asarray(u, dtype=float)
    got = applications._inverse_cdf(cdf, u, np.empty(len(u), np.intp))
    assert got.tolist() == cdf.searchsorted(u, side="right").tolist()


def around(points):
    """Each point and its neighbouring doubles, kept in [0, 1)."""
    return [x for c in points
            for x in (math.nextafter(c, 0), c, math.nextafter(c, 1))
            if 0 <= x < 1]


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
        with pytest.raises(DomainError, match="p must be > 0"):
            mc_sum_moment([COIN], 0, samples=10_000, seed=1)

    def test_past_double_range(self):
        with pytest.raises(DomainError, match="double range"):
            mc_sum_moment([HUGE, HUGE], 4, samples=10_000, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_must_be_a_non_negative_integer(self, seed, monkeypatch):
        # None would draw an unseeded estimate, -1 fails inside Philox; the
        # suites refuse before the first of them runs
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            mc_sum_moment([COIN], 2, samples=10_000, seed=seed)
        monkeypatch.setitem(verify.SUITES, "oracles",
                            lambda trials, seed: pytest.fail("a suite ran"))
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            verify.run_suites(["oracles", "inequalities"], trials=1, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_inequality_suite_checks_its_own_seed(self, seed):
        # called directly, not through run_suites, whose check comes first
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            verify.suite_inequalities(1, seed=seed)

    # Draws: bit for bit those of Generator.choice

    @pytest.mark.parametrize("name", EDGE_FAMILIES)
    @pytest.mark.parametrize("p", [0.5, 2.0, 3.7])
    def test_draws_match_choice_on_edge_families(self, name, p):
        dists = EDGE_FAMILIES[name]
        mc = mc_sum_moment(dists, p, samples=10_000, seed=17)
        assert (mc.value, mc.stderr) == choice_reference(dists, p, 10_000, 17)

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.7])
    def test_draws_match_choice_on_scaled_atoms(self, p):
        # atoms 2**k whose sum of squares, not the moment, passes 2**1024:
        # divided by 2**e, e > 0, before they are drawn
        top = 2.0 ** min(1015, int(1010 / p))
        dists = [DiscreteDist(((top, 0.5), (1.0, 0.5)))] * 2
        assert applications._scale_exponent(dists, p, 10_000) > 0
        mc = mc_sum_moment(dists, p, samples=10_000, seed=17)
        assert (mc.value, mc.stderr) == choice_reference(dists, p, 10_000, 17)

    @given(dists=st.lists(moment_dists, min_size=1, max_size=12),
           p=st.floats(0.5, 5.0), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_draws_match_choice_on_moments_families(self, dists, p, seed):
        mc = mc_sum_moment(dists, p, samples=10_000, seed=seed)
        assert (mc.value, mc.stderr) == choice_reference(dists, p, 10_000,
                                                         seed)

    def test_inverse_cdf_u_on_a_cut_and_a_cut_on_a_bin_edge(self):
        # 3 entries: G = 256 bins; 0.25 and 0.5 are bin edges, 0.3 is not
        check_inverse_cdf([0.25, 0.3, 0.5, 1.0],
                          around([0.0, 0.25, 0.3, 0.5, 1.0]))

    def test_inverse_cdf_repeated_cuts(self):
        check_inverse_cdf([0.1, 0.1, 0.1, 0.5, 0.5, 0.75, 0.75, 1.0, 1.0],
                          around([0.0, 0.1, 0.5, 0.75, 1.0]))

    def test_inverse_cdf_no_cuts(self):
        check_inverse_cdf([1.0], around([0.0, 0.5, 1.0]))

    def test_inverse_cdf_many_cuts_in_one_bin(self):
        cuts = np.linspace(0.5, 0.5 + 2.0**-20, 50)
        u = [*around(cuts), *np.random.default_rng(3).random(1000)]
        check_inverse_cdf([*cuts, 1.0], u)


class TestRefusals:
    """Every order p that is not finite and > 0, and a samples count that
    is not an integer >= 10^4, end in DomainError at each entry point."""

    BAD_P = [math.nan, math.inf, -math.inf, -1.0, 0.0]

    @pytest.mark.parametrize("p", BAD_P)
    @pytest.mark.parametrize("entry", [
        lambda p: COIN.moment(p),
        lambda p: exact_sum_moment([COIN, COIN], p),
        lambda p: mc_sum_moment([COIN, COIN], p, samples=10_000, seed=1),
        lambda p: check_family([COIN, COIN], p),
    ], ids=["moment", "exact_sum_moment", "mc_sum_moment", "check_family"])
    def test_order(self, entry, p):
        # COIN has a 0 atom: a negative power of it divides by zero
        with pytest.raises(DomainError, match="p must be > 0"):
            entry(p)

    @pytest.mark.parametrize("samples", [10_000.0, 9_999, True, "10000"])
    def test_samples(self, samples):
        with pytest.raises(DomainError, match="samples must be an integer"):
            mc_sum_moment([COIN], 2.0, samples=samples, seed=1)

    def test_numpy_integer_samples(self):
        a = mc_sum_moment([COIN], 2.0, samples=np.int64(10_000), seed=1)
        assert a == mc_sum_moment([COIN], 2.0, samples=10_000, seed=1)


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
        # the atoms are scaled by 2**-520 before they are drawn, so the sums
        # stay finite; the mean, 3.4e308 once scaled back, is refused by
        # _scale_back
        big = DiscreteDist(((1.7e308, 1.0),))
        with pytest.raises(DomainError, match="double range"):
            mc_sum_moment([big, big], 1, samples=10_000, seed=1)

    def test_monte_carlo_scales_before_summing(self):
        # drawn sums of 3.4e308 pass DBL_MAX; the moment, 1.1e154, does not
        d = DiscreteDist(((1.7e308, 0.5), (1.0, 0.5)))
        exact = exact_sum_moment([d, d], 0.5).value
        mc = mc_sum_moment([d, d], 0.5, samples=10_000, seed=1)
        assert math.isfinite(mc.value)
        assert abs(mc.value - exact) <= 6 * mc.stderr

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_scaled_by_a_power_of_two_exactly(self, p):
        # atoms times 2**k, k p > 1024: the moments are those of the plain
        # atoms times 2**(k p), bit for bit
        k = 1100 // int(p)
        d = DiscreteDist(((1.0, 1e-200), (2.0**-60, 1 - 1e-200)))
        big = scale_values(d, 2.0**k)
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

    def test_no_atom_is_rescaled_in_range(self, monkeypatch):
        # e = 0: the atoms and the results are taken as they are
        calls = []
        ldexp = math.ldexp

        def counted(*args):
            calls.append(args)
            return ldexp(*args)

        monkeypatch.setattr(math, "ldexp", counted)
        d = DiscreteDist(((0.5, 0.25), (3.0, 0.75)))
        for p in (2.0, 3.0, 4.0):
            d.moment(p)
            exact_sum_moment([d, COIN, d], p)
        assert calls == []
        # e = 77: the atoms themselves are divided by 2**77
        self.TINY_TAIL.moment(4)
        assert (1e100, -77) in calls
        calls.clear()
        exact_sum_moment([self.TINY_TAIL], 4)
        assert (1e100, -77) in calls

    @given(dists=st.lists(moment_dists.filter(lambda d: len(d.atoms) >= 2),
                          min_size=1, max_size=12),
           p=st.sampled_from([2.0, 3.0, 4.0]))
    @settings(max_examples=100, deadline=None)
    def test_plain_sums_where_the_powers_fit(self, dists, p):
        # README: at e = 0 the results are the plain sums, bit for bit
        for d in dists:
            assert d.moment(p) == math.fsum([v**p * pr for v, pr in d.atoms])
        plain = applications._convolved_moment(dists, int(p), 0)
        assert exact_sum_moment(dists, p).value == plain

    def test_top_found_once(self, monkeypatch):
        # each summand finds its largest value's exponent on first use;
        # repeated moments of an in-range family read it, not the atoms
        calls = []
        frexp = math.frexp

        def counted(x):
            calls.append(x)
            return frexp(x)

        monkeypatch.setattr(math, "frexp", counted)
        d = DiscreteDist(((0.5, 0.25), (3.0, 0.75)))
        coin = DiscreteDist(((0.0, 0.5), (1.0, 0.5)))
        for p in (2.0, 3.0, 4.0):
            d.moment(p)
            exact_sum_moment([d, coin, d], p)
        assert calls == [3.0, 1.0]

    @given(tops=st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1e308)),
                         min_size=1, max_size=12),
           p=st.floats(1e-3, 2000.0), samples=st.sampled_from([0, 10_000]))
    @settings(max_examples=300, deadline=None)
    def test_exponent_from_the_cached_tops(self, tops, p, samples):
        # the summands' cached top exponents choose the e that their
        # largest values give, zero tops included
        dists = [DiscreteDist(((t, 1.0),)) for t in tops]
        top = max(tops)
        k = math.frexp(top)[1]
        room = 1024.0 - math.log2(max(samples, 1))
        power = max(2.0 * p if samples else p, 1.0)
        if top == 0 or (k + len(tops).bit_length()) * power <= room:
            want = 0
        else:
            bits = k + math.log2(math.fsum(math.ldexp(t, -k) for t in tops))
            want = max(0, math.floor(bits - room / power) + 1)
        assert applications._scale_exponent(dists, p, samples) == want

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
        # at REL_SLACK = 1e-9, no violation means both max exact/bound
        # ratios are at most 1 + 1e-9
        check = suite_inequalities(trials=200, seed=7)[0]
        assert check.name == "moment-inequalities"
        assert check.passed
        assert check.detail.startswith("0 violations in 200 trials")

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

    @pytest.mark.parametrize("line", ["1:0.5,2:0.5,", "1:0.5,,2:0.5"])
    def test_parse_skips_empty_chunks(self, line):
        # a trailing or doubled comma adds no atom
        assert parse_instance_line(line).atoms == ((1.0, 0.5), (2.0, 0.5))

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
