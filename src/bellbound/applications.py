"""Moment inequalities for sums of non-negative independent variables.

The Rosenthal-type bound E(sum eta_j)^p <= B(p) * max{sum E eta_j^p,
(sum E eta_j)^p}, Schechtman's exact extremal value over the class of
sequences with prescribed moment sums, and the brute-force oracles
(exact enumeration, Monte Carlo) that validate both on small instances.
"""
from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, DomainError
from .series import BellQuery, bell_dobinski, in_range

ENUM_BUDGET = 1_000_000
REL_SLACK = 1e-9       # relative slack of every verified inequality
FAMILY_P = (2.0, 3.0, 4.0)
# The largest integer p at which exact_sum_moment convolves: every C(56, i)
# is an exact double, C(57, 28) is not.
CONVOLUTION_MAX_P = 56
_BINOMIALS = tuple(tuple(float(math.comb(k, i)) for i in range(k + 1))
                   for k in range(CONVOLUTION_MAX_P + 1))


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support non-negative distribution: ((value, prob), ...); its
    top and power sums live in __dict__, unseen by ==, hash, repr and
    dataclasses.replace."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise DomainError("distribution needs at least one atom")
        total = math.fsum(pr for _, pr in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {total}, not 1")
        for v, pr in self.atoms:
            if not (v >= 0 and math.isfinite(v)):
                raise DomainError(f"atom value {v} is not finite and >= 0")
            if not (0.0 < pr <= 1.0):
                raise DomainError(f"atom probability {pr} outside (0, 1]")

    @functools.cached_property
    def top(self) -> tuple[float, float]:
        """The largest value and math.frexp's binary exponent of it, or
        -inf if it is 0, on first use: _scale_exponent reads the exponent
        on every moment, and the value where it must scale."""
        top = max(self.atoms)[0]
        return top, (math.frexp(top)[1] if top else -math.inf)

    def _power_sum(self, order, e: int) -> float:
        """E[(X / 2**e)^order], formed once and kept in __dict__ under
        (order, e); the power is a float (v**2.0 is v**2), so 2 and 2.0
        read one value.  OverflowError from a power stores nothing."""
        value = self.__dict__.get((order, e))
        if value is None:
            power = float(order)
            value = self.__dict__[order, e] = math.fsum(
                [v**power * pr for v, pr in _scaled(self.atoms, e)])
        return value

    def mean(self) -> float:
        """E X, the order-1 power sum (v**1.0 is v, bit for bit)."""
        return in_range("mean", self._power_sum, 1, 0)

    def moment(self, p: float) -> float:
        """E X^p, the power sum on the atoms divided by 2**e where the plain
        powers would leave the double range (_scale_exponent), then scaled
        back.  At e = 0 it is the plain sum over the atoms, bit for bit.
        DomainError "moment of order <p> ..." when the moment leaves the
        double range or its scaled terms underflow."""
        e = _scale_exponent((self,), p)
        try:
            value = in_range("", self._power_sum, p, e)
            return _scale_back((value,), e, p, "")[0]
        except DomainError as exc:  # the order is formatted only on refusal
            raise DomainError(f"moment of order {p:g}{exc}") from None


@dataclass(frozen=True)
class ExtremalProblem:
    """Prescribed sum of means a, sum of p-th moments b, exponent p > 1."""

    a: float
    b: float
    p: float

    def __post_init__(self):
        for name, value, least in (("a", self.a, 0), ("b", self.b, 0),
                                   ("p", self.p, 1)):
            if not (math.isfinite(value) and value > least):
                raise DomainError(
                    f"{name} must be finite and > {least}, got {value!r}")

    @property
    def mu(self) -> float:
        """a^{p/(p-1)} * b^{1/(1-p)}, the Poisson intensity of the extremal
        configuration."""
        e = 1.0 / (self.p - 1.0)
        mu = in_range("mu", math.exp,
                      self.p * e * math.log(self.a) - e * math.log(self.b))
        if mu == 0.0:
            raise DomainError("mu = a^(p/(p-1)) b^(1/(1-p)) underflows to 0")
        return mu


@dataclass(frozen=True)
class SumMomentResult:
    """E(sum eta_j)^p computed by an oracle."""

    value: float
    method: str  # "Convolution", "Enumeration" or "MonteCarlo"
    stderr: float | None = None


# A scaled moment below this lost terms to underflow (each less than
# 2**-1074) beyond its rounding.
_SCALED_FLOOR = sys.float_info.min / sys.float_info.epsilon


def _scale_exponent(dists, p: float, samples: int = 0) -> int:
    """The least e >= 0 with (tops / 2**e)**p < 2**1024, tops the sum of
    the summands' largest values, or, for a Monte Carlo estimate over
    `samples` draws, with a sum of `samples` squares of it below 2**1024;
    the power taken as at least 1 so that the sum fits too.  0 wherever it
    is in the double range, so that the atoms are then taken as given;
    that test reads only each summand's cached top, not its atoms.
    Division by 2**e is exact, bar atoms pushed into the subnormals.
    DomainError for an order p that is not finite and > 0, before any
    power is taken, and for an empty family."""
    if not 0 < p < math.inf:
        raise DomainError(f"p must be > 0 and finite, got {p}")
    if not dists:
        raise DomainError("the family has no distribution")
    k = -math.inf  # the largest top exponent: tops < 2**(k + bit_length(n))
    for d in dists:  # a loop: ~0.4 us cheaper than max([...]) at n = 1
        if d.top[1] > k:
            k = d.top[1]
    room = 1024.0 - math.log2(samples) if samples else 1024.0
    power = max(2.0 * p if samples else p, 1.0)
    if (k + len(dists).bit_length()) * power <= room:
        return 0
    bits = k + math.log2(math.fsum(math.ldexp(d.top[0], -k) for d in dists))
    return max(0, math.floor(bits - room / power) + 1)


def _scaled(atoms, e: int):
    """The (value, prob) atoms with each value divided by 2**e: at e = 0
    the atoms themselves."""
    return [(math.ldexp(v, -e), pr) for v, pr in atoms] if e else atoms


def _scale_back(values: tuple[float, ...], e: int, p: float,
                what: str) -> tuple[float, ...]:
    """p-homogeneous values computed on the atoms divided by 2**e, each
    multiplied back by 2**(e*p) by adding to its binary exponent (exact at
    integer p); DomainError when one leaves the double range.  At large p
    one step of e moves the terms by 2**p, so the scaled first value can
    fall to where its terms underflow: DomainError then too.  At e = 0
    the values are checked as given and returned as they are."""
    if not e:
        for v in values:
            in_range(what, float, v)
        return values
    if values[0] < _SCALED_FLOOR:
        raise DomainError(f"{what} underflows when the atoms are "
                          f"scaled by 2**-{e}")
    # e * p without rounding
    n, frac = divmod(Fraction(p) * e, 1)
    scale = 2.0 ** float(frac)
    return tuple(in_range(what, math.ldexp, v * scale, n) for v in values)


def rosenthal_bound(p: float, sum_p_moments: float, sum_means: float) -> float:
    """B(p) * max{sum_j E eta_j^p, (sum_j E eta_j)^p}: an upper bound on
    E(sum eta_j)^p for any non-negative independent sequence, p >= 2."""
    if p < 2:
        raise DomainError(f"rosenthal_bound requires p >= 2, got {p}")
    if not (sum_p_moments > 0 and math.isfinite(sum_p_moments)):
        raise DomainError(f"sum_p_moments must be positive finite, got {sum_p_moments}")
    if not (sum_means > 0 and math.isfinite(sum_means)):
        raise DomainError(f"sum_means must be positive finite, got {sum_means}")
    return in_range("rosenthal_bound", math.exp,
                    _log_bell_at_one(float(p))
                    + max(math.log(sum_p_moments), p * math.log(sum_means)))


@functools.lru_cache(maxsize=16)
def _log_bell_at_one(p: float) -> float:
    """log B(p, 1): the verifiers ask for the same few p on every family."""
    return bell_dobinski(BellQuery(p, 1.0)).log_value


def schechtman_extremal(prob: ExtremalProblem) -> float:
    """(b/a)^{p/(p-1)} * B(p, mu): the exact supremum of E(sum eta_j)^p over
    sequences with sum of means a and sum of p-th moments b (sup over n too)."""
    mu = prob.mu
    log_b = bell_dobinski(BellQuery(prob.p, mu)).log_value
    log_prefactor = prob.p / (prob.p - 1.0) * (math.log(prob.b) - math.log(prob.a))
    return in_range("schechtman_extremal", math.exp, log_prefactor + log_b)


def exact_sum_moment(dists: list[DiscreteDist], p: float) -> SumMomentResult:
    """E(sum eta_j)^p of independent summands, to float precision, scaled
    by a power of two where a power would overflow.

    At integer p <= CONVOLUTION_MAX_P by moment convolution,
    E(X + Y)^k = sum_i C(k, i) E X^i E Y^(k-i), whose terms are all
    non-negative: O(n p^2), on power sums formed once per summand, order
    and e.  Otherwise by enumerating all outcome tuples and accumulating
    prob * (sum of values)^p."""
    e = _scale_exponent(dists, p)
    what = "E(sum eta_j)^p"
    if p <= CONVOLUTION_MAX_P and p == int(p):
        value = in_range(what, _convolved_moment, dists, int(p), e)
        method = "Convolution"
    else:
        value = _enumerated_moment(dists, p, e)
        method = "Enumeration"
    value, = _scale_back((value,), e, p, what)
    return SumMomentResult(value=value, method=method)


def _convolved_moment(dists: list[DiscreteDist], p: int, e: int) -> float:
    """E(sum eta_j)^p on the atoms divided by 2**e, by folding in the
    stored power sums E X^i, i = 0..p, of one summand at a time.

    No partial product overflows: on the scaled atoms let S be the sum of
    the tops, so S**p < 2**1024 (up to rounding) by the choice of e.  A
    partial sum's k-th moment is at most its top sum to the k, hence at most
    max(1, S**p); so is each product E X^i E Y^(k-i), by the same bound on
    X + Y, and so is C(k, i) times it, a non-negative term of E(X + Y)^k.
    The binomial multiplies the product last, so that no intermediate is
    larger than the term it builds.  Within rounding of 2**1024 a sum can
    still overflow, which exact_sum_moment refuses."""
    acc = None
    for j, d in enumerate(dists):
        moments = [d._power_sum(i, e) for i in range(p + 1)]
        if acc is None:
            acc = moments
            continue
        orders = (p,) if j == len(dists) - 1 else range(p + 1)
        acc = [math.fsum([c * (acc[i] * moments[k - i])
                          for i, c in enumerate(_BINOMIALS[k])])
               for k in orders]
    return acc[-1]


def _enumerated_moment(dists: list[DiscreteDist], p: float, e: int) -> float:
    """E(sum eta_j)^p on the atoms divided by 2**e, over all outcome
    tuples; BudgetError past ENUM_BUDGET of them."""
    states = 1
    for d in dists:
        states *= len(d.atoms)
        if states > ENUM_BUDGET:
            raise BudgetError(f"enumeration exceeds {ENUM_BUDGET} states")
    import numpy as np

    sums = np.zeros(1)
    probs = np.ones(1)
    for d in dists:
        values, weights = zip(*d.atoms)
        sums = np.add.outer(sums, np.ldexp(values, -e)).ravel()
        probs = np.multiply.outer(probs, weights).ravel()
    with np.errstate(over="ignore"):  # within rounding of 2**1024
        return float(np.dot(probs, sums**p))


def _inverse_cdf(cdf, u, scratch):
    """cdf.searchsorted(u, side="right") for uniforms u in [0, 1) and a
    sorted cdf ending in 1, by a guide table (Chen & Asau 1974): O(len(u))
    at any len(cdf).  With G = 2**j >= 64 len(cdf) bins, u * G is exact,
    so bin b = floor(u * G), written to the intp array `scratch`, holds
    exactly the u in [b/G, (b+1)/G).  A bin with no cut of cdf[:-1]
    strictly inside answers for all its u from the table; the others, at
    most 1/64 of [0, 1), send their u to searchsorted."""
    import numpy as np

    bins = 1 << (64 * len(cdf) - 1).bit_length()
    edges = np.arange(bins + 1) / bins
    cuts = cdf[:-1]
    guide = cuts.searchsorted(edges[:-1], side="right")
    # -1: a cut lies strictly inside the bin
    guide[guide != cuts.searchsorted(edges[1:], side="left")] = -1
    index = guide.take(np.multiply(u, bins, out=scratch, casting="unsafe"))
    hit = np.flatnonzero(index < 0)
    index[hit] = cdf.searchsorted(u[hit], side="right")
    return index


def check_seed(seed) -> None:
    """DomainError unless seed is an integer >= 0: None would draw an
    unreproducible stream, and Philox refuses a negative seed."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")


def mc_sum_moment(dists: list[DiscreteDist], p: float, samples: int,
                  seed: int) -> SumMomentResult:
    """Seeded Monte Carlo estimate of E(sum eta_j)^p with a standard error.

    Uses the counter-based Philox generator so results are reproducible
    and safely parallelizable by seed.  Each summand's draw is
    Generator.choice's, bit for bit: `samples` uniforms from the same
    stream, each mapped to the atom at cdf.searchsorted(u, side="right"),
    cdf = cumsum(weights) / its last entry.  The map is a guide table, so
    a draw costs O(samples) at any atom count."""
    import numpy as np

    if not (isinstance(samples, numbers.Integral) and samples >= 10_000):
        raise DomainError(f"samples must be an integer >= 10^4, got {samples!r}")
    check_seed(seed)
    # a sum of `samples` squares enters the standard error
    e = _scale_exponent(dists, p, samples)
    rng = np.random.Generator(np.random.Philox(seed))
    totals = np.zeros(samples)
    # u and scratch serve every summand and go before the powers, so peak
    # memory stays that of Generator.choice; mode="clip" lets take write to
    # `out` unbuffered (no index is out of range)
    u = np.empty(samples)
    scratch = np.empty(samples, np.intp)
    # inf, and inf - inf in the deviations, within rounding of 2**1024:
    # refused in _scale_back
    with np.errstate(over="ignore", invalid="ignore"):
        for d in dists:
            values, weights = zip(*d.atoms)
            cdf = np.cumsum(weights)  # as Generator.choice forms it
            cdf /= cdf[-1]
            totals += np.ldexp(values, -e).take(
                _inverse_cdf(cdf, rng.random(out=u), scratch),
                out=u, mode="clip")
        del u, scratch
        powered = totals**p
        mean = float(powered.mean())
        stderr = float(powered.std(ddof=1) / math.sqrt(samples))
    value, stderr = _scale_back((mean, stderr), e, p,
                                "E(sum eta_j)^p or its standard error")
    return SumMomentResult(value=value, method="MonteCarlo", stderr=stderr)


def random_family(rng) -> list[DiscreteDist]:
    """Random small family for the verifier, drawn from the numpy
    Generator `rng`: 1-12 summands of 2-4 atoms each, values log-uniform
    in [1e-2, 1e2], Dirichlet probabilities.  The number of summands is
    truncated to keep the enumeration within 1e5 states."""
    import numpy as np

    n = int(rng.integers(1, 13))
    dists: list[DiscreteDist] = []
    states = 1
    for _ in range(n):
        k = int(rng.integers(2, 5))
        if states * k > 100_000:
            break
        states *= k
        values = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=k))
        probs = rng.dirichlet(np.ones(k))
        probs = probs / probs.sum()
        dists.append(DiscreteDist(tuple(zip(values.tolist(), probs.tolist()))))
    return dists


@dataclass(frozen=True)
class FamilyCheck:
    """E(sum eta_j)^p by enumeration against the Rosenthal-type bound and
    the Schechtman extremal value."""

    exact: float
    rosenthal: float
    schechtman: float

    def violated(self) -> tuple[tuple[str, float], ...]:
        """(name, bound) of each inequality that exact breaks by more than
        REL_SLACK."""
        return tuple((name, bound) for name, bound in (
            ("rosenthal", self.rosenthal), ("schechtman", self.schechtman))
            if self.exact > bound * (1.0 + REL_SLACK))

    @property
    def passed(self) -> bool:
        return not self.violated()


def check_family(dists: list[DiscreteDist], p: float) -> FamilyCheck:
    """Both moment inequalities for one family of independent summands."""
    a = in_range("sum of means", math.fsum, (d.mean() for d in dists))
    b = in_range("sum of moments", math.fsum, (d.moment(p) for d in dists))
    return FamilyCheck(exact=exact_sum_moment(dists, p).value,
                       rosenthal=rosenthal_bound(p, b, a),
                       schechtman=schechtman_extremal(ExtremalProblem(a=a, b=b, p=p)))


def parse_instance_line(line: str) -> DiscreteDist:
    """Parse one `v1:p1,v2:p2,...` distribution line."""
    atoms = []
    for chunk in line.strip().split(","):
        if not chunk:
            continue
        v_str, _, p_str = chunk.partition(":")
        try:
            atoms.append((float(v_str), float(p_str)))
        except ValueError:
            raise DomainError(f"atom {chunk!r} is not value:prob") from None
    return DiscreteDist(tuple(atoms))


def load_instances(path: str) -> list[DiscreteDist]:
    """Read a line-oriented instance file, one distribution per line;
    blank lines and #-comments are skipped.  DomainError, naming the file,
    when it cannot be read as UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot open instance file {path}: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError:
        raise DomainError(f"instance file {path} is not UTF-8 text") from None
    dists = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            dists.append(parse_instance_line(line))
        except DomainError as exc:
            raise DomainError(f"{path}, line {lineno}: {exc}") from None
    return dists
