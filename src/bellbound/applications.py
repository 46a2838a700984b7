"""Moment inequalities for sums of non-negative independent variables.

The Rosenthal-type bound E(sum eta_j)^p <= B(p) * max{sum E eta_j^p,
(sum E eta_j)^p}, Schechtman's exact extremal value over the class of
sequences with prescribed moment sums, and the brute-force oracles
(exact enumeration, Monte Carlo) that validate both on small instances.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, DomainError
from .series import BellQuery, bell_dobinski

ENUM_BUDGET = 1_000_000
MAX_ATOMS_FOR_ENUM = 8
REL_SLACK = 1e-9       # relative slack of every verified inequality
FAMILY_P = (2.0, 3.0, 4.0)


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support non-negative distribution: ((value, prob), ...)."""

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

    def mean(self) -> float:
        return _fsum_in_range((v * pr for v, pr in self.atoms), "mean")

    def moment(self, p: float) -> float:
        what = f"moment of order {p:g}"
        e = _scale_exponent([max(self.atoms)[0]], p)  # the largest value
        value = _fsum_in_range((math.ldexp(v, -e)**p * pr
                                for v, pr in self.atoms), what)
        return _scale_back((value,), e, p, what)[0]

    def scaled(self, c: float) -> "DiscreteDist":
        return DiscreteDist(tuple((c * v, pr) for v, pr in self.atoms))


@dataclass(frozen=True)
class ExtremalProblem:
    """Prescribed sum of means a, sum of p-th moments b, exponent p > 1."""

    a: float
    b: float
    p: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DomainError(f"a, b must be > 0, got a={self.a}, b={self.b}")
        if not (self.p > 1):
            raise DomainError(f"p must be > 1, got {self.p}")

    @property
    def mu(self) -> float:
        """a^{p/(p-1)} * b^{1/(1-p)}, the Poisson intensity of the extremal
        configuration."""
        e = 1.0 / (self.p - 1.0)
        return math.exp(self.p * e * math.log(self.a) - e * math.log(self.b))


@dataclass(frozen=True)
class SumMomentResult:
    """E(sum eta_j)^p computed by an oracle."""

    value: float
    method: str  # "Enumeration" or "MonteCarlo"
    n: int
    stderr: float | None = None


def _fsum_in_range(terms, what: str) -> float:
    """math.fsum of the terms; DomainError if a term or the sum exceeds the
    double range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DomainError(f"{what} exceeds the double range") from None


# A scaled moment below this lost terms to underflow (each less than
# 2**-1074) beyond its rounding.
_SCALED_FLOOR = sys.float_info.min / sys.float_info.epsilon


def _scale_exponent(tops: list[float], power: float, count: int = 1) -> int:
    """The least e >= 0 with count * (sum(tops) / 2**e)**power < 2**1024,
    power taken as at least 1 so that the sum fits too: 0 wherever it is in
    the double range, so that the atoms are then taken as given.  Division
    by 2**e is exact, bar atoms pushed into the subnormals."""
    top = max(tops)
    k = math.frexp(top)[1]  # every sum of tops is below 2**(k + bit_length)
    room = 1024.0 - math.log2(count)
    power = max(power, 1.0)
    if top == 0 or (k + len(tops).bit_length()) * power <= room:
        return 0
    bits = k + math.log2(math.fsum(math.ldexp(t, -k) for t in tops))
    return max(0, math.floor(bits - room / power) + 1)


def _scale_back(values: tuple[float, ...], e: int, p: float,
                what: str) -> tuple[float, ...]:
    """p-homogeneous values computed on the atoms divided by 2**e, each
    multiplied back by 2**(e*p) by adding to its binary exponent (exact at
    integer p); DomainError when one leaves the double range.  At large p
    one step of e moves the terms by 2**p, so the scaled first value can
    fall to where its terms underflow: DomainError then too."""
    if e:
        if values[0] < _SCALED_FLOOR:
            raise DomainError(f"{what} underflows when the atoms are "
                              f"scaled by 2**-{e}")
        n, frac = divmod(Fraction(p) * e, 1)  # e * p without rounding
        try:
            values = tuple(math.ldexp(v * 2.0 ** float(frac), n)
                           for v in values)
        except OverflowError:
            values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{what} exceeds the double range")
    return values


def _exp_in_range(log_value: float, what: str) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"{what} = exp({log_value:.6g}) exceeds the double "
                          "range") from None


def rosenthal_bound(p: float, sum_p_moments: float, sum_means: float) -> float:
    """B(p) * max{sum_j E eta_j^p, (sum_j E eta_j)^p}: an upper bound on
    E(sum eta_j)^p for any non-negative independent sequence, p >= 2."""
    if p < 2:
        raise DomainError(f"rosenthal_bound requires p >= 2, got {p}")
    if not (sum_p_moments > 0 and math.isfinite(sum_p_moments)):
        raise DomainError(f"sum_p_moments must be positive finite, got {sum_p_moments}")
    if not (sum_means > 0 and math.isfinite(sum_means)):
        raise DomainError(f"sum_means must be positive finite, got {sum_means}")
    log_b = bell_dobinski(BellQuery(p, 1.0)).log_value
    return _exp_in_range(
        log_b + max(math.log(sum_p_moments), p * math.log(sum_means)),
        "rosenthal_bound")


def schechtman_extremal(prob: ExtremalProblem) -> float:
    """(b/a)^{p/(p-1)} * B(p, mu): the exact supremum of E(sum eta_j)^p over
    sequences with sum of means a and sum of p-th moments b (sup over n too)."""
    mu = prob.mu
    log_b = bell_dobinski(BellQuery(prob.p, mu)).log_value
    log_prefactor = prob.p / (prob.p - 1.0) * (math.log(prob.b) - math.log(prob.a))
    return _exp_in_range(log_prefactor + log_b, "schechtman_extremal")


def exact_sum_moment(dists: list[DiscreteDist], p: float) -> SumMomentResult:
    """Enumerate all outcome tuples of the independent summands and
    accumulate prob * (sum of values)^p exactly (to float precision),
    scaled by a power of two where a power would overflow."""
    import numpy as np

    if p <= 0:
        raise DomainError(f"p must be > 0, got {p}")
    states = 1
    for d in dists:
        if len(d.atoms) > MAX_ATOMS_FOR_ENUM:
            raise BudgetError(f"distribution has {len(d.atoms)} atoms, "
                              f"cap is {MAX_ATOMS_FOR_ENUM}")
        states *= len(d.atoms)
        if states > ENUM_BUDGET:
            raise BudgetError(f"enumeration exceeds {ENUM_BUDGET} states")
    e = _scale_exponent([max(d.atoms)[0] for d in dists], p)
    sums = np.zeros(1)
    probs = np.ones(1)
    for d in dists:
        values, weights = zip(*d.atoms)
        sums = np.add.outer(sums, np.ldexp(values, -e)).ravel()
        probs = np.multiply.outer(probs, weights).ravel()
    with np.errstate(over="ignore"):  # within rounding of 2**1024
        value = float(np.dot(probs, sums**p))
    value, = _scale_back((value,), e, p, "E(sum eta_j)^p")
    return SumMomentResult(value=value, method="Enumeration", n=len(dists))


def mc_sum_moment(dists: list[DiscreteDist], p: float, samples: int,
                  seed: int) -> SumMomentResult:
    """Seeded Monte Carlo estimate of E(sum eta_j)^p with a standard error.

    Uses the counter-based Philox generator so results are reproducible
    and safely parallelizable by seed."""
    import numpy as np

    if samples < 10_000:
        raise DomainError(f"samples must be >= 10^4, got {samples}")
    if p <= 0:
        raise DomainError(f"p must be > 0, got {p}")
    rng = np.random.Generator(np.random.Philox(seed))
    totals = np.zeros(samples)
    tops = []
    # inf, and inf - inf in the deviations, where the largest sums pass
    # DBL_MAX: refused in _scale_back
    with np.errstate(over="ignore", invalid="ignore"):
        for d in dists:
            values, weights = zip(*d.atoms)
            drawn = rng.choice(values, size=samples, p=weights)
            tops.append(float(drawn.max()))
            totals += drawn
        # a sum of `samples` squares enters the standard error; dividing
        # the finite sums by 2**e is dividing each drawn value by it
        e = _scale_exponent(tops, 2.0 * p, samples)
        powered = np.ldexp(totals, -e)**p
        mean = float(powered.mean())
        stderr = float(powered.std(ddof=1) / math.sqrt(samples))
    value, stderr = _scale_back((mean, stderr), e, p,
                                "E(sum eta_j)^p or its standard error")
    return SumMomentResult(value=value, method="MonteCarlo", n=len(dists),
                           stderr=stderr)


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
    a = _fsum_in_range((d.mean() for d in dists), "sum of means")
    b = _fsum_in_range((d.moment(p) for d in dists), "sum of moments")
    return FamilyCheck(exact=exact_sum_moment(dists, p).value,
                       rosenthal=rosenthal_bound(p, b, a),
                       schechtman=schechtman_extremal(ExtremalProblem(a=a, b=b, p=p)))


@dataclass(frozen=True)
class Violation:
    trial: int
    inequality: str  # "rosenthal" or "schechtman"
    exact: float
    bound: float


@dataclass(frozen=True)
class VerificationReport:
    trials: int
    violations: tuple[Violation, ...]
    max_rosenthal_ratio: float
    max_schechtman_ratio: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_inequalities(trials: int, seed: int) -> VerificationReport:
    """Check the Rosenthal-type bound and the Schechtman extremal value on
    random enumerable families, at p drawn from FAMILY_P."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    violations: list[Violation] = []
    max_r = 0.0
    max_s = 0.0
    for trial in range(trials):
        dists = random_family(rng)
        p = FAMILY_P[int(rng.integers(0, len(FAMILY_P)))]
        c = check_family(dists, p)
        violations += [Violation(trial, name, c.exact, bound)
                       for name, bound in c.violated()]
        max_r = max(max_r, c.exact / c.rosenthal)
        max_s = max(max_s, c.exact / c.schechtman)
    return VerificationReport(trials=trials, violations=tuple(violations),
                              max_rosenthal_ratio=max_r,
                              max_schechtman_ratio=max_s)


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
    blank lines and #-comments are skipped."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot open instance file {path}: "
                          f"{exc.strerror}") from None
    dists = []
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                dists.append(parse_instance_line(line))
            except DomainError as exc:
                raise DomainError(f"{path}, line {lineno}: {exc}") from None
    return dists
