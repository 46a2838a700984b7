"""Self-verification suites: oracle agreement, bound sandwiches (each
point through check_point, which the tests share), constant reproduction,
asymptotic residuals, and the moment-inequality checks.

Each suite returns a list of CheckResult records; the CLI prints one
pass/fail line per check and the acceptance tests assert on them.  The
suites import `bounds` and `asymptotics` where they check them, so that
`verify --instances` loads only the applications layer it runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import applications
from .applications import FAMILY_P, REL_SLACK
from .errors import DomainError
from .series import BellQuery, axis, bell_dobinski, bell_touchard_exact


# The acceptance grid: 40 log-spaced p in [2, 200] x 12 log-spaced beta
# in [0.1, 50], each bound restricted to its regime.
GRID_P = tuple(axis(2.0, 200.0, 40, log=True))
GRID_BETA = tuple(axis(0.1, 50.0, 12, log=True))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def suite_oracles() -> list[CheckResult]:
    """Dobinski vs exact Touchard over integer p in [0, 25], plus the
    classical Bell numbers."""
    results = []
    worst = 0.0
    for p in range(0, 26):
        for beta in (0.5, 1.0, 2.0, 10.0):
            exact = float(bell_touchard_exact(p, beta))
            approx = bell_dobinski(BellQuery(float(p), beta)).value
            worst = max(worst, abs(approx - exact) / exact)
    results.append(CheckResult(
        "oracle-equivalence", worst <= 1e-10,
        f"max rel err {worst:.3e} over p in [0,25] x beta in {{0.5,1,2,10}}"))

    classic = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 10: 115975}
    exact_ok = all(bell_touchard_exact(p, 1) == want for p, want in classic.items())
    results.append(CheckResult(
        "classical-bell-numbers", exact_ok,
        "Touchard path reproduces B(0..5), B(10) exactly"))
    return results


def check_point(q: BellQuery, report=None) -> list[tuple[str, float, float]]:
    """Each violation at q as (label, p, beta), against the series' root in
    report (bounds.bound_report(q) unless given): a bounds.CANDIDATES entry
    that is not a DomainError or a finite double on its side of the root,
    GOptimized above a closed form it minimises (slack 1e-12), the report's
    bounds off their sides or out of order, lower_method "none" where lower
    is finite or the reverse, and a K- flag that disagrees with the series.
    Slack REL_SLACK; without a root, only the root-free checks run."""
    from . import bounds

    if report is None:
        report = bounds.bound_report(q)
    root = report.series_root
    # a lower value above `over` or an upper one below `under` is on the
    # wrong side; NaN, where there is no root, puts nothing there
    over, under = ((math.nan, math.nan) if root is None
                   else (root * (1 + REL_SLACK), root * (1 - REL_SLACK)))
    bad, values = [], {}
    for c in bounds.CANDIDATES:
        try:
            v = values[c.name] = c.evaluate(q)[0]
        except DomainError:
            continue
        if not math.isfinite(v) or (
                v > over if c.side == "lower" else v < under):
            bad.append(c.name)
    # the closed form and K+ * beta are the MGF bound at one lambda each
    g = values.get("GOptimized", -math.inf)
    bad += [f"GOptimized>{name}"
            for name in ("ClosedFormLargeP(upper)", "KPlusLargeBeta")
            if g > values.get(name, math.inf) * (1 + 1e-12)]
    lower, km = report.lower, report.kminus
    bad += [label for label, failed in (
        ("report.lower", lower > over),
        ("report.upper", report.upper < under),
        ("report.lower>upper", lower > report.upper * (1 + REL_SLACK)),
        ("report.lower_method",
         (report.lower_method == "none") == math.isfinite(lower)),
        # a K- value above the root, flagged as holding, is listed once,
        # as the KMinusLargeBeta violation
        ("report.kminus.holds", km is not None and root is not None
         and "KMinusLargeBeta" not in bad and km.holds != (km.value <= over)),
    ) if failed]
    return [(label, q.p, q.beta) for label in bad]


def suite_sandwich() -> list[CheckResult]:
    """check_point at every point of the acceptance grid, the K+/K-
    constants, and the relative-error corollary."""
    from . import bounds

    results = []
    violations = []
    large_beta = 0
    dev_by_p: dict[float, float] = {}

    for p in GRID_P:
        for beta in GRID_BETA:
            q = BellQuery(p, beta)
            report = bounds.bound_report(q)
            violations += check_point(q, report)
            if report.series is None:  # the grid lies inside P_MAX
                violations.append(("series", p, beta))
            large_beta += report.kminus is not None
            if q.ratio >= 2.0:  # the closed form's regime
                # deviation of B^{1/p} from p/(e ln r), r = p/beta, scaled
                # by ln r / lnln r
                lr = math.log(p / beta)
                ref = p / (math.e * lr)
                dev = abs(report.series_root - ref) / ref * lr / math.log(lr)
                dev_by_p[p] = max(dev_by_p.get(p, -math.inf), dev)

    results.append(CheckResult(
        "sandwich", not violations,
        f"{len(violations)} violations on {len(GRID_P)}x{len(GRID_BETA)} grid"
        + (f"; first: {violations[0]}" if violations else "")))
    k_minus_max = max(bounds.K_MINUS_FORMULA, bounds.K_MINUS_PAPER)
    flags_bad = sum(v[0] in ("KMinusLargeBeta", "report.kminus.holds")
                    for v in violations)
    results.append(CheckResult(
        "kminus-flags", k_minus_max <= 1.0 and not flags_bad,
        f"K- <= {k_minus_max} <= 1, so K- * beta <= beta <= B^(1/p) "
        f"(Jensen); the flag disagrees with the series at {flags_bad} of "
        f"{large_beta} LargeBeta points"))

    k_plus_ok = abs(bounds.K_PLUS - 8.9758) <= 1e-3
    results.append(CheckResult(
        "kplus-constant", k_plus_ok,
        f"exp((e^2-3)/2) = {bounds.K_PLUS:.6f} vs printed 8.9758"))
    k_minus_ok = abs(bounds.K_MINUS_FORMULA - 0.4632) <= 1e-3
    results.append(CheckResult(
        "kminus-constant", k_minus_ok,
        f"(2pi)^-1/2 exp(-1/(2e)+1/3) = {bounds.K_MINUS_FORMULA:.6f}; "
        f"printed value 0.6538 differs by "
        f"{0.6538 - bounds.K_MINUS_FORMULA:.4f} (discrepancy retained)"))

    # Relative-error corollary: the normalized deviation is finite with a
    # stable running max over the top octave of p.
    ps = sorted(dev_by_p)
    running = -math.inf
    run_at_half = None
    for p in ps:
        running = max(running, dev_by_p[p])
        if p <= ps[-1] / 2.0:
            run_at_half = running
    finite = all(math.isfinite(v) for v in dev_by_p.values())
    stable = run_at_half is not None and running <= run_at_half * (1 + 1e-12)
    results.append(CheckResult(
        "relative-error-corollary", finite and stable,
        f"max normalized deviation {running:.4f}; running max over the top "
        f"octave unchanged from {run_at_half:.4f}" if run_at_half is not None
        else "no LargeP points"))
    return results


def suite_asymptotics() -> list[CheckResult]:
    """de Bruijn residual decay and the Lambert-W residual bound."""
    from . import asymptotics

    results = []
    norm_resid = []
    for p in (25.0, 50.0, 100.0, 200.0, 300.0):
        r = bell_dobinski(BellQuery(p, 1.0))
        resid = abs(r.log_value / p - asymptotics.debruijn_expansion(p).total)
        norm_resid.append((p, resid * math.log(p) ** 2 / math.log(math.log(p))))
    peak_p = max(norm_resid, key=lambda t: t[1])[0]
    results.append(CheckResult(
        "debruijn-residual-decay", peak_p < 100.0,
        f"normalized residual peaks at p={peak_p:g}; values "
        + ", ".join(f"{p:g}:{v:.4f}" for p, v in norm_resid)))

    xs = [0.0] + axis(1e-6, 1e6, 49, log=True)
    worst = 0.0
    for x in xs:
        w = asymptotics.lambert_w(x)
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, x))
    results.append(CheckResult(
        "lambert-residual", worst <= 1e-12,
        f"max |W e^W - x| / max(1,x) = {worst:.3e} on 50-point grid"))
    return results


def suite_inequalities(trials: int = 1000, seed: int = 7) -> list[CheckResult]:
    """Rosenthal/Schechtman zero-violation property on random enumerable
    families, at p drawn from FAMILY_P, plus the p = 2 closed form of the
    extremal value."""
    import numpy as np

    applications.check_seed(seed)
    results = []
    rng = np.random.Generator(np.random.Philox(seed))
    # each family is drawn before its p
    checks = [applications.check_family(
        applications.random_family(rng),
        FAMILY_P[int(rng.integers(0, len(FAMILY_P)))]) for _ in range(trials)]
    violations = sum(len(c.violated()) for c in checks)
    max_r = max((c.exact / c.rosenthal for c in checks), default=0.0)
    max_s = max((c.exact / c.schechtman for c in checks), default=0.0)
    results.append(CheckResult(
        "moment-inequalities", violations == 0,
        f"{violations} violations in {trials} trials; max exact/bound ratios "
        f"rosenthal {max_r:.4f}, schechtman {max_s:.4f}"))

    # a, b drawn in [0.1, 10], so mu = a^2/b lies in [1e-3, 1e3].
    rng = np.random.Generator(np.random.Philox(seed + 1))
    worst = 0.0
    for _ in range(100):
        a = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        b = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        val = applications.schechtman_extremal(
            applications.ExtremalProblem(a=a, b=b, p=2.0))
        worst = max(worst, abs(val - (a * a + b)) / (a * a + b))
    results.append(CheckResult(
        "schechtman-p2-closed-form", worst <= 1e-10,
        f"max rel err vs a^2 + b: {worst:.3e} over 100 random (a, b)"))
    return results


SUITES = {
    "oracles": lambda trials, seed: suite_oracles(),
    "sandwich": lambda trials, seed: suite_sandwich(),
    "asymptotics": lambda trials, seed: suite_asymptotics(),
    "inequalities": lambda trials, seed: suite_inequalities(trials, seed),
}


def run_suites(names, trials: int = 1000, seed: int = 7) -> list[CheckResult]:
    if trials < 1:  # zero trials would check nothing and pass
        raise DomainError(f"trials must be >= 1, got {trials}")
    applications.check_seed(seed)  # before any suite runs
    results = []
    for name in names:
        results.extend(SUITES[name](trials, seed))
    return results
