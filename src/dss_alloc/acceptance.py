"""Release-gate checks: nine end-to-end criteria over the whole library.

Each criterion returns a CriterionResult rather than raising, so the CLI
validate command and the test suite can both report one pass/fail line per
criterion. run_all executes them in order (optionally a subset).
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .analysis import (
    access_pmf,
    alpha_table,
    expected_metrics,
    maximal_spreading_rate,
    minimal_spreading_rate,
    optimal_alpha,
    recovery_probability,
    service_rate,
)
from .conditions import classify, scaled_prob_m1_optimal_range
from .errors import ConfigurationError
from .models import (
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ServiceModel,
    ShiftedExp,
    SmallExp,
    SystemConfig,
    conditional_rate,
    conditional_rate_bounds,
)
from .numerics import harmonic
from .simulator import SimConfig, estimate_service_rate, recovery_estimate

__all__ = ["CriterionResult", "run_all"] + [f"criterion_{i}" for i in range(1, 10)]

NODES_GRID = (10, 20, 40)
M_GRID = (1, 2, 3, 4)
MU_GRID = (0.5, 1.0, 2.0)
P_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def criterion_1() -> CriterionResult:
    """Closed-form extremal-spreading rates match the general rate sum."""
    worst = 0.0
    checks = 0

    def compare(closed: float, general: float) -> None:
        nonlocal worst, checks
        worst = max(worst, _rel_err(closed, float(general)))
        checks += 1

    for nodes in NODES_GRID:
        for m in M_GRID:
            for mu in MU_GRID:
                services = (SmallExp(mu), ScaledExp(mu), ConstantTime(mu))
                for p in P_GRID:
                    access = Probabilistic(p)
                    for svc in services:
                        rates, _ = expected_metrics(access, svc, nodes, m, (1,))
                        compare(minimal_spreading_rate(access, svc, nodes, m), rates[0])
                for r in range(2, nodes + 1):
                    access = FixedSize(r)
                    # alpha = r is the maximal allocation when it fits
                    alphas = (1, r) if r * m <= nodes else (1,)
                    for svc in services:
                        rates, _ = expected_metrics(access, svc, nodes, m, alphas)
                        compare(minimal_spreading_rate(access, svc, nodes, m), rates[0])
                        if len(alphas) == 2 and not isinstance(svc, SmallExp):
                            compare(maximal_spreading_rate(access, svc, nodes, m), rates[1])
    return CriterionResult(
        1,
        "closed-form rates match the general formula",
        worst <= 1e-9,
        f"{checks} comparisons, max relative error {worst:.3g}",
    )


def criterion_2() -> CriterionResult:
    """Exhaustive search confirms alpha* = 1 under memoryless service."""
    searches = 0
    exceptions = []
    for nodes in NODES_GRID:
        for m in M_GRID:
            for mu in MU_GRID:
                svc = SmallExp(mu)
                for r in range(2, nodes + 1):
                    searches += 1
                    got = optimal_alpha(FixedSize(r), svc, nodes, m).alpha_star
                    if got != 1:
                        exceptions.append(f"fixed N={nodes} m={m} r={r}: alpha*={got}")
                for p in P_GRID:
                    searches += 1
                    got = optimal_alpha(Probabilistic(p), svc, nodes, m).alpha_star
                    if got != 1:
                        exceptions.append(f"prob N={nodes} m={m} p={p}: alpha*={got}")
    return CriterionResult(
        2,
        "memoryless service always favors minimal spreading",
        not exceptions,
        f"{searches} exhaustive searches, {len(exceptions)} exceptions"
        + (f"; first: {exceptions[0]}" if exceptions else ""),
    )


def criterion_3() -> CriterionResult:
    """Threshold anchor values for the N=40, m=2 reference configuration."""
    anchors: list[tuple[str, float, float]] = []

    rep = classify(FixedSize(20), ScaledExp(1.0), 2, nodes=40)
    anchors.append(("fixed/scaled optimality", float(rep.optimality_threshold), 7.5))
    anchors.append(("fixed/scaled non-optimality", float(rep.nonoptimality_threshold), 27.0))

    rep = classify(Probabilistic(0.5), ScaledExp(1.0), 2, nodes=40)
    anchors.append(("prob/scaled optimality", float(rep.optimality_threshold), 5.0 / 6.0))
    term2 = dict(rep.nonoptimality_terms)[2]
    exact_third = term2 == Fraction(1, 3)

    rep = classify(FixedSize(20), ShiftedExp(3.0, 1.0), 2, nodes=40)
    anchors.append(("fixed/shifted optimality", float(rep.optimality_threshold), 79.0 / 14.0))

    rep = classify(Probabilistic(0.5), ShiftedExp(3.0, 1.0), 2, nodes=40)
    anchors.append(("prob/shifted optimality", float(rep.optimality_threshold), 37.0 / 42.0))
    anchors.append(("prob/shifted non-optimality", float(rep.nonoptimality_threshold),
                    1.0 - 0.775 ** (1.0 / 3.0)))

    bad = [f"{name}: {got:.6g} != {want:.6g}" for name, got, want in anchors
           if abs(got - want) > 1e-3]
    if not exact_third:
        bad.append(f"alpha=2 prob/scaled non-optimality term {term2} != 1/3 exactly")
    return CriterionResult(
        3,
        "threshold anchors at N=40, m=2",
        not bad,
        "; ".join(bad) if bad else f"{len(anchors)} anchors within 1e-3, alpha=2 term exact",
    )


def criterion_4() -> CriterionResult:
    """Optimal-alpha extrema reproduce the reference curves exactly."""
    failures = []
    for m, want in zip(M_GRID, (1, 1, 3, 10)):
        got = optimal_alpha(FixedSize(10), ScaledExp(1.0), 40, m).alpha_star
        if got != want:
            failures.append(f"scaled m={m}: alpha*={got} != {want}")
    for m in M_GRID:
        got = optimal_alpha(FixedSize(10), SmallExp(1.0), 40, m).alpha_star
        if got != 1:
            failures.append(f"small m={m}: alpha*={got} != 1")
    full = recovery_probability(SystemConfig(40, 4, 10), FixedSize(10))
    if full != 1.0:
        failures.append(f"m=4 alpha=10 recovery probability {full!r} != 1.0")
    rows = alpha_table(FixedSize(14), SmallExp(1.0), 40, 3, range(1, 13))
    best = max(rows, key=lambda row: row.recovery_probability)
    if best.alpha != 12:
        failures.append(f"recovery argmax alpha={best.alpha} != 12 on the r=14 grid")
    return CriterionResult(
        4,
        "reference-curve extrema are exact",
        not failures,
        "; ".join(failures) if failures else "12 extrema exact",
    )


def criterion_5() -> CriterionResult:
    """Certificate verdicts never contradict the exhaustive search."""
    started = time.monotonic()
    counts = {"optimal": 0, "non-optimal": 0, "indeterminate": 0}
    violations = []

    def check(access, svc, nodes, m, label):
        rep = classify(access, svc, m, nodes=nodes)
        counts[rep.verdict] += 1
        if rep.verdict == "indeterminate":
            return
        rows = alpha_table(access, svc, nodes, m)
        rate_1 = rows[0].service_rate
        slack = 1e-9 * max(1.0, rate_1)
        if rep.verdict == "optimal":
            if any(row.service_rate > rate_1 + slack for row in rows[1:]):
                violations.append(f"{label}: verdict optimal but alpha=1 is beaten")
        else:
            if all(row.service_rate < rate_1 - slack for row in rows[1:]):
                violations.append(f"{label}: verdict non-optimal but alpha=1 wins")

    services = [ScaledExp(mu) for mu in MU_GRID]
    services += [ShiftedExp(delta, mu) for delta in (1.0, 3.0) for mu in MU_GRID]
    for nodes in NODES_GRID:
        for m in M_GRID:
            for svc in services:
                for r in range(2, nodes + 1):
                    check(FixedSize(r), svc, nodes, m,
                          f"fixed N={nodes} m={m} r={r} {svc!r}")
                for p in P_GRID:
                    check(Probabilistic(p), svc, nodes, m,
                          f"prob N={nodes} m={m} p={p} {svc!r}")
    elapsed = time.monotonic() - started
    total = sum(counts.values())
    return CriterionResult(
        5,
        "certificates are sound against exhaustive search",
        not violations and elapsed < 60.0,
        f"{total} configurations ({counts['optimal']} optimal, "
        f"{counts['non-optimal']} non-optimal, {counts['indeterminate']} indeterminate), "
        f"{len(violations)} counterexamples, {elapsed:.1f}s"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def criterion_6() -> CriterionResult:
    """The m=1 scaled-exponential argmax lies in the predicted bracket."""
    failures = []
    for k in range(1, 10):
        p = round(0.05 * k, 2)
        lo, hi = scaled_prob_m1_optimal_range(p)
        # with m = 1 only phi = alpha recovers, so the rate has this closed form
        best_alpha, best_rate = 1, 0.0
        for alpha in range(1, 200):
            rate = alpha * (1.0 - p) ** alpha / float(harmonic(alpha))
            if rate > best_rate:
                best_alpha, best_rate = alpha, rate
        lower = max(1.0, lo)
        if not (lower - 1e-9 <= best_alpha <= math.ceil(hi) + 1e-9):
            failures.append(f"p={p}: argmax {best_alpha} outside [{lower:.3g}, {math.ceil(hi)}]")
    return CriterionResult(
        6,
        "m=1 argmax bracket holds",
        not failures,
        "; ".join(failures) if failures else "9 failure probabilities, argmax always in bracket",
    )


_PANEL_FIXED = ((10, 1, 2, 4), (10, 2, 2, 5), (20, 2, 3, 8), (20, 3, 2, 6), (20, 1, 4, 10))
_PANEL_PROB = ((10, 1, 2, 0.2), (10, 2, 2, 0.3), (20, 2, 3, 0.25), (20, 3, 2, 0.3),
               (20, 1, 4, 0.15))


def criterion_7(trials: int = 1_000_000) -> CriterionResult:
    """The simulator reproduces every analytic value on a 30-point panel."""
    started = time.monotonic()
    sim = SimConfig(trials=trials, seed=2024, workers=1)
    rate_hits = prob_hits = configs = 0
    tv_worst = 0.0
    services: tuple[ServiceModel, ...] = (SmallExp(1.0), ScaledExp(1.0), ShiftedExp(2.0, 1.0))
    for svc in services:
        for panel, build in ((_PANEL_FIXED, FixedSize), (_PANEL_PROB, Probabilistic)):
            for nodes, m, alpha, value in panel:
                configs += 1
                config = SystemConfig(nodes, m, alpha)
                access = build(value)
                est = estimate_service_rate(config, access, svc, sim)
                if abs(est.mean - service_rate(config, access, svc)) <= 3.0 * est.std_error:
                    rate_hits += 1
                prob_est = recovery_estimate(est.per_phi_counts, alpha, trials)
                if abs(prob_est.mean - recovery_probability(config, access)) \
                        <= 3.0 * prob_est.std_error:
                    prob_hits += 1
                tv = 0.5 * sum(abs(est.per_phi_counts.get(phi, 0) / trials - q)
                               for phi, q in access_pmf(config, access))
                tv_worst = max(tv_worst, tv)

    constant_ok = True
    for access in (FixedSize(8), Probabilistic(0.25)):
        config = SystemConfig(20, 2, 3)
        svc = ConstantTime(2.0)
        est = estimate_service_rate(config, access, svc, SimConfig(trials=100_000, seed=7))
        exact = (est.std_error == 0.0
                 and est.topup_counts == {}
                 and est.mean == service_rate(config, access, svc)
                 and all(t == svc.delta / config.alpha for t in est.per_phi_mean_time.values()))
        constant_ok = constant_ok and exact

    elapsed = time.monotonic() - started
    passed = (rate_hits >= 28 and prob_hits >= 28 and tv_worst < 0.005
              and constant_ok and elapsed < 300.0)
    return CriterionResult(
        7,
        "simulator panel matches analytic values",
        passed,
        f"{configs} configs: service rate {rate_hits}/{configs} within 3 s.e., "
        f"recovery {prob_hits}/{configs} within 3 s.e., worst TV {tv_worst:.5f}, "
        f"constant-time exact: {'yes' if constant_ok else 'no'}, {elapsed:.1f}s",
    )


def criterion_8() -> CriterionResult:
    """Conditional-rate bounds hold and maximal beats minimal at r*m = N."""
    services: list[ServiceModel] = []
    for mu in MU_GRID:
        services.append(SmallExp(mu))
        services.append(ScaledExp(mu))
        services.extend(ShiftedExp(delta, mu) for delta in (0.0, 1.0, 3.0))
    services.extend(ConstantTime(delta) for delta in (1.0, 3.0))

    checks = 0
    violations = []
    for svc in services:
        for alpha in range(1, 7):
            for m in M_GRID:
                for phi in range(alpha, m * alpha + 1):
                    rate = conditional_rate(svc, alpha, phi)
                    low, high = conditional_rate_bounds(svc, alpha, phi, m)
                    slack = 1e-9 * max(1.0, abs(rate))
                    checks += 1
                    if not (low - slack <= rate <= high + slack):
                        violations.append(
                            f"{svc!r} alpha={alpha} m={m} phi={phi}: "
                            f"{rate} outside [{low}, {high}]")

    pairs = 0
    for nodes in NODES_GRID:
        for m in M_GRID:
            if nodes % m:
                continue
            r = nodes // m
            if r < 2:
                continue
            for mu in MU_GRID:
                for svc in (ScaledExp(mu), ConstantTime(mu)):
                    high = maximal_spreading_rate(FixedSize(r), svc, nodes, m)
                    low = minimal_spreading_rate(FixedSize(r), svc, nodes, m)
                    pairs += 1
                    if high < low - 1e-12 * max(1.0, abs(high)):
                        violations.append(
                            f"N={nodes} m={m} {svc!r}: maximal {high} < minimal {low}")
    return CriterionResult(
        8,
        "rate bounds sandwich and extremal comparison holds",
        not violations,
        f"{checks} bound checks and {pairs} extremal pairs, {len(violations)} violations"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def criterion_9() -> CriterionResult:
    """CLI outputs are byte-stable and independent of the worker count."""
    from .cli import main  # imported here because cli imports this module

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base = ["simulate", "--nodes", "20", "--m", "2", "--alpha", "3",
                "--access", "fixed", "--r", "8", "--service", "scaled", "--mu", "1",
                "--trials", "200000", "--seed", "7", "--format", "json"]
        paths = [os.path.join(tmp, f"sim{w}.json") for w in (1, 8)]
        for workers, path in zip((1, 8), paths):
            code = main(base + ["--workers", str(workers), "--output", path])
            if code != 0:
                failures.append(f"simulate with {workers} workers exited {code}")
        if not failures:
            with open(paths[0], "rb") as fh:
                first = fh.read()
            with open(paths[1], "rb") as fh:
                second = fh.read()
            if not first:
                failures.append("simulate wrote no output")
            if first != second:
                failures.append("simulate output depends on the worker count")

        sweep_paths = [os.path.join(tmp, f"sweep{i}.csv") for i in (1, 2)]
        for path in sweep_paths:
            code = main(["sweep", "--preset", "fig4", "--format", "csv", "--output", path])
            if code != 0:
                failures.append(f"sweep exited {code}")
        if not failures:
            with open(sweep_paths[0], "rb") as fh:
                first = fh.read()
            with open(sweep_paths[1], "rb") as fh:
                second = fh.read()
            if first != second:
                failures.append("sweep CSV is not byte-stable")
            header = first.split(b"\n", 1)[0]
            if header != b"m,r,alpha,service_rate,recovery_prob":
                failures.append(f"unexpected sweep header {header!r}")
            if b"\r" in first:
                failures.append("sweep CSV contains carriage returns")
    return CriterionResult(
        9,
        "outputs are byte-stable",
        not failures,
        "; ".join(failures) if failures else
        "simulate identical for 1 and 8 workers; sweep CSV byte-stable",
    )


_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
)


def run_all(only: Iterable[int] | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria (all, or the numbers in `only`) in order."""
    if only is not None:
        selected = set(only)
        unknown = selected - set(range(1, len(_CRITERIA) + 1))
        if unknown:
            raise ConfigurationError(
                f"unknown criterion number(s): {sorted(unknown)}; valid: 1..{len(_CRITERIA)}")
    else:
        selected = None
    results = []
    for number, criterion in enumerate(_CRITERIA, start=1):
        if selected is not None and number not in selected:
            continue
        try:
            results.append(criterion())
        except Exception as exc:  # a crashed criterion is a failed criterion
            results.append(CriterionResult(number, criterion.__name__, False,
                                           f"raised {exc!r}"))
    return results
