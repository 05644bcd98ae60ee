"""Tests of the benchmark's reference module against brute force at small N.

Run with `python -m pytest perfbench`. The brute force enumerates every
accessed subset or failure pattern, and takes each conditional rate as the
reciprocal of the mean completion time, integrated numerically from the
order statistic's survival function, so no harmonic-number identity is
shared with the reference.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import mpmath
import pytest

import checks
import reference as R
import workloads as W

SERVICES = (("small", 1.5), ("scaled", 0.5), ("shifted", 2.0, 1.0), ("constant", 3.0))


def _fixed_pmf_by_subsets(nodes: int, data: int, r: int) -> dict[int, Fraction]:
    counts: dict[int, int] = {}
    for subset in itertools.combinations(range(nodes), r):
        phi = sum(1 for node in subset if node < data)
        counts[phi] = counts.get(phi, 0) + 1
    total = math.comb(nodes, r)
    return {phi: Fraction(count, total) for phi, count in counts.items()}


def _prob_pmf_by_patterns(nodes: int, data: int, p: Fraction) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for failed in itertools.product((False, True), repeat=nodes):
        weight = Fraction(1)
        for down in failed:
            weight *= p if down else 1 - p
        phi = sum(1 for node in range(data) if not failed[node])
        out[phi] = out.get(phi, Fraction(0)) + weight
    return out


def _mean_completion_time(service: tuple, alpha: int, phi: int) -> mpmath.mpf:
    """E[alpha-th smallest of phi service times] = integral of its survival function."""
    kind = service[0]
    if kind == "constant":
        return mpmath.mpf(service[1]) / alpha
    shift = mpmath.mpf(service[1]) / alpha if kind == "shifted" else 0
    rate = {"small": service[1], "scaled": alpha * service[1], "shifted": service[-1]}[kind]

    def survival(t):
        done = 1 - mpmath.exp(-rate * t)
        return sum(mpmath.binomial(phi, j) * done ** j * (1 - done) ** (phi - j)
                   for j in range(alpha))

    return shift + mpmath.quad(survival, [0, mpmath.inf])


@pytest.mark.parametrize("nodes", [5, 7])
def test_fixed_pmf_matches_subset_enumeration(nodes):
    for data in range(1, nodes + 1):
        for r in range(1, nodes + 1):
            want = {phi: q for phi, q in _fixed_pmf_by_subsets(nodes, data, r).items() if q}
            got = {phi: q for phi, q in R.pmf(nodes, data, ("fixed", r)).items() if q}
            assert got == want


def test_probabilistic_pmf_matches_failure_enumeration():
    nodes = 6
    for data in range(1, nodes + 1):
        assert R.pmf(nodes, data, ("prob", 0.3)) == _prob_pmf_by_patterns(nodes, data,
                                                                           Fraction(3, 10))


@pytest.mark.parametrize("service", SERVICES)
def test_rates_match_brute_force(service):
    nodes, m = 6, 2
    with mpmath.workdps(30):
        for alpha in range(1, nodes // m + 1):
            for access in (("fixed", 2), ("fixed", 4), ("fixed", 6), ("prob", 0.3)):
                if access[0] == "fixed":
                    weights = _fixed_pmf_by_subsets(nodes, m * alpha, access[1])
                else:
                    weights = _prob_pmf_by_patterns(nodes, m * alpha, Fraction(3, 10))
                rate = sum(mpmath.mpf(q.numerator) / q.denominator
                           / _mean_completion_time(service, alpha, phi)
                           for phi, q in weights.items() if phi >= alpha)
                recovery = sum(q for phi, q in weights.items() if phi >= alpha)
                got_rate, got_recovery = R.exact_metrics(nodes, m, alpha, access, service)
                assert got_recovery == recovery
                assert float(got_rate) == pytest.approx(float(rate), rel=1e-14)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.95])
def test_mpmath_path_matches_exact_path(p):
    for service in SERVICES:
        for alpha in (1, 5, 17, 30):
            exact = R.exact_metrics(60, 2, alpha, ("prob", p), service)
            rate, recovery = R.mp_metrics(60, 2, alpha, ("prob", p), service)
            assert rate == pytest.approx(float(exact[0]), rel=1e-14)
            assert recovery == pytest.approx(float(exact[1]), rel=1e-14)


def test_recovery_routes_agree():
    for alpha in range(1, 11):
        for access in (("fixed", 10), ("fixed", 25)):
            assert R.recovery_probability(40, 4, alpha, access) == pytest.approx(
                R.metrics(40, 4, alpha, access)[1], rel=1e-15, abs=1e-300)
    for alpha in (1, 7, 30, 50):
        assert R.recovery_probability(100, 2, alpha, ("prob", 0.4)) == pytest.approx(
            R.metrics(100, 2, alpha, ("prob", 0.4))[1], rel=1e-12)


def test_minimal_spreading_closed_forms():
    for service in (("small", 1.5), ("scaled", 0.5)):
        for nodes, m in ((10, 1), (20, 3), (40, 4)):
            for access in (("fixed", 2), ("fixed", nodes), ("prob", 0.05), ("prob", 0.7)):
                rate, _ = R.exact_metrics(nodes, m, 1, access, service)
                assert rate == R.minimal_spreading_rate(access, service, nodes, m)


def _exact_rates(nodes, m, access, service):
    upper = nodes // m if access[0] == "prob" else min(nodes // m, access[1])
    return [R.exact_metrics(nodes, m, alpha, access, service)[0] for alpha in range(1, upper + 1)]


def test_threshold_anchors_are_the_alpha_2_terms():
    nodes, m, dm = 40, 2, 3  # shifted delta*mu = 3
    base = 2 * math.comb(2 * m - 1, 1)
    shifted = Fraction(dm + 2, 2 * (dm * m + 1) * math.comb(2 * m - 1, 1))
    assert R.THRESHOLD_ANCHORS == {
        ("fixed", "scaled", "optimality"): 1 + Fraction(nodes - 1, base),
        ("fixed", "scaled", "nonoptimality"): Fraction(m, m + 1) * (nodes - 1) + 1,
        ("prob", "scaled", "optimality"): 1 - Fraction(1, base),
        ("fixed", "shifted", "optimality"): 1 + shifted * (nodes - 1),
        ("prob", "shifted", "optimality"): 1 - shifted,
    }


def test_threshold_anchors_hold_on_reference_rates():
    nodes, m = 40, 2
    services = {"scaled": ("scaled", 1.0), "shifted": ("shifted", 3.0, 1.0)}
    accesses = [("fixed", r) for r in range(2, nodes + 1)]
    accesses += [("prob", round(0.05 * k, 2)) for k in range(1, 20)]
    for (kind, service_kind, certificate), threshold in R.THRESHOLD_ANCHORS.items():
        for access in accesses:
            if access[0] != kind:
                continue
            x = access[1]
            if certificate == "optimality":
                covered = x <= threshold if kind == "fixed" else x >= threshold
            else:  # the one non-optimality anchor is fixed-size: r >= threshold
                covered = x >= threshold
            if not covered:
                continue
            rates = _exact_rates(nodes, m, access, services[service_kind])
            if certificate == "optimality":
                assert max(rates) == rates[0], (kind, service_kind, access)
            else:
                assert max(rates) > rates[0], (kind, service_kind, access)


def test_alpha_star_anchors():
    for m, star in R.ALPHA_STAR_SCALED_R10.items():
        rates = _exact_rates(40, m, ("fixed", 10), ("scaled", 1.0))
        assert rates.index(max(rates)) + 1 == star


def _simulate_text(seed: int, shift_se: float) -> str:
    nodes, m, alpha, access, service = W.SIM_CASES[0]
    rate, recovery = R.metrics(nodes, m, alpha, access, service)
    se = 1e-3
    counts = {phi: 0 for phi in R.pmf(nodes, m * alpha, access)}
    counts[alpha] = W.SIM_TRIALS
    return json.dumps({
        "trials": W.SIM_TRIALS, "seed": seed,
        "service_rate_estimate": rate + shift_se * se, "service_rate_std_error": se,
        "service_rate_analytic": rate, "recovery_estimate": recovery,
        "recovery_analytic": recovery, "per_phi_counts": {str(k): v for k, v in counts.items()},
    })


def test_simulate_check_rejects_estimates_outside_the_band():
    def failures(shift):
        return checks.check_simulate({"texts": [_simulate_text(4, shift), None]}, 4)

    assert failures(4.0) == []
    assert len(failures(6.0)) == 1
