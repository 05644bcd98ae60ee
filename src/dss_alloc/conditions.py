"""Minimal-spreading (non-)optimality certificates.

Each threshold answers one question about the minimal spreading allocation
(alpha = 1) under a large-file service model: below/above which access
intensity is it certainly the best (or certainly beatable)? Fixed-size
thresholds bound the accessed-node count r; probabilistic thresholds bound
the failure probability p. Every threshold is an extremum of per-alpha terms
over candidate alternatives alpha >= 2; the witness records which alpha
attains it.

Terms with integral exponent (alpha = 2) are evaluated as exact rationals so
verdict comparisons at boundary values like r <= 7.5 never hinge on float
rounding; mixed rational/float extrema compare exactly in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .analysis import optimal_alpha
from .errors import ConfigurationError
from .models import (
    AccessModel,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ServiceModel,
    ShiftedExp,
)
from .numerics import binomial

__all__ = [
    "CandidateCheck",
    "ConditionReport",
    "ThresholdResult",
    "classify",
    "constant_prob_m1_optimal_alpha",
    "fixed_scaled_nonoptimality_threshold",
    "fixed_scaled_optimality_threshold",
    "fixed_shifted_nonoptimality_threshold",
    "fixed_shifted_optimality_threshold",
    "optimal_alpha_profile",
    "prob_scaled_nonoptimality_threshold",
    "prob_scaled_optimality_threshold",
    "prob_shifted_nonoptimality_threshold",
    "prob_shifted_optimality_threshold",
    "scaled_prob_m1_optimal_range",
]

Number = Fraction | float


@dataclass(frozen=True)
class ThresholdResult:
    """An extremum of per-alpha threshold terms and the alpha attaining it.

    witness_alpha is None when no candidate alpha exists or the condition is
    unreachable; terms lists every evaluated (alpha, term) pair.
    """

    value: Number
    witness_alpha: int | None
    terms: tuple[tuple[int, Number], ...]


@dataclass(frozen=True)
class ConditionReport:
    """Both certificates for one configuration plus the resulting verdict."""

    access_kind: str
    service_kind: str
    optimality_threshold: Number
    nonoptimality_threshold: Number
    witness_alpha_opt: int | None
    witness_alpha_nonopt: int | None
    verdict: str
    optimality_terms: tuple[tuple[int, Number], ...]
    nonoptimality_terms: tuple[tuple[int, Number], ...]


@dataclass(frozen=True)
class CandidateCheck:
    """A closed-form candidate argmax set next to the brute-force answer."""

    candidates: tuple[int, ...]
    brute_force_alpha: int
    agrees: bool


def _root(base: float, alpha: int) -> float:
    return base ** (1.0 / (alpha - 1))


def _pick(terms: Sequence[tuple[int, Number]], best) -> ThresholdResult:
    if not terms:
        empty = math.inf if best is min else -math.inf
        return ThresholdResult(empty, None, ())
    value, witness = terms[0][1], terms[0][0]
    for alpha, term in terms[1:]:
        if best(term, value) == term and term != value:
            value, witness = term, alpha
    return ThresholdResult(value, witness, tuple(terms))


def _validate_fixed(nodes: int, m: int, r_max: int) -> range:
    if nodes < 2 or m < 1:
        raise ConfigurationError(f"need nodes >= 2 and m >= 1, got nodes={nodes}, m={m}")
    if not 2 <= r_max <= nodes:
        raise ConfigurationError(f"need 2 <= r_max <= nodes, got r_max={r_max}, nodes={nodes}")
    # alternatives must be realizable: alpha <= r and m*alpha <= N
    return range(2, min(r_max, nodes // m) + 1)


def _validate_prob(m: int, alpha_max: int) -> range:
    if m < 1:
        raise ConfigurationError(f"need m >= 1, got m={m}")
    if alpha_max < 2:
        raise ConfigurationError(f"need alpha_max >= 2, got {alpha_max}")
    return range(2, alpha_max + 1)


def fixed_scaled_optimality_threshold(nodes: int, m: int, r_max: int) -> ThresholdResult:
    """Minimal spreading is optimal under fixed-size access and scaled-exponential
    service for every r <= threshold.

    threshold = min over alpha of 1 + (N-1) / (alpha C(m alpha - 1, alpha - 1))^{1/(alpha-1)}
    """
    terms: list[tuple[int, Number]] = []
    for alpha in _validate_fixed(nodes, m, r_max):
        base = alpha * binomial(m * alpha - 1, alpha - 1)
        if alpha == 2:
            terms.append((alpha, 1 + Fraction(nodes - 1, base)))
        else:
            terms.append((alpha, 1.0 + (nodes - 1) / _root(float(base), alpha)))
    return _pick(terms, min)


def fixed_scaled_nonoptimality_threshold(nodes: int, m: int, r_max: int) -> ThresholdResult:
    """Minimal spreading is non-optimal under fixed-size access and
    scaled-exponential service for every r >= threshold.

    threshold = min over alpha of (m/(m alpha - alpha + 1))^{1/(alpha-1)} (N-alpha+1) + alpha - 1
    """
    terms: list[tuple[int, Number]] = []
    for alpha in _validate_fixed(nodes, m, r_max):
        kernel = Fraction(m, m * alpha - alpha + 1)
        if alpha == 2:
            terms.append((alpha, kernel * (nodes - 1) + 1))
        else:
            terms.append((alpha, _root(float(kernel), alpha) * (nodes - alpha + 1) + alpha - 1))
    return _pick(terms, min)


def prob_scaled_optimality_threshold(m: int, alpha_max: int) -> ThresholdResult:
    """Minimal spreading is optimal under probabilistic access and
    scaled-exponential service for every p >= threshold.

    threshold = max over alpha of 1 - 1 / (alpha C(m alpha - 1, alpha - 1))^{1/(alpha-1)}
    """
    terms: list[tuple[int, Number]] = []
    for alpha in _validate_prob(m, alpha_max):
        base = alpha * binomial(m * alpha - 1, alpha - 1)
        if alpha == 2:
            terms.append((alpha, 1 - Fraction(1, base)))
        else:
            terms.append((alpha, 1.0 - 1.0 / _root(float(base), alpha)))
    return _pick(terms, max)


def prob_scaled_nonoptimality_threshold(m: int, alpha_max: int) -> ThresholdResult:
    """Minimal spreading is non-optimal under probabilistic access and
    scaled-exponential service for every p <= threshold.

    threshold = max over alpha of 1 - (m/(m alpha - alpha + 1))^{1/(alpha-1)}
    """
    terms: list[tuple[int, Number]] = []
    for alpha in _validate_prob(m, alpha_max):
        kernel = Fraction(m, m * alpha - alpha + 1)
        if alpha == 2:
            terms.append((alpha, 1 - kernel))
        else:
            terms.append((alpha, 1.0 - _root(float(kernel), alpha)))
    return _pick(terms, max)


def _shifted_product(delta: float, mu: float) -> Fraction:
    if delta < 0 or mu <= 0:
        raise ConfigurationError(f"need delta >= 0 and mu > 0, got delta={delta}, mu={mu}")
    return Fraction(delta) * Fraction(mu)


def _t10_kernel(alpha: int, m: int, dm: Fraction) -> Fraction:
    return (dm + alpha) / (alpha * (dm * m + 1) * binomial(m * alpha - 1, alpha - 1))


def fixed_shifted_optimality_threshold(
    nodes: int, m: int, delta: float, mu: float, r_max: int
) -> ThresholdResult:
    """Minimal spreading is optimal under fixed-size access and
    shifted-exponential service for every r <= threshold.

    threshold = min over alpha of
        1 + ((dm+alpha)/(alpha (dm m + 1) C(m alpha - 1, alpha - 1)))^{1/(alpha-1)} (N-1),
    with dm = delta*mu.
    """
    dm = _shifted_product(delta, mu)
    terms: list[tuple[int, Number]] = []
    for alpha in _validate_fixed(nodes, m, r_max):
        kernel = _t10_kernel(alpha, m, dm)
        if alpha == 2:
            terms.append((alpha, 1 + kernel * (nodes - 1)))
        else:
            terms.append((alpha, 1.0 + _root(float(kernel), alpha) * (nodes - 1)))
    return _pick(terms, min)


def fixed_shifted_nonoptimality_threshold(
    nodes: int, m: int, delta: float, mu: float, r_max: int
) -> ThresholdResult:
    """Minimal spreading is non-optimal under fixed-size access and
    shifted-exponential service for every r >= threshold.

    threshold = min over alpha of
        ((dm m K + m alpha^2)/(alpha (dm+1) K))^{1/(alpha-1)} (N-alpha+1) + alpha - 1,
    with K = m alpha - alpha + 1 and dm = delta*mu.
    """
    dm = _shifted_product(delta, mu)
    terms: list[tuple[int, Number]] = []
    for alpha in _validate_fixed(nodes, m, r_max):
        K = m * alpha - alpha + 1
        kernel = (dm * m * K + m * alpha * alpha) / (alpha * (dm + 1) * K)
        if alpha == 2:
            terms.append((alpha, kernel * (nodes - 1) + 1))
        else:
            terms.append((alpha, _root(float(kernel), alpha) * (nodes - alpha + 1) + alpha - 1))
    return _pick(terms, min)


def prob_shifted_optimality_threshold(
    m: int, delta: float, mu: float, alpha_max: int
) -> ThresholdResult:
    """Minimal spreading is optimal under probabilistic access and
    shifted-exponential service for every p >= threshold.

    threshold = max over alpha of
        1 - ((dm+alpha)/(alpha (dm m + 1) C(m alpha - 1, alpha - 1)))^{1/(alpha-1)},
    with dm = delta*mu.
    """
    dm = _shifted_product(delta, mu)
    terms: list[tuple[int, Number]] = []
    for alpha in _validate_prob(m, alpha_max):
        kernel = _t10_kernel(alpha, m, dm)
        if alpha == 2:
            terms.append((alpha, 1 - kernel))
        else:
            terms.append((alpha, 1.0 - _root(float(kernel), alpha)))
    return _pick(terms, max)


def prob_shifted_nonoptimality_threshold(
    m: int, delta: float, mu: float, alpha_max: int
) -> ThresholdResult:
    """Minimal spreading is non-optimal under probabilistic access and
    shifted-exponential service for every p <= threshold.

    threshold = max over alpha of
        1 - (m (dm K + alpha^2)/(alpha (dm+1) K))^{1/(alpha-1)},
    with K = m alpha - alpha + 1 and dm = delta*mu. Per-alpha terms may be
    negative (vacuous); if every term is negative the condition is
    unreachable and the threshold is reported as 0 with no witness.
    """
    dm = _shifted_product(delta, mu)
    terms: list[tuple[int, Number]] = []
    for alpha in _validate_prob(m, alpha_max):
        K = m * alpha - alpha + 1
        kernel = m * (dm * K + alpha * alpha) / (alpha * (dm + 1) * K)
        if alpha == 2:
            terms.append((alpha, 1 - kernel))
        else:
            terms.append((alpha, 1.0 - _root(float(kernel), alpha)))
    result = _pick(terms, max)
    if result.witness_alpha is not None and result.value < 0:
        return ThresholdResult(Fraction(0), None, result.terms)
    return result


def classify(
    access: AccessModel,
    service: ServiceModel,
    m: int,
    *,
    nodes: int | None = None,
    alpha_max: int | None = None,
) -> ConditionReport:
    """Evaluate both certificates for one configuration and classify it.

    Fixed-size access compares r against the thresholds (optimal iff
    r <= optimality threshold, non-optimal iff r >= non-optimality
    threshold); probabilistic access compares p the other way around
    (optimal iff p >= threshold, non-optimal iff p <= threshold). Anything
    in between is indeterminate: the certificates are sufficient conditions
    with a gap, not a partition.
    """
    if not isinstance(service, (ScaledExp, ShiftedExp)):
        raise ConfigurationError(
            "conditions cover the scaled and shifted exponential service models, "
            f"not {service.kind!r}"
        )
    if m < 1:
        raise ConfigurationError(f"need m >= 1, got m={m}")

    if isinstance(access, FixedSize):
        if nodes is None:
            raise ConfigurationError("fixed-size conditions need the node count")
        r = access.r
        if not 2 <= r <= nodes:
            raise ConfigurationError(f"need 2 <= r <= nodes, got r={r}, nodes={nodes}")
        if isinstance(service, ScaledExp):
            opt = fixed_scaled_optimality_threshold(nodes, m, r)
            non = fixed_scaled_nonoptimality_threshold(nodes, m, r)
        else:
            opt = fixed_shifted_optimality_threshold(nodes, m, service.delta, service.mu, r)
            non = fixed_shifted_nonoptimality_threshold(nodes, m, service.delta, service.mu, r)
        if r <= opt.value:
            verdict = "optimal"
        elif non.witness_alpha is not None and r >= non.value:
            verdict = "non-optimal"
        else:
            verdict = "indeterminate"
    else:
        p = access.p
        amax = alpha_max if alpha_max is not None else (nodes // m if nodes else 20)
        if isinstance(service, ScaledExp):
            opt = prob_scaled_optimality_threshold(m, amax)
            non = prob_scaled_nonoptimality_threshold(m, amax)
        else:
            opt = prob_shifted_optimality_threshold(m, service.delta, service.mu, amax)
            non = prob_shifted_nonoptimality_threshold(m, service.delta, service.mu, amax)
        if opt.witness_alpha is not None and p >= opt.value:
            verdict = "optimal"
        elif non.witness_alpha is not None and p <= non.value:
            verdict = "non-optimal"
        else:
            verdict = "indeterminate"

    return ConditionReport(
        access_kind=access.kind,
        service_kind=service.kind,
        optimality_threshold=opt.value,
        nonoptimality_threshold=non.value,
        witness_alpha_opt=opt.witness_alpha,
        witness_alpha_nonopt=non.witness_alpha,
        verdict=verdict,
        optimality_terms=opt.terms,
        nonoptimality_terms=non.terms,
    )


def scaled_prob_m1_optimal_range(p: float) -> tuple[float, float]:
    """Bracket the optimal alpha of the m = 1 probabilistic scaled-exponential rate.

    The rate is mu * alpha * (1-p)^alpha / H_alpha; its integer argmax lies in
    [max(1, (1/2 - p)/p), ceil((1-p)/p)]. The raw bracket ends are returned.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"p must lie strictly in (0, 1), got {p}")
    return (0.5 - p) / p, (1.0 - p) / p


def constant_prob_m1_optimal_alpha(p: float, alpha_max: int | None = None) -> CandidateCheck:
    """Candidate optimal alphas for m = 1 probabilistic constant-time service.

    The stated candidate set is {floor(p/(1-p)), ceil(p/(1-p))} clamped below
    at 1. Direct evaluation of the rate (alpha/delta)(1-p)^alpha disagrees
    with it for some p (the true peak sits near -1/ln(1-p)), so the result
    carries the brute-force argmax and an agreement flag instead of trusting
    either side. p is interpreted at its decimal face value so ratios like
    0.8/0.2 resolve to exact integers.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"p must lie in [0, 1), got {p}")
    exact_p = Fraction(str(p))
    ratio = exact_p / (1 - exact_p)
    cands = sorted({math.floor(ratio), math.ceil(ratio)} & set(range(1, math.ceil(ratio) + 2)))
    if not cands:
        cands = [1]
    if alpha_max is None:
        alpha_max = 64 if p == 0 else max(4, math.ceil(2.0 / p))
    best_alpha, best_value = 1, 0.0
    for alpha in range(1, alpha_max + 1):
        value = alpha * (1.0 - p) ** alpha
        if value > best_value:
            best_alpha, best_value = alpha, value
    return CandidateCheck(tuple(cands), best_alpha, best_alpha in cands)


def optimal_alpha_profile(
    service: ServiceModel,
    nodes: int,
    m: int,
    parameter: str,
    values: Sequence[int | float],
    objective: str = "service_rate",
) -> tuple[list[tuple[int | float, int]], bool]:
    """Trace the brute-force optimal alpha along an access sweep.

    Returns the (value, alpha_star) profile in the given order plus whether
    the alpha_star sequence is nondecreasing. The monotonicity is an
    empirical probe (conjectured, not proven), so callers should report it
    rather than assert it.
    """
    profile: list[tuple[int | float, int]] = []
    for value in values:
        if parameter == "r":
            access: AccessModel = FixedSize(int(value))
        elif parameter == "p":
            access = Probabilistic(float(value))
        else:
            raise ConfigurationError(f"profile parameter must be 'r' or 'p', got {parameter!r}")
        profile.append((value, optimal_alpha(access, service, nodes, m, objective).alpha_star))
    stars = [alpha for _, alpha in profile]
    return profile, all(a <= b for a, b in zip(stars, stars[1:]))
