"""Minimal-spreading (non-)optimality certificates.

Each threshold answers one question about the minimal spreading allocation
(alpha = 1) under a large-file service model: below/above which access
intensity is it certainly the best (or certainly beatable)? Fixed-size
thresholds bound the accessed-node count r; probabilistic thresholds bound
the failure probability p. Every threshold is an extremum of per-alpha terms
over candidate alternatives alpha >= 2; the witness records which alpha
attains it.

Only the alpha = 2 term (integral exponent) is a rational, an exact Fraction,
so verdict comparisons at boundary values like r <= 7.5 never hinge on float
rounding. Every other term starts from its kernel written as one integer
numerator over one integer denominator (delta*mu enters as its exact ratio),
rounded once to a float, whose root is taken in floats. Each extremum scans
the float terms among themselves and compares the winner with the exact term
once; Python compares a float with a Fraction exactly, so the pick is the one
an all-exact scan would make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .errors import ConfigurationError
from .models import AccessModel, FixedSize, ScaledExp, ServiceModel, ShiftedExp
from .numerics import binomial

__all__ = [
    "ConditionReport",
    "ThresholdResult",
    "classify",
    "fixed_scaled_nonoptimality_threshold",
    "fixed_scaled_optimality_threshold",
    "fixed_shifted_nonoptimality_threshold",
    "fixed_shifted_optimality_threshold",
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


def _terms(alphas: range, kernel, term) -> list[tuple[int, Number]]:
    """Return (alpha, term(alpha, root)) for each alpha.

    kernel(alpha) is an exact ratio (num, den) and root its (alpha-1)-th root.
    At alpha = 2 the root is the kernel itself, kept as an exact Fraction;
    elsewhere num / den is rounded once (int/int true division rounds
    correctly, as float(Fraction) does) and the root is taken in floats. A
    ratio beyond the float range (the spreading kernel passes 1.8e308 from
    alpha = 511, 372, 316 for m = 2, 3, 4) has its root taken through the
    logarithms of the exact integers instead.
    """
    out: list[tuple[int, Number]] = []
    for alpha in alphas:
        num, den = kernel(alpha)
        if alpha == 2:
            root = Fraction(num, den)
        else:
            try:
                root = (num / den) ** (1.0 / (alpha - 1))
            except OverflowError:
                root = math.exp((math.log(num) - math.log(den)) / (alpha - 1))
        out.append((alpha, term(alpha, root)))
    return out


def _pick(terms: Sequence[tuple[int, Number]], best) -> ThresholdResult:
    """Return the first term attaining the extremum best (min or max).

    The float terms (alpha >= 3) are scanned among themselves and their
    extremum is compared with the exact alpha = 2 term once; min and max keep
    the first of equal terms, so this picks the same term as one exact scan.
    """
    if not terms:
        empty = math.inf if best is min else -math.inf
        return ThresholdResult(empty, None, ())
    first, rest = terms[0], terms[1:]
    if rest:
        first = best(first, best(rest, key=itemgetter(1)), key=itemgetter(1))
    return ThresholdResult(first[1], first[0], tuple(terms))


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


def _spreading_kernel(m: int):
    """alpha C(m alpha - 1, alpha - 1) as a ratio over 1."""
    return lambda alpha: (alpha * binomial(m * alpha - 1, alpha - 1), 1)


def _scaled_kernel(m: int):
    """m / (m alpha - alpha + 1)."""
    return lambda alpha: (m, m * alpha - alpha + 1)


def fixed_scaled_optimality_threshold(nodes: int, m: int, r_max: int) -> ThresholdResult:
    """Minimal spreading is optimal under fixed-size access and scaled-exponential
    service for every r <= threshold.

    threshold = min over alpha of 1 + (N-1) / (alpha C(m alpha - 1, alpha - 1))^{1/(alpha-1)}
    """
    terms = _terms(_validate_fixed(nodes, m, r_max), _spreading_kernel(m),
                   lambda alpha, root: 1 + (nodes - 1) / root)
    return _pick(terms, min)


def fixed_scaled_nonoptimality_threshold(nodes: int, m: int, r_max: int) -> ThresholdResult:
    """Minimal spreading is non-optimal under fixed-size access and
    scaled-exponential service for every r >= threshold.

    threshold = min over alpha of (m/(m alpha - alpha + 1))^{1/(alpha-1)} (N-alpha+1) + alpha - 1
    """
    terms = _terms(_validate_fixed(nodes, m, r_max), _scaled_kernel(m),
                   lambda alpha, root: root * (nodes - alpha + 1) + alpha - 1)
    return _pick(terms, min)


def prob_scaled_optimality_threshold(m: int, alpha_max: int) -> ThresholdResult:
    """Minimal spreading is optimal under probabilistic access and
    scaled-exponential service for every p >= threshold.

    threshold = max over alpha of 1 - 1 / (alpha C(m alpha - 1, alpha - 1))^{1/(alpha-1)}
    """
    terms = _terms(_validate_prob(m, alpha_max), _spreading_kernel(m),
                   lambda alpha, root: 1 - 1 / root)
    return _pick(terms, max)


def prob_scaled_nonoptimality_threshold(m: int, alpha_max: int) -> ThresholdResult:
    """Minimal spreading is non-optimal under probabilistic access and
    scaled-exponential service for every p <= threshold.

    threshold = max over alpha of 1 - (m/(m alpha - alpha + 1))^{1/(alpha-1)}
    """
    terms = _terms(_validate_prob(m, alpha_max), _scaled_kernel(m),
                   lambda alpha, root: 1 - root)
    return _pick(terms, max)


def _shifted_product(delta: float, mu: float) -> tuple[int, int]:
    """Return dm = delta*mu as an exact integer ratio (a, b)."""
    if delta < 0 or mu <= 0:
        raise ConfigurationError(f"need delta >= 0 and mu > 0, got delta={delta}, mu={mu}")
    dm = Fraction(delta) * Fraction(mu)
    return dm.numerator, dm.denominator


def _t10_kernel(m: int, delta: float, mu: float):
    """(dm+alpha)/(alpha (dm m + 1) C(m alpha - 1, alpha - 1)) with dm = a/b."""
    a, b = _shifted_product(delta, mu)
    return lambda alpha: (a + alpha * b,
                          alpha * (a * m + b) * binomial(m * alpha - 1, alpha - 1))


def _shifted_nonopt_kernel(m: int, delta: float, mu: float):
    """m (dm K + alpha^2)/(alpha (dm+1) K) with K = m alpha - alpha + 1 and dm = a/b."""
    a, b = _shifted_product(delta, mu)

    def kernel(alpha: int) -> tuple[int, int]:
        K = m * alpha - alpha + 1
        return m * (a * K + alpha * alpha * b), alpha * (a + b) * K

    return kernel


def fixed_shifted_optimality_threshold(
    nodes: int, m: int, delta: float, mu: float, r_max: int
) -> ThresholdResult:
    """Minimal spreading is optimal under fixed-size access and
    shifted-exponential service for every r <= threshold.

    threshold = min over alpha of
        1 + ((dm+alpha)/(alpha (dm m + 1) C(m alpha - 1, alpha - 1)))^{1/(alpha-1)} (N-1),
    with dm = delta*mu.
    """
    kernel = _t10_kernel(m, delta, mu)
    terms = _terms(_validate_fixed(nodes, m, r_max), kernel,
                   lambda alpha, root: 1 + root * (nodes - 1))
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
    kernel = _shifted_nonopt_kernel(m, delta, mu)
    terms = _terms(_validate_fixed(nodes, m, r_max), kernel,
                   lambda alpha, root: root * (nodes - alpha + 1) + alpha - 1)
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
    kernel = _t10_kernel(m, delta, mu)
    terms = _terms(_validate_prob(m, alpha_max), kernel, lambda alpha, root: 1 - root)
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
    kernel = _shifted_nonopt_kernel(m, delta, mu)
    terms = _terms(_validate_prob(m, alpha_max), kernel, lambda alpha, root: 1 - root)
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

    Probabilistic alternatives run up to alpha_max, by default nodes // m;
    one of the two must be given. When that default leaves no alpha >= 2,
    alpha = 1 is the only allocation and the verdict is optimal with no
    terms, as under fixed-size access; an explicit alpha_max below 2 is an
    error.
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
        if nodes is not None and nodes < 1:
            raise ConfigurationError(f"need nodes >= 1, got nodes={nodes}")
        if nodes is None and alpha_max is None:
            raise ConfigurationError("probabilistic conditions need the node count or alpha_max")
        amax = alpha_max if alpha_max is not None else nodes // m
        if alpha_max is None and amax < 2:
            # no alternative alpha fits in the nodes (as under fixed-size access
            # with 2m > N): both extrema run over no terms and alpha = 1 stands
            opt = non = _pick((), max)
        elif isinstance(service, ScaledExp):
            opt = prob_scaled_optimality_threshold(m, amax)
            non = prob_scaled_nonoptimality_threshold(m, amax)
        else:
            opt = prob_shifted_optimality_threshold(m, service.delta, service.mu, amax)
            non = prob_shifted_nonoptimality_threshold(m, service.delta, service.mu, amax)
        if p >= opt.value:
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
