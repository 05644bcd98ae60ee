"""Minimal-spreading (non-)optimality certificates.

classify answers one question about the minimal spreading allocation
(alpha = 1) under a large-file service model: is it certainly the best,
certainly beatable, or neither? Each certificate is a threshold on the
access intensity (the accessed-node count r under fixed-size access, the
failure probability p under probabilistic access): an extremum of per-alpha
terms over the candidate alternatives alpha >= 2, whose witness records which
alpha attains it. _KERNELS states every formula.

Only the alpha = 2 term (integral exponent) is a rational, an exact Fraction,
so verdict comparisons at boundary values like r <= 7.5 never hinge on float
rounding. Every other term starts from its kernel written as one integer
numerator over one integer denominator (delta*mu enters as its exact ratio),
rounded once to a float, whose root is taken in floats. Each extremum is
one running scan in floats that meets the exact term only on a tie with its
rounded value, so every pick is the one an all-exact scan would make.

The terms depend on (service, m, nodes) and alpha, never on r or p, and r
only cuts the list to a prefix. So one table per system holds every term up
to top = min(nodes // m, alpha_max) (alpha_max alone without nodes) and,
for each prefix length, the index of its first extremal term. A memo
(_MEMO, see memo for its policy) keeps the tables, keyed by (fixed-size?,
service, m, nodes under fixed-size access, top), with the bound
_table_bytes(top), and a call slices its prefix and reads both picks. A
table over the entry cap is the same table, built to the call's own
alternatives and not kept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Iterable, Sequence

from .errors import ConfigurationError
from .memo import ByteLRU
from .models import AccessModel, FixedSize, ScaledExp, ServiceModel, ShiftedExp, feasible_alphas
from .numerics import spread_binomials

__all__ = [
    "ConditionReport",
    "classify",
    "scaled_prob_m1_optimal_range",
]

Number = Fraction | float


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


# The certificates of each service, for m copies over N nodes. With
# K = m alpha - alpha + 1, C = C(m alpha - 1, alpha - 1) and dm = delta*mu = a/b,
# each entry holds the (optimality, non-optimality) kernel of alpha as an exact
# ratio (num, den), and whether the optimality term divides by its root:
#
#   scaled-exp    optimality  alpha C                                (divides)
#                 non-opt.    m / K
#   shifted-exp   optimality  (dm + alpha) / (alpha (dm m + 1) C)
#                 non-opt.    m (dm K + alpha^2) / (alpha (dm + 1) K)
#
# With root = kernel^{1/(alpha-1)}, the thresholds are
#
#   fixed-size      optimal iff r <= min_alpha 1 + (N-1) root   (divides: 1 + (N-1)/root)
#                   beaten  iff r >= min_alpha root (N-alpha+1) + alpha - 1
#   probabilistic   optimal iff p >= max_alpha 1 - root         (divides: 1 - 1/root)
#                   beaten  iff p <= max_alpha 1 - root
#
# over 2 <= alpha <= min(r, N // m, alpha_max) (fixed-size) or
# min(N // m, alpha_max) (probabilistic), each cap taken when it is given.
# C is stepped from one alpha to the next (numerics.spread_binomials) and
# handed to each optimality kernel.
# A probabilistic non-optimality term may be negative (vacuous); if every one
# is, the condition is unreachable and its threshold is 0 with no witness.
_KERNELS = {
    ScaledExp: (
        lambda m, a, b, alpha, c: (alpha * c, 1),
        lambda m, a, b, alpha: (m, m * alpha - alpha + 1),
        True,
    ),
    ShiftedExp: (
        lambda m, a, b, alpha, c: (a + alpha * b, alpha * (a * m + b) * c),
        lambda m, a, b, alpha: (m * (a * (m * alpha - alpha + 1) + alpha * alpha * b),
                                alpha * (a + b) * (m * alpha - alpha + 1)),
        False,
    ),
}


_MEMO = ByteLRU()


def _table_bytes(top: int) -> int:
    """Return an upper bound on the bytes of the table of alpha = 2, ..., top.

    Counted as CPython allocates them (in 16-byte units): 1,024 for the entry,
    its key and the exact alpha = 2 terms; per alternative, two (alpha, term)
    pairs, their floats and four tuple slots; past alpha = 256, where the
    small-int cache ends, two alphas and two picks more.
    """
    return 1024 + 224 * (top - 1) + 128 * max(0, top - 256)


def _terms(alphas: range, kernels: Iterable[tuple[int, int]],
           term) -> tuple[tuple[int, Number], ...]:
    """Return (alpha, term(alpha, root)) for each alpha.

    kernels yields each alpha's kernel as an exact ratio (num, den); root is
    its (alpha-1)-th root.
    At alpha = 2 the root is the kernel itself, kept as an exact Fraction;
    elsewhere num / den is rounded once (int/int true division rounds
    correctly, as float(Fraction) does) and the root is taken in floats. A
    ratio beyond the float range (the spreading kernel passes 1.8e308 from
    alpha = 511, 372, 316 for m = 2, 3, 4) has its root taken through the
    logarithms of the exact integers instead.
    """
    out: list[tuple[int, Number]] = []
    for alpha, (num, den) in zip(alphas, kernels):
        if alpha == 2:
            root = Fraction(num, den)
        else:
            try:
                root = (num / den) ** (1.0 / (alpha - 1))
            except OverflowError:
                root = math.exp((math.log(num) - math.log(den)) / (alpha - 1))
        out.append((alpha, term(alpha, root)))
    return tuple(out)


def _prefix_picks(terms: Sequence[tuple[int, Number]], better) -> tuple[int, ...]:
    """Return, for each prefix terms[:k] (k >= 1), the index of its first extremal term.

    better is operator.lt (minimum) or operator.gt (maximum). One running
    scan keeps the first of equal terms. Only terms[0] (alpha = 2) is a
    Fraction: a float is compared with its correctly rounded float value,
    and with the Fraction itself only on a tie there (a float strictly on
    one side of that value is on the same side of the Fraction), so every
    pick is the one an exact scan makes.
    """
    if not terms:
        return ()
    exact = terms[0][1]
    best, at, picks = float(exact), 0, [0]
    for index in range(1, len(terms)):
        term = terms[index][1]
        if better(term, best) or (not at and term == best and better(term, exact)):
            best, at = term, index
        picks.append(at)
    return tuple(picks)


def _table(service: ServiceModel, m: int, nodes: int | None, fixed: bool,
           count: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Return the certificate table of alpha = 2, ..., count + 1.

    It is (optimality terms, non-optimality terms, _prefix_picks of each in
    the same order); nodes enters the fixed-size terms only.
    """
    opt_kernel, non_kernel, divides = _KERNELS[type(service)]
    dm = Fraction(getattr(service, "delta", 0)) * Fraction(service.mu)  # scaled-exp: no shift
    a, b = dm.numerator, dm.denominator
    if fixed:
        better = operator.lt
        opt_term = ((lambda alpha, root: 1 + (nodes - 1) / root) if divides
                    else (lambda alpha, root: 1 + (nodes - 1) * root))
        non_term = lambda alpha, root: root * (nodes - alpha + 1) + alpha - 1
    else:
        better = operator.gt
        opt_term = (lambda alpha, root: 1 - 1 / root) if divides else (lambda alpha, root: 1 - root)
        non_term = lambda alpha, root: 1 - root
    alphas = range(2, count + 2)
    spread = islice(spread_binomials(m), 1, None)  # C(m alpha - 1, alpha - 1) from alpha = 2
    opt_terms = _terms(alphas, map(partial(opt_kernel, m, a, b), alphas, spread), opt_term)
    non_terms = _terms(alphas, map(partial(non_kernel, m, a, b), alphas), non_term)
    return opt_terms, non_terms, _prefix_picks(opt_terms, better), _prefix_picks(non_terms, better)


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

    The alternatives are feasible_alphas(nodes, m, access) from alpha = 2,
    capped at alpha_max when it is given: at most min(nodes // m, alpha_max),
    and r under fixed-size access. Without nodes, fixed-size access is an
    error and probabilistic alternatives run up to alpha_max, which must then
    be given. When no alpha >= 2 is left, alpha = 1 is the only allocation
    and the verdict is optimal with no terms; an explicit alpha_max below 2
    is an error, and so is r < 2. A system without any allocation raises as
    feasible_alphas does.
    """
    if type(service) not in _KERNELS:
        raise ConfigurationError(
            "conditions cover the scaled and shifted exponential service models, "
            f"not {service.kind!r}"
        )
    fixed = isinstance(access, FixedSize)
    if nodes is not None:
        last = len(feasible_alphas(nodes, m, access))  # the checks, and r under fixed-size
        top = nodes // m
    elif fixed:
        raise ConfigurationError("fixed-size conditions need the node count")
    elif alpha_max is None:
        raise ConfigurationError("probabilistic conditions need the node count or alpha_max")
    elif m < 1:
        raise ConfigurationError(f"need m >= 1, got m={m}")
    else:
        last = top = alpha_max
    if alpha_max is not None:
        if alpha_max < 2:
            raise ConfigurationError(f"need alpha_max >= 2, got {alpha_max}")
        top = min(top, alpha_max)
    if fixed:
        x = access.r
        if x < 2:
            raise ConfigurationError(f"need r >= 2, got r={x}")
    else:
        x = access.p
    count = min(last, top) - 1  # the alternatives alpha = 2, ..., count + 1

    # the whole table to top is stored when it fits an entry, else this call's
    # alternatives are built alone; either way r cuts a prefix
    size = _table_bytes(top)
    opt_terms, non_terms, opt_picks, non_picks = (
        _MEMO.fetch((fixed, service, m, nodes if fixed else None, top), size,
                    lambda: (size, *_table(service, m, nodes, fixed, top - 1)))
        or _table(service, m, nodes, fixed, count))
    opt_terms, non_terms = opt_terms[:count], non_terms[:count]
    if count:
        opt_witness, opt = opt_terms[opt_picks[count - 1]]
        non_witness, non = non_terms[non_picks[count - 1]]
    else:  # the empty extremum
        opt = non = math.inf if fixed else -math.inf
        opt_witness = non_witness = None
    if not fixed and non_witness is not None and non < 0:
        non, non_witness = Fraction(0), None
    if (x <= opt) if fixed else (x >= opt):
        verdict = "optimal"
    elif non_witness is not None and (x >= non if fixed else x <= non):
        verdict = "non-optimal"
    else:
        verdict = "indeterminate"

    return ConditionReport(
        access_kind=access.kind,
        service_kind=service.kind,
        optimality_threshold=opt,
        nonoptimality_threshold=non,
        witness_alpha_opt=opt_witness,
        witness_alpha_nonopt=non_witness,
        verdict=verdict,
        optimality_terms=opt_terms,
        nonoptimality_terms=non_terms,
    )


def scaled_prob_m1_optimal_range(p: float) -> tuple[float, float]:
    """Bracket the optimal alpha of the m = 1 probabilistic scaled-exponential rate.

    The rate is mu * alpha * (1-p)^alpha / H_alpha; its integer argmax lies in
    [max(1, (1/2 - p)/p), ceil((1-p)/p)]. The raw bracket ends are returned.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"p must lie strictly in (0, 1), got {p}")
    return (0.5 - p) / p, (1.0 - p) / p
