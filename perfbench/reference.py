"""Reference values for the benchmark's output checks, computed apart from dss_alloc.

Nothing here imports dss_alloc. Two paths compute the service rate
mu_s(alpha) = sum_phi P(phi) mu_s(alpha | phi) and the recovery probability
P_s(alpha) = P(phi >= alpha):

- exact rationals (Fraction, math.comb, exact harmonic numbers) for
  fixed-size access at any N and for probabilistic access at N <= 40;
- mpmath at MP_DIGITS significant digits for probabilistic access beyond
  N = 40, where exact powers of p make rationals slow (18 s at N = 1000
  against 0.5 s).

Model parameters are read at their decimal face value, so p = 0.3 means
3/10. The paper's closed forms and anchor values are written out by hand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

__all__ = [
    "ALPHA_STAR_SCALED_R10",
    "EXACT_PROB_MAX_NODES",
    "MP_DIGITS",
    "THRESHOLD_ANCHORS",
    "exact_metrics",
    "metrics",
    "minimal_spreading_rate",
    "mp_metrics",
    "pmf",
    "recovery_probability",
]

EXACT_PROB_MAX_NODES = 40
MP_DIGITS = 40

# Certificate thresholds at N=40, m=2 (scaled mu=1, shifted delta=3, mu=1),
# keyed (access, service, certificate). Each is the alpha=2 term:
#   fixed/scaled optimality      1 + (N-1)/(2*3)             = 15/2
#   fixed/scaled non-optimality  (2/3)(N-1) + 1              = 27
#   prob/scaled optimality       1 - 1/(2*3)                 = 5/6
#   fixed/shifted optimality     1 + (3+2)/(2*7*3) * (N-1)   = 79/14
#   prob/shifted optimality      1 - (3+2)/(2*7*3)           = 37/42
THRESHOLD_ANCHORS = {
    ("fixed", "scaled", "optimality"): Fraction(15, 2),
    ("fixed", "scaled", "nonoptimality"): Fraction(27),
    ("prob", "scaled", "optimality"): Fraction(5, 6),
    ("fixed", "shifted", "optimality"): Fraction(79, 14),
    ("prob", "shifted", "optimality"): Fraction(37, 42),
}

# Optimal alpha for N=40, fixed-size r=10, scaled mu=1, by m.
ALPHA_STAR_SCALED_R10 = {1: 1, 2: 1, 3: 3, 4: 10}


def _exact(value: float) -> Fraction:
    return Fraction(repr(value))


@lru_cache(maxsize=None)
def _harmonic_exact(n: int) -> tuple[Fraction, ...]:
    values = [Fraction(0)]
    for i in range(1, n + 1):
        values.append(values[-1] + Fraction(1, i))
    return tuple(values)


def pmf(nodes: int, data: int, access: tuple) -> dict[int, Fraction]:
    """Return the exact access pmf {phi: P(phi)} over its support."""
    if access[0] == "fixed":
        r = access[1]
        total = math.comb(nodes, r)
        return {phi: Fraction(math.comb(data, phi) * math.comb(nodes - data, r - phi), total)
                for phi in range(max(0, r - (nodes - data)), min(r, data) + 1)}
    p = _exact(access[1])
    return {phi: math.comb(data, phi) * (1 - p) ** phi * p ** (data - phi)
            for phi in range(data + 1)}


def _conditional_rate(service: tuple, alpha: int, gap, num):
    """mu_s(alpha | phi) from the harmonic gap H_phi - H_{phi-alpha}."""
    kind = service[0]
    if kind == "small":
        return num(service[1]) / gap
    if kind == "scaled":
        return alpha * num(service[1]) / gap
    if kind == "shifted":
        delta, mu = num(service[1]), num(service[2])
        return alpha * mu / (delta * mu + alpha * gap)
    if kind == "constant":
        return alpha / num(service[1])
    raise ValueError(f"unknown service {service!r}")


def exact_metrics(nodes: int, m: int, alpha: int, access: tuple,
                  service: tuple | None) -> tuple[Fraction, Fraction]:
    """Return (service rate, recovery probability) as exact rationals.

    The rate is 0 when service is None.
    """
    harmonic = _harmonic_exact(m * alpha)
    rate = recovery = Fraction(0)
    for phi, prob in pmf(nodes, m * alpha, access).items():
        if phi < alpha or not prob:
            continue
        recovery += prob
        if service is not None:
            gap = harmonic[phi] - harmonic[phi - alpha]
            rate += prob * _conditional_rate(service, alpha, gap, _exact)
    return rate, recovery


def mp_metrics(nodes: int, m: int, alpha: int, access: tuple,
               service: tuple | None) -> tuple[float, float]:
    """Return (service rate, recovery probability) of probabilistic access by mpmath."""
    if access[0] != "prob":
        raise ValueError("the mpmath path covers probabilistic access only")
    data = m * alpha
    with mpmath.workdps(MP_DIGITS):
        num = lambda value: mpmath.mpf(repr(value))  # noqa: E731
        p = num(access[1])
        q = 1 - p
        harmonic = [mpmath.mpf(0)]
        for i in range(1, data + 1):
            harmonic.append(harmonic[-1] + mpmath.mpf(1) / i)
        rate = recovery = mpmath.mpf(0)
        for phi in range(alpha, data + 1):
            prob = mpmath.binomial(data, phi) * q ** phi * p ** (data - phi)
            recovery += prob
            if service is not None:
                gap = harmonic[phi] - harmonic[phi - alpha]
                rate += prob * _conditional_rate(service, alpha, gap, num)
        return float(rate), float(recovery)


def metrics(nodes: int, m: int, alpha: int, access: tuple,
            service: tuple | None = None) -> tuple[float, float]:
    """Return the reference (service rate, recovery probability) as floats."""
    if access[0] == "prob" and nodes > EXACT_PROB_MAX_NODES:
        return mp_metrics(nodes, m, alpha, access, service)
    rate, recovery = exact_metrics(nodes, m, alpha, access, service)
    return float(rate), float(recovery)


def recovery_probability(nodes: int, m: int, alpha: int, access: tuple) -> float:
    """Return P_s(alpha) by a second route, quick enough for a whole alpha range.

    Fixed-size access sums the hypergeometric numerators as exact integers
    over their common denominator C(N, r); probabilistic access beyond N = 40
    takes the binomial tail as a regularized incomplete beta function,
    P(Bin(n, q) >= k) = I_q(k, n - k + 1), in mpmath.
    """
    data = m * alpha
    if access[0] == "fixed":
        r = access[1]
        numerator = sum(math.comb(data, phi) * math.comb(nodes - data, r - phi)
                        for phi in range(alpha, min(r, data) + 1))
        return float(Fraction(numerator, math.comb(nodes, r)))
    if nodes <= EXACT_PROB_MAX_NODES:
        return float(exact_metrics(nodes, m, alpha, access, None)[1])
    with mpmath.workdps(MP_DIGITS):
        q = 1 - mpmath.mpf(repr(access[1]))
        return float(mpmath.betainc(alpha, data - alpha + 1, 0, q, regularized=True))


def minimal_spreading_rate(access: tuple, service: tuple, nodes: int, m: int) -> Fraction:
    """The paper's closed form of mu_s(1) for small- or scaled-exponential service.

    Fixed-size access gives mu*m*r/N; probabilistic access gives mu*m*(1-p).
    """
    if service[0] not in ("small", "scaled"):
        raise ValueError("the closed form covers small- and scaled-exponential service")
    mu = _exact(service[1])
    if access[0] == "fixed":
        return mu * m * access[1] / nodes
    return mu * m * (1 - _exact(access[1]))
