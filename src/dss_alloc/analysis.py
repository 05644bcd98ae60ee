"""Aggregate metrics over the access distribution.

Service rate mu_s(alpha) = sum_phi P(phi) * mu_s(alpha | phi) and recovery
probability P_s(alpha) = P(phi >= alpha), their closed forms for minimal
(alpha = 1) and maximal (alpha = r) spreading, exhaustive optimal-alpha
search, and per-alpha tables (alpha_table), which the CLI's sweeps and the
figure presets call once per grid point.

Every exact expectation goes through one NumPy kernel, expected_metrics: for
a set of alphas it builds each alpha's access pmf once (one column of a phi x
alpha matrix, see numerics), weights it by the conditional rates, and sums
each column in phi order, so both metrics come from one pmf pass and a
scalar service_rate is bit-identical to the matching row of a search. The
access model hands the matrix over in chunks of consecutive alphas (numerics
owns their size), so the kernel's memory stays bounded at any N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, NoClosedFormError
from .models import (
    AccessModel,
    ConstantTime,
    FixedSize,
    ScaledExp,
    ServiceModel,
    ShiftedExp,
    SystemConfig,
    feasible_alphas,
)
from .numerics import binomial, harmonic_gaps

__all__ = [
    "OptimalResult",
    "SweepRow",
    "access_pmf",
    "alpha_table",
    "expected_metrics",
    "feasible_alphas",
    "maximal_spreading_rate",
    "minimal_spreading_rate",
    "optimal_alpha",
    "recovery_probability",
    "service_rate",
]


@dataclass(frozen=True)
class SweepRow:
    """Both metrics at one spreading parameter."""

    alpha: int
    service_rate: float
    recovery_probability: float


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of the exhaustive search over feasible alpha."""

    alpha_star: int
    value: float
    table: tuple[SweepRow, ...]


def expected_metrics(
    access: AccessModel,
    service: ServiceModel | None,
    nodes: int,
    m: int,
    alphas: Iterable[int],
) -> tuple[np.ndarray | None, np.ndarray]:
    """Return (service rates, recovery probabilities), one entry per alpha.

    The rates are None when service is None. The system (nodes, m, access)
    must pass feasible_alphas, even for an empty list, and every alpha must
    be an allocation, SystemConfig(nodes, m, alpha); alphas beyond r under
    fixed-size access are allowed and have zero metrics. The cost is
    O(nodes) per alpha.
    """
    alphas = np.asarray(list(alphas), dtype=np.int64)
    rates = None if service is None else np.zeros(len(alphas))
    recovery = np.zeros(len(alphas))
    if not len(alphas):
        feasible_alphas(nodes, m, access)  # what the checks below and rows make otherwise
        return rates, recovery
    SystemConfig(nodes, m, int(alphas.min()))  # validates nodes, m and every alpha
    SystemConfig(nodes, m, int(alphas.max()))
    start = 0
    for _, _, probs in access.rows(nodes, m * alphas):
        stop = start + probs.shape[1]
        alpha = alphas[start:stop]
        phi = np.arange(probs.shape[0])[:, None]
        reached = phi >= alpha
        # cumsum adds in phi order whatever the chunk shape; its last row is the sum
        weights = np.where(reached, probs, 0.0)
        recovery[start:stop] = np.cumsum(weights, axis=0)[-1]
        if service is not None:
            gap = np.where(reached, harmonic_gaps(phi, np.minimum(alpha, phi)), 1.0)
            # tail terms below 1e-308 are 0; overflow is caught by the check below
            with np.errstate(under="ignore", over="ignore", invalid="ignore"):
                terms = weights * service.rate(alpha, gap)
            rates[start:stop] = np.cumsum(terms, axis=0)[-1]
        start = stop
    if rates is not None and not np.isfinite(rates).all():
        params = " ".join(f"{name}={value}" for name, value in vars(service).items())
        raise ConfigurationError(f"service rates overflow float64 at {service.kind} {params}")
    return rates, np.minimum(recovery, 1.0)


def access_pmf(config: SystemConfig, access: AccessModel) -> list[tuple[int, float]]:
    """Return (phi, P(phi)) pairs over the access model's full phi support."""
    (lo, hi, probs), = access.rows(config.nodes, [config.data_nodes])
    return [(phi, float(probs[phi, 0])) for phi in range(int(lo[0]), int(hi[0]) + 1)]


def service_rate(config: SystemConfig, access: AccessModel, service: ServiceModel) -> float:
    """Return mu_s(alpha) = sum_phi P(phi) * mu_s(alpha | phi).

    Returns 0 when no reachable phi meets alpha (e.g. alpha > r under
    fixed-size access).
    """
    rates, _ = expected_metrics(access, service, config.nodes, config.m, [config.alpha])
    return float(rates[0])


def recovery_probability(config: SystemConfig, access: AccessModel) -> float:
    """Return P_s(alpha) = P(phi >= alpha)."""
    _, recovery = expected_metrics(access, None, config.nodes, config.m, [config.alpha])
    return float(recovery[0])


def minimal_spreading_rate(access: AccessModel, service: ServiceModel, nodes: int, m: int) -> float:
    """Return the closed-form mu_s(1) of the minimal spreading allocation.

        fixed-size + small/scaled exp   mu * m * r / N
        fixed-size + constant           (1 - C(N-m, r)/C(N, r)) / delta
        probabilistic + small/scaled    mu * m * (1 - p)
        probabilistic + constant        (1 - p^m) / delta

    The shifted-exponential model has no closed form (only bounds), which
    raises NoClosedFormError.
    """
    SystemConfig(nodes, m, 1)
    if isinstance(service, ShiftedExp):
        raise NoClosedFormError("no closed form for mu_s(1) under shifted-exponential service")
    if isinstance(access, FixedSize):
        access.check_nodes(nodes)
        r = access.r
        if isinstance(service, ConstantTime):
            miss = binomial(nodes - m, r) / binomial(nodes, r)  # access avoids all data nodes
            return (1.0 - miss) / service.delta
        return service.mu * m * r / nodes
    if isinstance(service, ConstantTime):
        return (1.0 - access.p ** m) / service.delta
    return service.mu * m * (1.0 - access.p)


def maximal_spreading_rate(access: AccessModel, service: ServiceModel, nodes: int, m: int) -> float:
    """Return the closed-form mu_s(r) of the maximal spreading allocation alpha = r.

        fixed-size + scaled exp   mu * r * C(rm, r) / (H_r * C(N, r))
        fixed-size + constant     r * C(rm, r) / (delta * C(N, r))

    Only fixed-size access is covered, and SystemConfig(nodes, m, r) must be
    an allocation.
    """
    if not isinstance(access, FixedSize):
        raise NoClosedFormError("maximal spreading closed form needs fixed-size access")
    feasible_alphas(nodes, m, access)
    r = access.r
    SystemConfig(nodes, m, r)
    if isinstance(service, ScaledExp):
        ratio = binomial(r * m, r) / binomial(nodes, r)  # the exact ratio, rounded once
        return service.mu * r * ratio / float(harmonic_gaps(r, r))
    if isinstance(service, ConstantTime):
        return r * binomial(r * m, r) / (service.delta * binomial(nodes, r))
    raise NoClosedFormError(f"no maximal spreading closed form for {service.kind} service")


def optimal_alpha(
    access: AccessModel,
    service: ServiceModel,
    nodes: int,
    m: int,
    objective: str = "service_rate",
) -> OptimalResult:
    """Exhaustively search feasible alpha for the best objective value.

    objective is "service_rate" or "recovery_probability"; ties break toward
    the smallest alpha.
    """
    if objective not in ("service_rate", "recovery_probability"):
        raise ConfigurationError(f"unknown objective {objective!r}")
    alphas = feasible_alphas(nodes, m, access)
    rates, recovery = expected_metrics(access, service, nodes, m, alphas)
    values = rates if objective == "service_rate" else recovery
    best = int(np.argmax(values))  # the first maximum: ties break low
    return OptimalResult(alphas[best], float(values[best]), _rows(alphas, rates, recovery))


def _rows(alphas, rates, recovery) -> tuple[SweepRow, ...]:
    return tuple(SweepRow(alpha, rate, prob)
                 for alpha, rate, prob in zip(alphas, rates.tolist(), recovery.tolist()))


def alpha_table(
    access: AccessModel,
    service: ServiceModel,
    nodes: int,
    m: int,
    alphas: Iterable[int] | None = None,
) -> tuple[SweepRow, ...]:
    """Return one SweepRow per alpha.

    With alphas=None the range is feasible_alphas(nodes, m, access). An
    explicit list is checked as expected_metrics checks it: it may exceed r
    under fixed-size access (those rows carry zero metrics), but an alpha
    without an allocation (m*alpha > nodes) raises InfeasibleError.
    """
    alphas = feasible_alphas(nodes, m, access) if alphas is None else list(alphas)
    rates, recovery = expected_metrics(access, service, nodes, m, alphas)
    return _rows(alphas, rates, recovery)
