"""Aggregate metrics over the access distribution.

Service rate mu_s(alpha) = sum_phi P(phi) * mu_s(alpha | phi) and recovery
probability P_s(alpha) = P(phi >= alpha), their closed forms for minimal
(alpha = 1) and maximal (alpha = r) spreading, exhaustive optimal-alpha
search, and parameter sweeps.

Every exact expectation goes through one NumPy kernel, expected_metrics: for
a set of alphas it builds each alpha's access pmf once (one column of a phi x
alpha matrix, see numerics), weights it by the conditional rates, and sums
each column in phi order, so both metrics come from one pmf pass and a
scalar service_rate is bit-identical to the matching row of a search. Alphas
are processed in chunks of at most _CHUNK_CELLS matrix cells, which bounds
the kernel's memory at any N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, InfeasibleError, NoClosedFormError
from .models import (
    AccessModel,
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ServiceModel,
    ShiftedExp,
    SystemConfig,
)
from .numerics import binomial, harmonic, harmonic_gaps

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
    "sweep",
]

# phi x alpha cells per kernel chunk (512 KiB per float64 matrix)
_CHUNK_CELLS = 1 << 16


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

    The rates are None when service is None. Every alpha must admit an
    allocation (1 <= alpha, m*alpha <= nodes). The cost is O(nodes) per alpha.
    """
    alphas = np.asarray(list(alphas), dtype=np.int64)
    rates = None if service is None else np.zeros(len(alphas))
    recovery = np.zeros(len(alphas))
    if not len(alphas):
        return rates, recovery
    largest = int(alphas.max())
    SystemConfig(nodes, m, int(alphas.min()))  # validates nodes, m and every alpha
    SystemConfig(nodes, m, largest)
    step = max(1, _CHUNK_CELLS // (m * largest + 1))
    for start in range(0, len(alphas), step):
        alpha = alphas[start:start + step]
        _, _, probs = access.rows(nodes, m * alpha)
        phi = np.arange(probs.shape[0])[:, None]
        reached = phi >= alpha
        # cumsum adds in phi order whatever the chunk shape; its last row is the sum
        weights = np.where(reached, probs, 0.0)
        recovery[start:start + step] = np.cumsum(weights, axis=0)[-1]
        if service is not None:
            gap = np.where(reached, harmonic_gaps(phi, np.minimum(alpha, phi)), 1.0)
            with np.errstate(under="ignore"):  # tail terms below 1e-308 are 0
                terms = weights * service.rate(alpha, gap)
            rates[start:start + step] = np.cumsum(terms, axis=0)[-1]
    return rates, np.minimum(recovery, 1.0)


def access_pmf(config: SystemConfig, access: AccessModel) -> list[tuple[int, float]]:
    """Return (phi, P(phi)) pairs over the access model's full phi support."""
    lo, hi, probs = access.rows(config.nodes, [config.data_nodes])
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
    SystemConfig(nodes, m, 1)  # validates positivity and m <= nodes
    if isinstance(service, ShiftedExp):
        raise NoClosedFormError("no closed form for mu_s(1) under shifted-exponential service")
    if isinstance(access, FixedSize):
        r = access.r
        if r > nodes:
            raise ConfigurationError(f"r={r} exceeds nodes={nodes}")
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

    Only fixed-size access is covered, and rm <= N is required for the
    allocation to exist.
    """
    if not isinstance(access, FixedSize):
        raise NoClosedFormError("maximal spreading closed form needs fixed-size access")
    r = access.r
    if r > nodes:
        raise ConfigurationError(f"r={r} exceeds nodes={nodes}")
    if r * m > nodes:
        raise InfeasibleError(
            f"alpha=r={r} needs m*r={m * r} data nodes but the system has only {nodes}"
        )
    if isinstance(service, ScaledExp):
        ratio = Fraction(binomial(r * m, r), binomial(nodes, r)) / harmonic(r)
        return service.mu * r * float(ratio)
    if isinstance(service, ConstantTime):
        return r * binomial(r * m, r) / (service.delta * binomial(nodes, r))
    raise NoClosedFormError(f"no maximal spreading closed form for {service.kind} service")


def feasible_alphas(nodes: int, m: int, access: AccessModel | None = None) -> range:
    """Return the alpha values admitting an allocation (and a nonempty phi range)."""
    if nodes < 1 or m < 1:
        raise ConfigurationError(f"nodes and m must be positive, got nodes={nodes}, m={m}")
    if nodes < m:
        raise InfeasibleError(f"no feasible alpha for nodes={nodes}, m={m}")
    upper = nodes // m
    if isinstance(access, FixedSize):
        upper = min(upper, access.r)
    return range(1, upper + 1)


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

    With alphas=None the feasible range is used. An explicit alpha list may
    exceed r under fixed-size access (those rows carry zero metrics); alphas
    with no allocation at all (m*alpha > nodes) are skipped with a warning.
    """
    kept = []
    for alpha in feasible_alphas(nodes, m, access) if alphas is None else alphas:
        if m * alpha > nodes:
            warnings.warn(f"skipping alpha={alpha}: m*alpha={m * alpha} exceeds nodes={nodes}",
                          stacklevel=2)
            continue
        kept.append(alpha)
    rates, recovery = expected_metrics(access, service, nodes, m, kept)
    return _rows(kept, rates, recovery)


def sweep(
    parameter: str,
    values: Iterable[int | float],
    *,
    service: ServiceModel,
    nodes: int,
    access: AccessModel | None = None,
    m: int | None = None,
    alphas: Iterable[int] | None = None,
) -> list[tuple[int | float, tuple[SweepRow, ...]]]:
    """Return (value, rows) per grid point for one swept parameter.

    parameter is "m", "r", "p", or "alpha"; the remaining parameters stay
    fixed. values may be lazy; they are read one at a time. Infeasible grid
    points are skipped with a warning instead of failing, so figure-style
    sweeps stay total. An r or p sweep whose nodes and m admit no alpha at
    all fails before its first point, since every point would be skipped.
    """
    if parameter in ("r", "p") and m is not None:
        feasible_alphas(nodes, m)
    alpha_list = None if alphas is None else tuple(alphas)
    out: list[tuple[int | float, tuple[SweepRow, ...]]] = []
    for value in values:
        try:
            if parameter == "m":
                if access is None:
                    raise ConfigurationError("sweeping m needs a fixed access model")
                rows = alpha_table(access, service, nodes, int(value), alpha_list)
            elif parameter == "r":
                if m is None:
                    raise ConfigurationError("sweeping r needs a fixed m")
                rows = alpha_table(FixedSize(int(value)), service, nodes, m, alpha_list)
            elif parameter == "p":
                if m is None:
                    raise ConfigurationError("sweeping p needs a fixed m")
                rows = alpha_table(Probabilistic(float(value)), service, nodes, m, alpha_list)
            elif parameter == "alpha":
                if access is None or m is None:
                    raise ConfigurationError("sweeping alpha needs fixed access and m")
                rows = alpha_table(access, service, nodes, m, (int(value),))
                if not rows:
                    continue  # the warning was already emitted
            else:
                raise ConfigurationError(f"unknown sweep parameter {parameter!r}")
        except InfeasibleError as exc:
            warnings.warn(f"skipping {parameter}={value}: {exc}", stacklevel=2)
            continue
        out.append((value, rows))
    return out
