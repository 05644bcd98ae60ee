"""Storage, access, and service model types plus the conditional service rate.

The storage system spreads an MDS-coded file over m*alpha of its nodes; a
request recovers the file iff it reaches alpha of them (phi denotes how many
it reached). Given phi, the completion time is the alpha-th order statistic
of the per-node service times, and the conditional service rate is the
reciprocal of its mean.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

from .errors import ConfigurationError, InfeasibleError
from .numerics import harmonic_gap

__all__ = [
    "AccessModel",
    "ConstantTime",
    "FixedSize",
    "Probabilistic",
    "ScaledExp",
    "ServiceModel",
    "ShiftedExp",
    "SmallExp",
    "SystemConfig",
    "conditional_rate",
    "conditional_rate_bounds",
    "rate_from_gap",
]


@dataclass(frozen=True)
class SystemConfig:
    """A quasi-uniform allocation: m*alpha of the nodes hold blocks/alpha blocks each.

    blocks (the file's block count) is metadata only; every rate formula is
    block-count-free because the per-chunk cost is folded into the service
    model's scaling.
    """

    nodes: int
    m: int
    alpha: int
    blocks: int | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.m < 1 or self.alpha < 1:
            raise ConfigurationError(
                "nodes, m, and alpha must be positive, got "
                f"nodes={self.nodes}, m={self.m}, alpha={self.alpha}"
            )
        if self.blocks is not None and self.blocks < 1:
            raise ConfigurationError(f"blocks must be positive when given, got {self.blocks}")
        if self.m * self.alpha > self.nodes:
            raise InfeasibleError(
                f"alpha={self.alpha} needs m*alpha={self.m * self.alpha} data nodes "
                f"but the system has only {self.nodes}"
            )
        if self.blocks is not None and self.blocks % self.alpha:
            warnings.warn(
                f"blocks={self.blocks} is not divisible by alpha={self.alpha}; "
                "rates are unaffected (no formula uses the block count)",
                stacklevel=2,
            )

    @property
    def data_nodes(self) -> int:
        return self.m * self.alpha


@dataclass(frozen=True)
class FixedSize:
    """Access reaches a uniformly random r-subset of the nodes."""

    r: int
    kind: ClassVar[str] = "fixed-size"

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ConfigurationError(f"r must be positive, got {self.r}")


@dataclass(frozen=True)
class Probabilistic:
    """Every node independently fails to respond with probability p."""

    p: float
    kind: ClassVar[str] = "probabilistic"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"p must lie in [0, 1], got {self.p}")


AccessModel = FixedSize | Probabilistic


def _require_finite_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SmallExp:
    """Small-file regime: a node serves its whole chunk set in Exp(mu) time."""

    mu: float
    kind: ClassVar[str] = "small-exp"

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)


@dataclass(frozen=True)
class ScaledExp:
    """Large-file regime: per-node time is Exp(alpha*mu), mean 1/(alpha*mu)."""

    mu: float
    kind: ClassVar[str] = "scaled-exp"

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)


@dataclass(frozen=True)
class ShiftedExp:
    """Large-file regime with startup cost: per-node time is delta/alpha + Exp(mu).

    delta = 0 reduces to the small-file exponential model exactly.
    """

    delta: float
    mu: float
    kind: ClassVar[str] = "shifted-exp"

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)
        if not 0 <= self.delta < math.inf:
            raise ConfigurationError(f"delta must be finite and non-negative, got {self.delta}")


@dataclass(frozen=True)
class ConstantTime:
    """Deterministic service: a node serves its chunk set in exactly delta/alpha."""

    delta: float
    kind: ClassVar[str] = "constant"

    def __post_init__(self) -> None:
        # delta > 0 strictly: the rate alpha/delta is undefined at 0
        _require_finite_positive("delta", self.delta)


ServiceModel = SmallExp | ScaledExp | ShiftedExp | ConstantTime


def rate_from_gap(service: ServiceModel, alpha, gap):
    """Return mu_s(alpha | phi) from the harmonic gap H_phi - H_{phi-alpha}.

    The mean completion time is the gap scaled by the service model:

        small-exp    mu / gap
        scaled-exp   alpha*mu / gap
        shifted-exp  alpha*mu / (delta*mu + alpha*gap)
        constant     alpha / delta

    alpha and gap may be floats or broadcastable NumPy arrays; the scalar
    conditional rate and the expectation kernel both evaluate this one form.
    """
    if isinstance(service, SmallExp):
        return service.mu / gap
    if isinstance(service, ScaledExp):
        return alpha * service.mu / gap
    if isinstance(service, ShiftedExp):
        return alpha * service.mu / (service.delta * service.mu + alpha * gap)
    if isinstance(service, ConstantTime):
        return alpha / service.delta
    raise ConfigurationError(f"unknown service model {service!r}")


def conditional_rate(service: ServiceModel, alpha: int, phi: int) -> float:
    """Return mu_s(alpha | phi), the service rate given phi responsive data nodes.

    See rate_from_gap for the four models. By convention the rate is 0 when
    phi < alpha (recovery impossible).
    """
    if alpha < 1 or phi < 0:
        raise ConfigurationError(f"need alpha >= 1 and phi >= 0, got alpha={alpha}, phi={phi}")
    if phi < alpha:
        return 0.0
    return float(rate_from_gap(service, alpha, harmonic_gap(phi, alpha)))


def conditional_rate_bounds(
    service: ServiceModel, alpha: int, phi: int, m: int
) -> tuple[float, float]:
    """Return the analytic (lower, upper) envelope of mu_s(alpha | phi).

        small-exp    (0, mu*phi)
        scaled-exp   (mu*(phi-alpha+1), mu*phi)
        shifted-exp  (alpha*mu*(phi-alpha+1) / (delta*mu*(m*alpha-alpha+1) + alpha^2),
                      mu*phi / (delta*mu + alpha))
        constant     (alpha/delta, alpha/delta)   [the rate is deterministic]
    """
    if alpha < 1 or not alpha <= phi <= m * alpha:
        raise ConfigurationError(
            f"need 1 <= alpha <= phi <= m*alpha, got alpha={alpha}, phi={phi}, m={m}"
        )
    if isinstance(service, SmallExp):
        return 0.0, service.mu * phi
    if isinstance(service, ScaledExp):
        return service.mu * (phi - alpha + 1), service.mu * phi
    if isinstance(service, ShiftedExp):
        dm = service.delta * service.mu
        lower = alpha * service.mu * (phi - alpha + 1) / (dm * (m * alpha - alpha + 1) + alpha * alpha)
        return lower, service.mu * phi / (dm + alpha)
    if isinstance(service, ConstantTime):
        rate = alpha / service.delta
        return rate, rate
    raise ConfigurationError(f"unknown service model {service!r}")
