"""Storage, access, and service model types plus the conditional service rate.

The storage system spreads an MDS-coded file over m*alpha of its nodes; a
request recovers the file iff it reaches alpha of them (phi denotes how many
it reached). Given phi, the completion time is the alpha-th order statistic
of the per-node service times, and the conditional service rate is the
reciprocal of its mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, InfeasibleError
from .numerics import binomial_rows, harmonic_gap, hypergeometric_rows

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
]


@dataclass(frozen=True)
class SystemConfig:
    """A quasi-uniform allocation: m*alpha of the nodes each hold 1/alpha of the file.

    No rate formula depends on the file's block count: the per-chunk cost is
    folded into the service model's scaling.
    """

    nodes: int
    m: int
    alpha: int

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.m < 1 or self.alpha < 1:
            raise ConfigurationError(
                "nodes, m, and alpha must be positive, got "
                f"nodes={self.nodes}, m={self.m}, alpha={self.alpha}"
            )
        if self.m * self.alpha > self.nodes:
            raise InfeasibleError(
                f"alpha={self.alpha} needs m*alpha={self.m * self.alpha} data nodes "
                f"but the system has only {self.nodes}"
            )

    @property
    def data_nodes(self) -> int:
        return self.m * self.alpha


class _Model:
    """The dict form shared by every access and service model."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        """Return the JSON form: the kind, then the fields in constructor order."""
        return {"kind": self.kind, **vars(self)}


@dataclass(frozen=True)
class FixedSize(_Model):
    """Access reaches a uniformly random r-subset of the nodes."""

    r: int
    kind: ClassVar[str] = "fixed-size"

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ConfigurationError(f"r must be positive, got {self.r}")

    def rows(self, nodes: int, data) -> tuple:
        """Return (lo, hi, P): the pmf of phi for each data-node count, one column each."""
        if self.r > nodes:
            raise ConfigurationError(f"r={self.r} exceeds nodes={nodes}")
        return hypergeometric_rows(nodes, data, self.r)

    def draw(self, nodes: int, data: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n values of phi: the data nodes among a uniform r-subset of the nodes."""
        return rng.hypergeometric(data, nodes - data, self.r, size=n)


@dataclass(frozen=True)
class Probabilistic(_Model):
    """Every node independently fails to respond with probability p."""

    p: float
    kind: ClassVar[str] = "probabilistic"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"p must lie in [0, 1], got {self.p}")

    def rows(self, nodes: int, data) -> tuple:
        """Return (lo, hi, P): the pmf of phi for each data-node count, one column each."""
        return binomial_rows(data, 1.0 - self.p)

    def draw(self, nodes: int, data: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n values of phi: Binomial(data, 1 - p) responsive data nodes."""
        return rng.binomial(data, 1.0 - self.p, size=n)


AccessModel = FixedSize | Probabilistic


def _require_finite_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


# Every service model has four methods, for spreading alpha and phi responsive
# data nodes:
#   rate(alpha, gap)                mu_s(alpha | phi) from the harmonic gap H_phi - H_{phi-alpha};
#                                   alpha and gap may be floats or broadcastable NumPy arrays,
#                                   so the scalar conditional rate and the expectation kernel
#                                   evaluate one form
#   bounds(alpha, phi, m)           the analytic (lower, upper) envelope of that rate
#   order_stat(alpha, phi, n, rng)  n completion times, each the alpha-th smallest of phi
#                                   per-node times, drawn directly: the simulator's sampler
#   sample(alpha, shape, rng)       per-node service times, an array of the given shape;
#                                   the brute-force oracle that order_stat is tested against


def _unit_exp_order_stat(alpha: int, phi: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n alpha-th order statistics of phi iid Exp(1) times.

    That order statistic has the law of -log(1 - B) with B ~ Beta(alpha,
    phi - alpha + 1) (David & Nagaraja, Order Statistics, 2003). Writing B
    through its gamma pair, 1 - B = G_b / (G_a + G_b), gives log1p(G_a / G_b),
    which keeps the upper tail that log1p(-B) would cancel.
    """
    g_a = rng.standard_gamma(alpha, n)
    g_b = rng.standard_gamma(phi - alpha + 1, n)
    return np.log1p(g_a / g_b)


@dataclass(frozen=True)
class SmallExp(_Model):
    """Small-file regime: a node serves its whole chunk set in Exp(mu) time.

    rate mu/gap, bounds (0, mu*phi).
    """

    mu: float = 1.0
    kind: ClassVar[str] = "small-exp"

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)

    def rate(self, alpha, gap):
        return self.mu / gap

    def bounds(self, alpha: int, phi: int, m: int) -> tuple[float, float]:
        return 0.0, self.mu * phi

    def order_stat(self, alpha: int, phi: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return _unit_exp_order_stat(alpha, phi, n, rng) / self.mu

    def sample(self, alpha: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.mu, shape)


@dataclass(frozen=True)
class ScaledExp(_Model):
    """Large-file regime: per-node time is Exp(alpha*mu), mean 1/(alpha*mu).

    rate alpha*mu/gap, bounds (mu*(phi-alpha+1), mu*phi).
    """

    mu: float = 1.0
    kind: ClassVar[str] = "scaled-exp"

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)

    def rate(self, alpha, gap):
        return alpha * self.mu / gap

    def bounds(self, alpha: int, phi: int, m: int) -> tuple[float, float]:
        return self.mu * (phi - alpha + 1), self.mu * phi

    def order_stat(self, alpha: int, phi: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return _unit_exp_order_stat(alpha, phi, n, rng) / (alpha * self.mu)

    def sample(self, alpha: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / (alpha * self.mu), shape)


@dataclass(frozen=True)
class ShiftedExp(_Model):
    """Large-file regime with startup cost: per-node time is delta/alpha + Exp(mu).

    rate alpha*mu / (delta*mu + alpha*gap), bounds
    (alpha*mu*(phi-alpha+1) / (delta*mu*(m*alpha-alpha+1) + alpha^2), mu*phi / (delta*mu + alpha)).
    delta = 0 reduces to the small-file exponential model exactly.
    """

    delta: float
    mu: float = 1.0
    kind: ClassVar[str] = "shifted-exp"

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)
        if not 0 <= self.delta < math.inf:
            raise ConfigurationError(f"delta must be finite and non-negative, got {self.delta}")

    def rate(self, alpha, gap):
        return alpha * self.mu / (self.delta * self.mu + alpha * gap)

    def bounds(self, alpha: int, phi: int, m: int) -> tuple[float, float]:
        dm = self.delta * self.mu
        lower = alpha * self.mu * (phi - alpha + 1) / (dm * (m * alpha - alpha + 1) + alpha * alpha)
        return lower, self.mu * phi / (dm + alpha)

    def order_stat(self, alpha: int, phi: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.delta / alpha + _unit_exp_order_stat(alpha, phi, n, rng) / self.mu

    def sample(self, alpha: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return self.delta / alpha + rng.exponential(1.0 / self.mu, shape)


@dataclass(frozen=True)
class ConstantTime(_Model):
    """Deterministic service: a node serves its chunk set in exactly delta/alpha.

    rate alpha/delta whatever phi, so both bounds equal it.
    """

    delta: float
    kind: ClassVar[str] = "constant"

    def __post_init__(self) -> None:
        # delta > 0 strictly: the rate alpha/delta is undefined at 0
        _require_finite_positive("delta", self.delta)

    def rate(self, alpha, gap):
        return alpha / self.delta

    def bounds(self, alpha: int, phi: int, m: int) -> tuple[float, float]:
        rate = alpha / self.delta
        return rate, rate

    def order_stat(self, alpha: int, phi: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.delta / alpha)

    def sample(self, alpha: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return np.full(shape, self.delta / alpha)


ServiceModel = SmallExp | ScaledExp | ShiftedExp | ConstantTime


def conditional_rate(service: ServiceModel, alpha: int, phi: int) -> float:
    """Return mu_s(alpha | phi), the service rate given phi responsive data nodes.

    See the service models' rate for the four formulas. By convention the
    rate is 0 when phi < alpha (recovery impossible).
    """
    if alpha < 1 or phi < 0:
        raise ConfigurationError(f"need alpha >= 1 and phi >= 0, got alpha={alpha}, phi={phi}")
    if phi < alpha:
        return 0.0
    return float(service.rate(alpha, harmonic_gap(phi, alpha)))


def conditional_rate_bounds(
    service: ServiceModel, alpha: int, phi: int, m: int
) -> tuple[float, float]:
    """Return the analytic (lower, upper) envelope of mu_s(alpha | phi).

    See the service models' bounds for the four envelopes.
    """
    if alpha < 1 or not alpha <= phi <= m * alpha:
        raise ConfigurationError(
            f"need 1 <= alpha <= phi <= m*alpha, got alpha={alpha}, phi={phi}, m={m}"
        )
    return service.bounds(alpha, phi, m)
