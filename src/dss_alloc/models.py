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
from typing import ClassVar, Iterator

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
    "feasible_alphas",
]


@dataclass(frozen=True)
class SystemConfig:
    """A quasi-uniform allocation: m*alpha of the nodes each hold 1/alpha of the file.

    No rate formula depends on the file's block count: the per-chunk cost is
    folded into the service model's scaling.

    This is the one statement of the allocation rules, checked in this order:
    nodes, m and alpha are positive (ConfigurationError), nodes < 2^63
    (ConfigurationError), m <= nodes and m*alpha <= nodes (InfeasibleError).
    """

    nodes: int
    m: int
    alpha: int

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.m < 1:
            raise ConfigurationError(
                f"nodes and m must be positive, got nodes={self.nodes}, m={self.m}")
        if self.alpha < 1:
            raise ConfigurationError(f"alpha must be positive, got alpha={self.alpha}")
        if self.nodes >= 2**63:  # data-node counts fill int64 arrays
            raise ConfigurationError(f"nodes must be below 2^63, got nodes={self.nodes}")
        if self.m > self.nodes:
            raise InfeasibleError(f"no feasible alpha for nodes={self.nodes}, m={self.m}")
        if self.m * self.alpha > self.nodes:
            raise InfeasibleError(
                f"alpha={self.alpha} needs m*alpha={self.m * self.alpha} data nodes "
                f"but the system has only {self.nodes}"
            )

    @property
    def data_nodes(self) -> int:
        return self.m * self.alpha


def feasible_alphas(nodes: int, m: int, access: AccessModel | None = None) -> range:
    """Return the alphas 1, ..., nodes // m of every allocation of m copies over nodes.

    Under fixed-size access the range also stops at r, past which no access
    reaches alpha data nodes, and r <= nodes is checked. The range is never
    empty: a system without an allocation raises as SystemConfig(nodes, m, 1)
    does.
    """
    SystemConfig(nodes, m, 1)
    upper = nodes // m
    if isinstance(access, FixedSize):
        access.check_nodes(nodes)
        upper = min(upper, access.r)
    return range(1, upper + 1)


# Past these sizes NumPy's O(1)-per-draw samplers (HRUA for the
# hypergeometric, BTPE for the binomial) beat one NumPy pass per step or per
# word: on a 2-CPU Xeon, 88 vs 104 ns/draw at k = 20 steps but 176 vs 74 at
# k = 40, and 110 vs 172 at D = 80 trials but 220 vs 80 at D = 160.
_SELECTION_STEPS = 16
_BYTE_LANES = 64
# trials per byte-Bernoulli pass: bounds its raw bytes and its tie flags at
# 256 KiB each (8,192 trials raised the simulate benchmark's peak RSS by about 1 MB)
_PASS_TRIALS = 4096
# eight 0/1 bytes of a word, times this, leave their sum in the top byte
_BYTE_SUM = 0x0101010101010101


def _byte_bernoulli_counts(trials: int, q: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Return n Binomial(trials, q) counts for trials <= 64 and 0 < q < 1.

    In each pass of up to _PASS_TRIALS trials, lane l of trial j is byte
    l % 8 of raw word (l // 8, j). The padding lanes of the last word are
    masked rather than compared, since any byte value can tie floor(256 q).
    One scan lists the pass's tied bytes in memory order, and the pass
    draws one uniform per tie in that order.
    """
    cut = 256.0 * q
    below = int(cut)
    words = -(-trials // 8)
    tail = trials - 8 * (words - 1)
    phi = np.empty(n, np.uint8)
    for start in range(0, n, _PASS_TRIALS):
        shape = (words, min(_PASS_TRIALS, n - start), 8)
        lanes = rng.bit_generator.random_raw(words * shape[1]).view(np.uint8).reshape(shape)
        ties = lanes == below
        hits = np.less(lanes, below, out=lanes.view(bool))  # in place: the bytes are spent
        hits[-1, :, tail:] = False
        ties[-1, :, tail:] = False
        tied = np.flatnonzero(ties)
        hits.reshape(-1)[tied] = rng.random(tied.size) < cut - below
        # each byte of the word sum counts at most 8 hits, so no byte carries
        sums = hits.view(np.uint64).reshape(shape[:2]).sum(axis=0, dtype=np.uint64)
        phi[start:start + shape[1]] = (sums * _BYTE_SUM) >> 56
    return phi


@dataclass(frozen=True)
class FixedSize:
    """Access reaches a uniformly random r-subset of the nodes."""

    r: int
    kind: ClassVar[str] = "fixed-size"

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ConfigurationError(f"r must be positive, got {self.r}")

    def check_nodes(self, nodes: int) -> None:
        """Raise ConfigurationError unless one access fits the system: r <= nodes."""
        if self.r > nodes:
            raise ConfigurationError(f"r={self.r} exceeds nodes={nodes}")

    def rows(self, nodes: int, data, floor=0) -> Iterator[tuple]:
        """Yield (start, hi, P) chunks: the pmf of phi for each data-node count, one column each.

        See numerics.hypergeometric_rows for the layout and the floor.
        """
        self.check_nodes(nodes)
        return hypergeometric_rows(nodes, data, self.r, floor)

    def draw(self, nodes: int, data: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n values of phi: the data nodes among a uniform r-subset of the nodes.

        phi = |A & B| for the data nodes A and the accessed subset B. Its law
        is symmetric in |A| and |B|, and replacing a set by its complement
        maps phi affinely, so each set larger than N/2 is complemented and
        the smaller of the two sizes, k = min(D, r, N - D, N - r), sets the
        work: k steps of selection sampling (Knuth, TAOCP vol. 2, Algorithm
        S), each one exact bounded-integer pass over all n trials. Above
        _SELECTION_STEPS steps it falls back to rng.hypergeometric.
        """
        r = self.r
        if min(data, r, nodes - data, nodes - r) > _SELECTION_STEPS:
            return rng.hypergeometric(data, nodes - data, r, size=n)
        flip_a, flip_b = 2 * data > nodes, 2 * r > nodes
        a = nodes - data if flip_a else data
        b = nodes - r if flip_b else r
        steps, quota = min(a, b), max(a, b)
        dtype = np.int16 if nodes < 1 << 15 else np.int64
        # the i-th of `steps` fixed items joins the quota-subset w.p. left/(N - i)
        left = np.full(n, quota, dtype)
        for i in range(steps):
            left -= rng.integers(0, nodes - i, n, dtype=dtype) < left
        shared = quota - left  # |A' & B'| for the possibly complemented sets
        if not flip_a and not flip_b:
            return shared
        if not flip_b:
            return r - shared  # |A^c & B| = r - phi
        if not flip_a:
            return data - shared  # |A & B^c| = D - phi
        return shared + (data + r - nodes)  # |A^c & B^c| = N - D - r + phi


@dataclass(frozen=True)
class Probabilistic:
    """Every node independently fails to respond with probability p."""

    p: float
    kind: ClassVar[str] = "probabilistic"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"p must lie in [0, 1], got {self.p}")

    def rows(self, nodes: int, data, floor=0) -> Iterator[tuple]:
        """Yield (start, hi, P) chunks: the pmf of phi for each data-node count, one column each.

        See numerics.binomial_rows for the layout and the floor.
        """
        return binomial_rows(data, 1.0 - self.p, floor)

    def draw(self, nodes: int, data: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n values of phi: Binomial(data, 1 - p) responsive data nodes.

        Each of the D Bernoulli(q) trials, q = 1 - p, is one random byte:
        a success below Q = floor(256 q), a failure above, and a tie (byte
        == Q) settled by one uniform double against 256 q - Q, which is
        exact in float64. Eight trials share a raw 64-bit word and are
        counted in one multiply; one scan per pass finds the ties, about
        one byte in 256 (_byte_bernoulli_counts). When D > _BYTE_LANES or
        q is 0 or 1 it falls back to rng.binomial.
        """
        q = 1.0 - self.p
        if data > _BYTE_LANES or q in (0.0, 1.0):
            return rng.binomial(data, q, size=n)
        return _byte_bernoulli_counts(data, q, n, rng)


AccessModel = FixedSize | Probabilistic


def _require_finite_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


# Every service model has three methods, for spreading alpha and phi responsive
# data nodes:
#   rate(alpha, gap)                mu_s(alpha | phi) from the harmonic gap H_phi - H_{phi-alpha};
#                                   alpha and gap may be floats or broadcastable NumPy arrays,
#                                   so the scalar conditional rate and the expectation kernel
#                                   evaluate one form
#   bounds(alpha, phi, m)           the analytic (lower, upper) envelope of that rate
#   order_stat(alpha, phi, n, rng)  n completion times, each the alpha-th smallest of phi
#                                   per-node times, drawn directly: the simulator's sampler


def _unit_exp_order_stat(alpha: int, phi: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n alpha-th order statistics of phi iid Exp(1) times.

    That order statistic has the law of -log(1 - B) with B ~ Beta(alpha,
    phi - alpha + 1) (David & Nagaraja, Order Statistics, 2003). Writing B
    through its gamma pair, 1 - B = G_b / (G_a + G_b), gives log1p(G_a / G_b),
    which keeps the upper tail that log1p(-B) would cancel.
    """
    g_a = rng.standard_gamma(alpha, n)
    g_a /= rng.standard_gamma(phi - alpha + 1, n)
    return np.log1p(g_a, out=g_a)


@dataclass(frozen=True)
class SmallExp:
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
        times = _unit_exp_order_stat(alpha, phi, n, rng)
        times /= self.mu
        return times


@dataclass(frozen=True)
class ScaledExp:
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
        times = _unit_exp_order_stat(alpha, phi, n, rng)
        times /= alpha * self.mu
        return times


@dataclass(frozen=True)
class ShiftedExp:
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
        times = _unit_exp_order_stat(alpha, phi, n, rng)
        times /= self.mu
        times += self.delta / alpha  # IEEE addition commutes: the bits of delta/alpha + times
        return times


@dataclass(frozen=True)
class ConstantTime:
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
