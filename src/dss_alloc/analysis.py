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
owns their size and layout), so the kernel's memory stays bounded at any N.
The kernel passes the alphas as the chunks' floor, so numerics hands over
each column from max(lo, alpha) up, anchored at max(alpha, mode), or as its
row lo alone, 0.0, with hi = lo < alpha if nothing of it lies at or above
alpha; a row keeps the full build's bits only where each column is short
and alpha is at most its mode (see numerics). The harmonic gaps count phi
from each column's first row and read it clamped to [alpha, hi], or at
max(hi, 1) in a column with hi < alpha: a row outside weighs 0, and needs
only a finite positive gap.

The kernel has two halves. The access half (_access_half: the pmf
weights, the recovery sums and the harmonic gaps) depends only on (access,
nodes, m, alphas); the service half weights the conditional rates and sums
them. The access half is kept in a memo (_MEMO, see memo for its policy)
keyed by (access, nodes, m, alpha bytes), with the bound _CELL_BYTES per
cell; a table over the entry cap streams chunk by chunk instead. An entry
is the recovery column, clipped to 1.0 and held as a tuple of Python floats,
plus the chunks, so every table over one system, under any service model,
hands out the same recovery floats; alpha_table and optimal_alpha put
them in their rows as they are, and expected_metrics copies them into a
fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

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
from .memo import ByteLRU
from .numerics import _column_sums, binomial, harmonic_gaps

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

# The memo's upfront bound per cell of a table: one weight and one gap.
_CELL_BYTES = 16
# A stored recovery probability: one float object (24 bytes) and its tuple slot.
_FLOAT_BYTES = 32
_MEMO = ByteLRU()


class SweepRow(NamedTuple):
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
    O(nodes) per alpha; a small table's access half comes from _MEMO, whose
    entry holds the recovery probabilities as floats: both arrays returned
    are the caller's own, fresh and writable.
    """
    rates, recovery = _metrics(access, service, nodes, m, alphas)
    return rates, np.array(recovery)


def _metrics(access, service, nodes, m, alphas) -> tuple[np.ndarray | None, tuple[float, ...]]:
    """Return expected_metrics' rates and its recovery probabilities as a tuple
    of floats, the memo entry's own on a stored table."""
    try:  # any of the kernel's arrays, from the alphas on, may not fit
        return _expected_metrics(access, service, nodes, m, alphas)
    except MemoryError:
        raise ConfigurationError(
            f"the alphas of nodes={nodes}, m={m} do not fit in memory") from None


def _expected_metrics(access, service, nodes, m, alphas):
    if isinstance(alphas, range):  # never listed; its bounds come without a pass
        bounds = sorted((alphas[0], alphas[-1])) if alphas else ()
        if len(alphas) >= 1 << 59:  # 4 EiB: near 2^63 bytes NumPy raises ValueError instead
            raise MemoryError
        alphas = np.arange(alphas.start, alphas.stop, alphas.step, dtype=np.int64)
    else:
        alphas = np.fromiter(alphas, dtype=np.int64)
        bounds = (int(alphas.min()), int(alphas.max())) if len(alphas) else ()
    rates = None if service is None else np.zeros(len(alphas))
    if not bounds:
        feasible_alphas(nodes, m, access)  # what the checks below and rows make otherwise
        return rates, ()
    lo, hi = bounds
    SystemConfig(nodes, m, lo)  # validates nodes, m and every alpha
    SystemConfig(nodes, m, hi)

    def build():  # the entry: its bytes (key included), the recovery floats, every chunk
        sums = np.zeros(len(alphas))
        chunks = tuple(_access_half(access, nodes, m, alphas, sums, True))
        arrays = [array for chunk in chunks for array in chunk[2:]]
        for array in arrays:
            array.flags.writeable = False
        return (alphas.nbytes + _FLOAT_BYTES * len(alphas) + sum(array.nbytes for array in arrays),
                _floats(sums), chunks)

    # each column is at most as tall as its data count m*alpha plus one
    stored = _MEMO.fetch((access, nodes, m, alphas.tobytes()),
                         (m * hi + 1) * len(alphas) * _CELL_BYTES, build)
    if stored is None:  # streamed chunk by chunk, as access.rows yields them
        sums = np.zeros(len(alphas))
        chunks = _access_half(access, nodes, m, alphas, sums, service is not None)
    else:
        recovery, chunks = stored
    for start, stop, weights, gap in chunks:
        if rates is not None:
            # tail terms below 1e-308 are 0; overflow is caught by the check below
            with np.errstate(under="ignore", over="ignore", invalid="ignore"):
                terms = weights * service.rate(alphas[start:stop], gap)
            rates[start:stop] = _column_sums(terms)
            del terms
        del weights, gap  # a stream keeps no chunk alive while the next one is built
    if rates is not None and not np.isfinite(rates).all():
        params = " ".join(f"{name}={value}" for name, value in vars(service).items())
        raise ConfigurationError(f"service rates overflow float64 at {service.kind} {params}")
    return rates, _floats(sums) if stored is None else recovery


def _floats(sums: np.ndarray) -> tuple[float, ...]:
    """The recovery probabilities: the column sums clipped to 1.0, as floats."""
    return tuple(np.minimum(sums, 1.0).tolist())


def _access_half(access: AccessModel, nodes: int, m: int, alphas: np.ndarray,
                 recovery: np.ndarray, gaps: bool) -> Iterator[tuple]:
    """Yield (start, stop, weights, gap) per chunk of access.rows, filling recovery.

    The chunk's columns are alphas[start:stop], each built from the floor
    alpha (see numerics), so row i of column c holds phi = first[c] + i and
    weights, the chunk's pmf matrix, holds no row below alpha but the 0.0
    row lo of a column with nothing at or above alpha.
    recovery[start:stop] gets its column sums, and gap is the harmonic gaps
    H_phi - H_{phi-alpha} at phi clamped to [alpha, hi] (a column with
    hi < alpha, all 0.0, reads H_a at a = max(hi, 1)), or None unless gaps.
    Each depends on the system alone, not on the service model.
    """
    start = 0
    for first, hi, weights in access.rows(nodes, m * alphas, alphas):
        stop = start + weights.shape[1]
        alpha = alphas[start:stop]
        recovery[start:stop] = _column_sums(weights)
        gap = None
        if gaps:
            phi = first + np.arange(weights.shape[0])[:, None]
            # rows outside [a, hi] weigh 0: no gap is read past the band, even where hi < alpha
            a = np.minimum(alpha, np.maximum(hi, 1))
            gap = harmonic_gaps(np.maximum(np.minimum(phi, hi), a), a)
        yield start, stop, weights, gap
        del weights, gap  # as the caller does, so no chunk outlives its turn
        start = stop


def access_pmf(config: SystemConfig, access: AccessModel) -> list[tuple[int, float]]:
    """Return (phi, P(phi)) pairs over the access model's full phi support."""
    (lo, hi, probs), = access.rows(config.nodes, [config.data_nodes])
    lo, hi = int(lo[0]), int(hi[0])
    return [(phi, float(probs[phi - lo, 0])) for phi in range(lo, hi + 1)]


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
    feasible_alphas(nodes, m, access)  # the system's rules come before the closed form's
    if isinstance(service, ShiftedExp):
        raise NoClosedFormError("no closed form for mu_s(1) under shifted-exponential service")
    if isinstance(access, FixedSize):
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
    feasible_alphas(nodes, m, access)  # the system's rules come before the closed form's
    if not isinstance(access, FixedSize):
        raise NoClosedFormError("maximal spreading closed form needs fixed-size access")
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
    rates, recovery = _metrics(access, service, nodes, m, alphas)
    values = rates if objective == "service_rate" else recovery
    best = int(np.argmax(values))  # the first maximum: ties break low
    return OptimalResult(alphas[best], float(values[best]), _rows(alphas, rates, recovery))


def _rows(alphas, rates, recovery) -> tuple[SweepRow, ...]:
    return tuple(map(SweepRow, alphas, rates.tolist(), recovery))


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
    return _rows(alphas, *_metrics(access, service, nodes, m, alphas))
