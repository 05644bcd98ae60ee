"""Seeded Monte-Carlo estimation of service rates and recovery probabilities.

The rate estimator mirrors the aggregate-rate definition: it averages
conditional rates over the access distribution rather than inverting the
overall mean completion time (naive inversion estimates a different
quantity). For each data-node count phi the simulator estimates the mean
completion time empirically and combines strata as

    sum_phi P(phi) / T_hat(phi)

with the EXACT analytic access pmf P(phi) as weights; the conditional means
are the only simulated quantity. Inverting a stratum mean is biased at order
1/count, so the first-order delta-method correction (var / mean^3 / count)
is subtracted.

Reproducibility: trials are split into fixed-size blocks, block i is
generated by a counter-based Philox stream keyed (seed, i) no matter which
worker runs it, and block partials are reduced in block index order, so
estimates are a pure function of (trials, seed) whatever the worker count.
Strata observed fewer than min_count times are topped up from dedicated
streams keyed (seed, 2^63 + phi); top-ups feed only the time statistics and
are recorded separately so the per-phi counts still sum to trials.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import access_pmf
from .errors import ConfigurationError
from .models import (
    AccessModel,
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ServiceModel,
    ShiftedExp,
    SmallExp,
    SystemConfig,
)

__all__ = [
    "BLOCK_TRIALS",
    "SimConfig",
    "SimEstimate",
    "estimate_recovery_probability",
    "estimate_service_rate",
    "recovery_estimate",
    "sample_completion_time",
    "sample_phi",
]

BLOCK_TRIALS = 1 << 16

# Top-up streams must never collide with block streams; block indices stay
# far below 2^63 for any realistic trial count.
_TOPUP_KEY_BASE = 1 << 63


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seed, worker count, and the per-stratum sample floor."""

    trials: int
    seed: int = 0
    workers: int = 1
    min_count: int = 100

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigurationError(f"trials must be positive, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be positive, got {self.workers}")
        if self.min_count < 2:
            raise ConfigurationError(f"min_count must be at least 2, got {self.min_count}")


@dataclass(frozen=True)
class SimEstimate:
    """A Monte-Carlo estimate with its standard error and stratum diagnostics.

    per_phi_counts comes from the main pass only and sums to trials;
    topup_counts records extra completion-time draws for thin strata.
    """

    mean: float
    std_error: float
    per_phi_counts: dict[int, int]
    per_phi_mean_time: dict[int, float]
    trials: int
    topup_counts: dict[int, int] = field(default_factory=dict)


def _block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _block_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, BLOCK_TRIALS)
    return [BLOCK_TRIALS] * full + ([rest] if rest else [])


def sample_phi(access: AccessModel, config: SystemConfig, rng: np.random.Generator) -> int:
    """Draw one phi: the number of accessed nodes holding data.

    Fixed-size access draws a uniform r-subset of the labeled nodes (the
    first m*alpha labels hold data) and counts data nodes; probabilistic
    access draws Binomial(m*alpha, 1-p). The bulk estimators draw phi from
    the equivalent hypergeometric/binomial distributions directly.
    """
    D = config.data_nodes
    if isinstance(access, FixedSize):
        if access.r > config.nodes:
            raise ConfigurationError(f"r={access.r} exceeds nodes={config.nodes}")
        subset = rng.choice(config.nodes, size=access.r, replace=False)
        return int((subset < D).sum())
    if isinstance(access, Probabilistic):
        return int(rng.binomial(D, 1.0 - access.p))
    raise ConfigurationError(f"unknown access model {access!r}")


def _service_times(
    service: ServiceModel, alpha: int, shape: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    if isinstance(service, SmallExp):
        return rng.exponential(1.0 / service.mu, shape)
    if isinstance(service, ScaledExp):
        return rng.exponential(1.0 / (alpha * service.mu), shape)
    if isinstance(service, ShiftedExp):
        return service.delta / alpha + rng.exponential(1.0 / service.mu, shape)
    if isinstance(service, ConstantTime):
        return np.full(shape, service.delta / alpha)
    raise ConfigurationError(f"unknown service model {service!r}")


def sample_completion_time(
    service: ServiceModel, alpha: int, phi: int, rng: np.random.Generator
) -> float:
    """Draw one file completion time: the alpha-th smallest of phi service times."""
    if not 1 <= alpha <= phi:
        raise ConfigurationError(f"need 1 <= alpha <= phi, got alpha={alpha}, phi={phi}")
    times = _service_times(service, alpha, (phi,), rng)
    return float(np.partition(times, alpha - 1)[alpha - 1])


def _draw_phis(
    access: AccessModel, config: SystemConfig, n: int, rng: np.random.Generator
) -> np.ndarray:
    D = config.data_nodes
    if isinstance(access, FixedSize):
        if access.r > config.nodes:
            raise ConfigurationError(f"r={access.r} exceeds nodes={config.nodes}")
        return rng.hypergeometric(D, config.nodes - D, access.r, size=n)
    if isinstance(access, Probabilistic):
        return rng.binomial(D, 1.0 - access.p, size=n)
    raise ConfigurationError(f"unknown access model {access!r}")


def _map_blocks(fn, sizes: list[int], workers: int):
    # more threads than blocks or CPUs would only add start-up cost
    threads = min(workers, len(sizes), os.cpu_count() or 1)
    if threads == 1:
        return [fn(i, n) for i, n in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(len(sizes)), sizes))


def estimate_service_rate(
    config: SystemConfig,
    access: AccessModel,
    service: ServiceModel,
    sim: SimConfig,
) -> SimEstimate:
    """Estimate mu_s(alpha) by stratified simulation of completion times."""
    alpha = config.alpha
    D = config.data_nodes
    pmf = dict(access_pmf(config, access))
    support = sorted(pmf)
    phi_hi = support[-1]
    rate_phis = [phi for phi in range(alpha, phi_hi + 1) if pmf.get(phi, 0.0) > 0.0]
    deterministic = isinstance(service, ConstantTime)

    def run_block(index: int, n: int):
        rng = _block_rng(sim.seed, index)
        phis = _draw_phis(access, config, n, rng)
        counts = np.bincount(phis, minlength=D + 1)
        stats = {}
        if not deterministic:
            for phi in rate_phis:
                c = int(counts[phi])
                if c == 0:
                    continue
                times = _service_times(service, alpha, (c, phi), rng)
                times.partition(alpha - 1, axis=1)  # in place: no second (c, phi) array
                best = times[:, alpha - 1]
                stats[phi] = (c, float(best.sum()), float(np.square(best).sum()))
        return counts, stats

    totals: dict[int, list[float]] = {phi: [0, 0.0, 0.0] for phi in rate_phis}
    count_total = np.zeros(D + 1, dtype=np.int64)
    for counts, stats in _map_blocks(run_block, _block_sizes(sim.trials), sim.workers):
        count_total += counts
        for phi, (c, s, s2) in stats.items():
            acc = totals[phi]
            acc[0] += c
            acc[1] += s
            acc[2] += s2

    topups: dict[int, int] = {}
    if not deterministic:
        for phi in rate_phis:
            need = sim.min_count - totals[phi][0]
            if need > 0:
                rng = _block_rng(sim.seed, _TOPUP_KEY_BASE + phi)
                times = _service_times(service, alpha, (need, phi), rng)
                times.partition(alpha - 1, axis=1)
                best = times[:, alpha - 1]
                acc = totals[phi]
                acc[0] += need
                acc[1] += float(best.sum())
                acc[2] += float(np.square(best).sum())
                topups[phi] = need

    mean = 0.0
    variance = 0.0
    mean_times: dict[int, float] = {}
    for phi in rate_phis:
        weight = pmf[phi]
        if deterministic:
            # every completion time is exactly delta/alpha; no sampling noise
            mean_times[phi] = service.delta / alpha
            mean += weight * (alpha / service.delta)
            continue
        c, s, s2 = totals[phi]
        t_bar = s / c
        var = max(0.0, (s2 - s * s / c) / (c - 1))
        mean_times[phi] = t_bar
        mean += weight * (1.0 / t_bar - var / (c * t_bar**3))
        variance += (weight * np.sqrt(var / c) / t_bar**2) ** 2

    per_phi_counts = {phi: int(count_total[phi]) for phi in support}
    return SimEstimate(
        mean=float(mean),
        std_error=float(np.sqrt(variance)),
        per_phi_counts=per_phi_counts,
        per_phi_mean_time=mean_times,
        trials=sim.trials,
        topup_counts=topups,
    )


def recovery_estimate(per_phi_counts: dict[int, int], alpha: int, trials: int) -> SimEstimate:
    """Estimate P_s(alpha) as the fraction of trials with phi >= alpha.

    per_phi_counts are the phi counts of a finished pass over trials draws,
    such as estimate_service_rate's, so no second pass is needed.
    """
    successes = sum(count for phi, count in per_phi_counts.items() if phi >= alpha)
    p_hat = successes / trials
    std_error = float(np.sqrt(p_hat * (1.0 - p_hat) / trials))
    return SimEstimate(
        mean=p_hat,
        std_error=std_error,
        per_phi_counts=dict(per_phi_counts),
        per_phi_mean_time={},
        trials=trials,
    )


def estimate_recovery_probability(
    config: SystemConfig, access: AccessModel, sim: SimConfig
) -> SimEstimate:
    """Estimate P_s(alpha) as the fraction of trials with phi >= alpha."""
    D = config.data_nodes
    support = sorted(phi for phi, _ in access_pmf(config, access))

    def run_block(index: int, n: int):
        rng = _block_rng(sim.seed, index)
        phis = _draw_phis(access, config, n, rng)
        return np.bincount(phis, minlength=D + 1)

    count_total = np.zeros(D + 1, dtype=np.int64)
    for counts in _map_blocks(run_block, _block_sizes(sim.trials), sim.workers):
        count_total += counts
    per_phi_counts = {phi: int(count_total[phi]) for phi in support}
    return recovery_estimate(per_phi_counts, config.alpha, sim.trials)
