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
is subtracted. Each stratum sums its times and their squares in units of
2^-k, a power of two near its exact conditional mean fixed before the pass,
so times near 1e-160 or 1e160 keep their squares and a rescaling changes
no rounding. The correction and the standard error are formed from the
scale-free var / mean^2 in those units, and only the mean time is scaled
back; a stratum whose times leave the float64 range raises
ConfigurationError.

One seeded pass serves both estimates: it counts the draws of each phi (the
recovery estimate is the share with phi >= alpha) and samples the
completion times of every stratum that can serve a request. Each
completion time is one draw of the alpha-th order statistic (the service
model's order_stat, a Beta variate from a gamma pair), so a trial costs
one phi draw (the access model's draw: selection sampling or byte-wise
Bernoulli counts, one NumPy pass over the block per step) plus two gamma
draws, whatever phi is; sample_completion_time draws all phi service times
and is the brute-force oracle order_stat is tested against. Constant
service needs no sampling: its completion time is delta/alpha exactly, so
the pass only counts and the rate is the exact analytic value.

Reproducibility: trials are split into fixed-size blocks, block i is
generated by a counter-based Philox stream keyed (seed, i) no matter which
worker runs it, and block partials are reduced in block index order, so
estimates are a pure function of (trials, seed) whatever the worker count.
Block sizes are generated lazily and at most _IN_FLIGHT blocks per thread
are pending, so memory stays bounded at any trial count.
Strata observed fewer than min_count times are topped up from dedicated
streams keyed (seed, 2^63 + phi), at most BLOCK_TRIALS times per draw;
top-ups feed only the time statistics and are recorded separately so the
per-phi counts still sum to trials.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import access_pmf, service_rate
from .errors import ConfigurationError
from .models import AccessModel, ConstantTime, ServiceModel, SystemConfig, conditional_rate

__all__ = [
    "BLOCK_TRIALS",
    "SimConfig",
    "SimEstimate",
    "estimate_recovery_probability",
    "estimate_service_rate",
    "recovery_estimate",
    "sample_completion_time",
]

BLOCK_TRIALS = 1 << 16

# blocks queued or running per worker thread: enough to keep every thread
# busy while the caller reduces finished blocks in order
_IN_FLIGHT = 2

# Top-up streams must never collide with block streams; block indices stay
# far below 2^63 for any realistic trial count.
_TOPUP_KEY_BASE = 1 << 63


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seed, worker threads, and the per-stratum sample floor.

    Workers default to the CPU count; no estimate depends on the worker count.
    """

    trials: int
    seed: int = 0
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)
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
    # a uint64 array: a Python list holding an int >= 2^63 would pass through
    # float64 and merge neighbouring keys
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _block_sizes(trials: int) -> Iterator[int]:
    full, rest = divmod(trials, BLOCK_TRIALS)
    yield from itertools.repeat(BLOCK_TRIALS, full)
    if rest:
        yield rest


def sample_completion_time(
    service: ServiceModel, alpha: int, phi: int, rng: np.random.Generator
) -> float:
    """Draw one file completion time: the alpha-th smallest of phi service times."""
    if not 1 <= alpha <= phi:
        raise ConfigurationError(f"need 1 <= alpha <= phi, got alpha={alpha}, phi={phi}")
    times = service.sample(alpha, (phi,), rng)
    return float(np.partition(times, alpha - 1)[alpha - 1])


def _map_blocks(fn, trials: int, workers: int) -> Iterator:
    """Yield fn(i, n) for each block i of n trials, in block order.

    At most _IN_FLIGHT blocks per thread are pending at a time, so memory
    stays bounded at any trial count.
    """
    # more threads than blocks or CPUs would only add start-up cost
    threads = min(workers, -(-trials // BLOCK_TRIALS), os.cpu_count() or 1)
    if threads == 1:
        yield from itertools.starmap(fn, enumerate(_block_sizes(trials)))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for i, n in enumerate(_block_sizes(trials)):
            if len(pending) == _IN_FLIGHT * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, i, n))
        while pending:
            yield pending.popleft().result()


def _order_stats(service: ServiceModel, alpha: int, phi: int, k: int, n: int,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Return the sum and the sum of squares of n completion times given phi,
    in units of 2^-k.

    A time beyond the float64 range makes the sums infinite, without a
    warning, for the caller to reject. Draws at most BLOCK_TRIALS times at
    once, so memory stays bounded at any n.
    """
    total = total2 = 0.0
    with np.errstate(over="ignore"):
        for size in _block_sizes(n):
            times = np.ldexp(service.order_stat(alpha, phi, size, rng), k)
            total += float(times.sum())
            total2 += float(np.square(times).sum())
    return total, total2


def _run_pass(config: SystemConfig, access: AccessModel, service: ServiceModel | None,
              sim: SimConfig, support, sampled) -> tuple[dict[int, int], dict[int, list]]:
    """Draw sim.trials values of phi in seeded blocks.

    sampled maps each phi whose times are drawn to the exponent k of its
    units 2^-k. Returns the draw count of each phi in support and, for each
    phi in sampled, [n, sum, sum of squares] of its completion times in the
    pass, in those units.
    """
    alpha, D = config.alpha, config.data_nodes

    def run_block(index: int, n: int):
        rng = _block_rng(sim.seed, index)
        counts = np.bincount(access.draw(config.nodes, D, n, rng), minlength=D + 1)
        return counts, [(phi, c, *_order_stats(service, alpha, phi, k, c, rng))
                        for phi, k in sampled.items() if (c := int(counts[phi]))]

    count_total = np.zeros(D + 1, dtype=np.int64)
    stats = {phi: [0, 0.0, 0.0] for phi in sampled}
    for counts, block in _map_blocks(run_block, sim.trials, sim.workers):
        count_total += counts
        for phi, *sums in block:
            stats[phi] = [total + x for total, x in zip(stats[phi], sums)]
    return {phi: int(count_total[phi]) for phi in support}, stats


def estimate_service_rate(
    config: SystemConfig,
    access: AccessModel,
    service: ServiceModel,
    sim: SimConfig,
) -> SimEstimate:
    """Estimate mu_s(alpha) by stratified simulation of completion times."""
    alpha = config.alpha
    pmf = dict(access_pmf(config, access))
    rate_phis = [phi for phi in range(alpha, max(pmf) + 1) if pmf.get(phi, 0.0) > 0.0]
    if isinstance(service, ConstantTime):
        # every completion time is exactly delta/alpha: nothing to sample
        counts, _ = _run_pass(config, access, service, sim, pmf, {})
        return SimEstimate(
            mean=service_rate(config, access, service),
            std_error=0.0,
            per_phi_counts=counts,
            per_phi_mean_time=dict.fromkeys(rate_phis, service.delta / alpha),
            trials=sim.trials,
        )

    # 2^-k with k the binary exponent of the exact conditional rate is within
    # a factor of two of the exact mean time 1/rate
    units = {phi: math.frexp(conditional_rate(service, alpha, phi))[1] for phi in rate_phis}
    counts, totals = _run_pass(config, access, service, sim, pmf, units)
    topups: dict[int, int] = {}
    mean = 0.0
    errors = []
    mean_times: dict[int, float] = {}
    for phi in rate_phis:
        weight = pmf[phi]
        c, s, s2 = totals[phi]
        if c < sim.min_count:
            topups[phi] = need = sim.min_count - c
            rng = _block_rng(sim.seed, _TOPUP_KEY_BASE + phi)
            more, more2 = _order_stats(service, alpha, phi, units[phi], need, rng)
            c, s, s2 = c + need, s + more, s2 + more2
        t_unit = s / c
        t_bar = math.ldexp(t_unit, -units[phi])
        if not (t_bar > 0.0 and math.isfinite(s2)):
            raise ConfigurationError(
                f"completion times given phi={phi} leave the float64 range (mean {t_bar}); "
                "the service parameters are too extreme to simulate"
            )
        var = max(0.0, (s2 - s * s / c) / (c - 1))
        mean_times[phi] = t_bar
        # var / (c t_bar^2) is scale-free, so it is formed in units of 2^-k
        rel = var / t_unit / t_unit / c
        mean += weight * (1.0 - rel) / t_bar
        errors.append(weight * math.sqrt(rel) / t_bar)

    return SimEstimate(
        mean=float(mean),
        std_error=math.hypot(*errors),
        per_phi_counts=counts,
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
    counts, _ = _run_pass(config, access, None, sim, dict(access_pmf(config, access)), {})
    return recovery_estimate(counts, config.alpha, sim.trials)
