"""Tests for the Monte-Carlo order-statistics simulator."""

from __future__ import annotations

import numpy as np
import pytest

from dss_alloc import simulator
from dss_alloc import (
    ConfigurationError,
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ShiftedExp,
    SimConfig,
    SmallExp,
    SystemConfig,
    access_pmf,
    estimate_recovery_probability,
    estimate_service_rate,
    recovery_probability,
    sample_completion_time,
    sample_phi,
    service_rate,
)


# ---------------------------------------------------------------------------
# single-draw sampling


def test_completion_time_mean_matches_the_minimum_of_exponentials():
    # alpha = 1, phi = 4: the minimum of 4 unit exponentials has mean 1/4
    rng = np.random.default_rng(42)
    draws = [sample_completion_time(SmallExp(1.0), 1, 4, rng) for _ in range(20_000)]
    se = np.std(draws) / np.sqrt(len(draws))
    assert np.mean(draws) == pytest.approx(0.25, abs=3 * se)


def test_completion_time_mean_matches_the_shifted_order_statistic():
    # delta/alpha + H_2 = 3/2 + 3/2
    rng = np.random.default_rng(7)
    draws = [sample_completion_time(ShiftedExp(3.0, 1.0), 2, 2, rng) for _ in range(20_000)]
    se = np.std(draws) / np.sqrt(len(draws))
    assert np.mean(draws) == pytest.approx(3.0, abs=3 * se)


def test_completion_time_is_deterministic_for_constant_service():
    rng = np.random.default_rng(0)
    draws = {sample_completion_time(ConstantTime(2.0), 4, 5, rng) for _ in range(50)}
    assert draws == {0.5}


def test_completion_time_rejects_infeasible_draws():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        sample_completion_time(SmallExp(1.0), 3, 2, rng)
    with pytest.raises(ConfigurationError):
        sample_completion_time(SmallExp(1.0), 0, 1, rng)


@pytest.mark.parametrize(
    "access, mean",
    [(FixedSize(6), 2.4), (Probabilistic(0.5), 2.0)],
)
def test_sample_phi_stays_on_the_support_with_the_right_mean(access, mean):
    config = SystemConfig(10, 2, 2)
    rng = np.random.default_rng(13)
    draws = [sample_phi(access, config, rng) for _ in range(4_000)]
    assert set(draws) <= set(range(0, config.data_nodes + 1))
    assert np.mean(draws) == pytest.approx(mean, abs=0.1)


# ---------------------------------------------------------------------------
# bulk estimators


def test_service_rate_estimate_agrees_with_the_analytic_value():
    config = SystemConfig(10, 2, 2)
    sim = SimConfig(trials=200_000, seed=3)
    for access in (FixedSize(5), Probabilistic(0.3)):
        est = estimate_service_rate(config, access, ScaledExp(1.0), sim)
        assert est.std_error > 0.0
        assert est.mean == pytest.approx(service_rate(config, access, ScaledExp(1.0)), abs=3 * est.std_error)


def test_recovery_estimate_agrees_with_the_analytic_value():
    config = SystemConfig(10, 2, 2)
    access = FixedSize(5)
    est = estimate_recovery_probability(config, access, SimConfig(trials=200_000, seed=5))
    assert est.std_error > 0.0
    assert est.mean == pytest.approx(recovery_probability(config, access), abs=3 * est.std_error)
    assert est.per_phi_mean_time == {}


def test_recovery_estimate_is_exact_when_every_node_is_accessed():
    config = SystemConfig(10, 2, 2)
    est = estimate_recovery_probability(config, FixedSize(10), SimConfig(trials=10_000, seed=1))
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_estimates_are_reproducible_and_seed_sensitive():
    config = SystemConfig(10, 2, 2)
    access = FixedSize(5)
    first = estimate_service_rate(config, access, SmallExp(1.0), SimConfig(trials=20_000, seed=9))
    second = estimate_service_rate(config, access, SmallExp(1.0), SimConfig(trials=20_000, seed=9))
    other = estimate_service_rate(config, access, SmallExp(1.0), SimConfig(trials=20_000, seed=10))
    assert first == second
    assert first.mean != other.mean


def test_worker_count_does_not_change_the_estimate():
    # 150000 trials span three blocks, so the reduction order actually matters
    config = SystemConfig(20, 2, 3)
    access = FixedSize(8)
    serial = estimate_service_rate(
        config, access, ScaledExp(1.0), SimConfig(trials=150_000, seed=11, workers=1)
    )
    threaded = estimate_service_rate(
        config, access, ScaledExp(1.0), SimConfig(trials=150_000, seed=11, workers=4)
    )
    assert serial == threaded


def test_recovery_from_the_rate_pass_equals_the_recovery_pass():
    config = SystemConfig(20, 2, 3)
    sim = SimConfig(trials=150_000, seed=12, workers=2)
    for access in (FixedSize(8), Probabilistic(0.3)):
        rate = estimate_service_rate(config, access, ScaledExp(1.0), sim)
        derived = simulator.recovery_estimate(rate.per_phi_counts, config.alpha, sim.trials)
        assert derived == estimate_recovery_probability(config, access, sim)


@pytest.mark.parametrize("cpus, threads", [(2, 2), (64, 3)])
def test_threads_never_exceed_blocks_or_cpus(monkeypatch, cpus, threads):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpus)
    config = SystemConfig(10, 2, 2)
    sim = SimConfig(trials=3 * simulator.BLOCK_TRIALS, seed=1, workers=100_000)
    estimate_recovery_probability(config, FixedSize(5), sim)
    assert started == [threads]


@pytest.mark.parametrize("access", [FixedSize(6), Probabilistic(0.4)])
def test_stratum_counts_cover_the_support_and_sum_to_trials(access):
    config = SystemConfig(10, 2, 2)
    est = estimate_service_rate(config, access, SmallExp(1.0), SimConfig(trials=50_000, seed=2))
    support = {phi for phi, _ in access_pmf(config, access)}
    assert set(est.per_phi_counts) == support
    assert sum(est.per_phi_counts.values()) == est.trials == 50_000


def test_thin_strata_are_topped_up_to_the_sample_floor():
    # phi = 4 has probability 1e-4, so 50000 trials leave it far below the floor
    config = SystemConfig(10, 2, 2)
    est = estimate_service_rate(
        config, Probabilistic(0.9), ScaledExp(1.0), SimConfig(trials=50_000, seed=6)
    )
    assert est.per_phi_counts[4] < 100
    assert est.per_phi_counts[4] + est.topup_counts[4] == 100
    assert np.isfinite(est.per_phi_mean_time[4])
    for phi, count in est.per_phi_counts.items():
        if count >= 100 or phi < config.alpha:
            assert phi not in est.topup_counts


def test_constant_service_short_circuits_to_the_exact_rate():
    config = SystemConfig(20, 2, 3)
    service = ConstantTime(2.0)
    for access in (FixedSize(8), Probabilistic(0.25)):
        est = estimate_service_rate(config, access, service, SimConfig(trials=5_000, seed=4))
        assert est.mean == service_rate(config, access, service)
        assert est.std_error == 0.0
        assert est.topup_counts == {}
        assert all(t == 2.0 / 3 for t in est.per_phi_mean_time.values())


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 0},
        {"trials": 1000, "seed": -1},
        {"trials": 1000, "seed": 2**64},
        {"trials": 1000, "workers": 0},
        {"trials": 1000, "min_count": 1},
    ],
)
def test_sim_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        SimConfig(**kwargs)
