"""Tests for the Monte-Carlo order-statistics simulator."""

from __future__ import annotations

import hashlib
import math
import struct
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

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
    estimate_service_rate,
    recovery_probability,
    service_rate,
)
from dss_alloc.numerics import harmonic_gap


# ---------------------------------------------------------------------------
# the brute-force reference: every per-node service time drawn from the
# model's stated law, written here rather than read from dss_alloc


def _service_times(service, alpha, shape, rng):
    """Per-node times: Exp(mu), Exp(alpha*mu), delta/alpha + Exp(mu) or delta/alpha."""
    if isinstance(service, SmallExp):
        return rng.exponential(1.0 / service.mu, shape)
    if isinstance(service, ScaledExp):
        return rng.exponential(1.0 / (alpha * service.mu), shape)
    if isinstance(service, ShiftedExp):
        return service.delta / alpha + rng.exponential(1.0 / service.mu, shape)
    return np.full(shape, service.delta / alpha)


def _completion_times(service, alpha, phi, n, rng):
    """n completion times, each the alpha-th smallest of phi per-node times."""
    times = _service_times(service, alpha, (n, phi), rng)
    return np.partition(times, alpha - 1, axis=1)[:, alpha - 1]


def test_completion_time_mean_matches_the_minimum_of_exponentials():
    # alpha = 1, phi = 4: the minimum of 4 unit exponentials has mean 1/4
    draws = _completion_times(SmallExp(1.0), 1, 4, 20_000, np.random.default_rng(42))
    se = np.std(draws) / np.sqrt(len(draws))
    assert np.mean(draws) == pytest.approx(0.25, abs=3 * se)


def test_completion_time_mean_matches_the_shifted_order_statistic():
    # delta/alpha + H_2 = 3/2 + 3/2
    draws = _completion_times(ShiftedExp(3.0, 1.0), 2, 2, 20_000, np.random.default_rng(7))
    se = np.std(draws) / np.sqrt(len(draws))
    assert np.mean(draws) == pytest.approx(3.0, abs=3 * se)


def test_completion_time_is_deterministic_for_constant_service():
    rng = np.random.default_rng(0)
    assert set(_completion_times(ConstantTime(2.0), 4, 5, 50, rng).tolist()) == {0.5}
    direct = ConstantTime(2.0).order_stat(4, 5, 50, rng)
    assert direct.shape == (50,) and np.all(direct == 0.5)


EXP_SERVICES = [SmallExp(2.0), ScaledExp(1.0), ShiftedExp(2.0, 1.0)]


@pytest.mark.parametrize("service", EXP_SERVICES, ids=lambda s: s.kind)
@pytest.mark.parametrize("alpha, phi", [(1, 1), (1, 7), (3, 3), (3, 8), (20, 40), (40, 40)])
def test_order_stat_matches_the_partitioned_service_times(service, alpha, phi):
    # two-sample KS against the brute-force draw: phi times per trial, partitioned
    n = 20_000
    direct = service.order_stat(alpha, phi, n, np.random.default_rng([alpha, phi, 1]))
    brute = _completion_times(service, alpha, phi, n, np.random.default_rng([alpha, phi, 2]))
    assert direct.shape == (n,)
    assert stats.ks_2samp(direct, brute).pvalue > 1e-3


@pytest.mark.parametrize("service", EXP_SERVICES, ids=lambda s: s.kind)
@pytest.mark.parametrize("alpha, phi", [(1000, 1000), (1, 1000)])
def test_order_stat_mean_is_the_exact_gap_at_large_phi(service, alpha, phi):
    # the mean completion time is 1 / rate(alpha, H_phi - H_{phi-alpha}); at
    # alpha = phi the draws sit in the Beta upper tail
    draws = service.order_stat(alpha, phi, 20_000, np.random.default_rng(phi + alpha))
    assert np.all(np.isfinite(draws))
    se = np.std(draws) / np.sqrt(len(draws))
    exact = 1.0 / service.rate(alpha, harmonic_gap(phi, alpha))
    assert abs(np.mean(draws) - exact) <= 5 * se


@pytest.mark.parametrize(
    "access, mean",
    [(FixedSize(6), 2.4), (Probabilistic(0.5), 2.0)],
)
def test_access_draw_stays_on_the_support_with_the_right_mean(access, mean):
    config = SystemConfig(10, 2, 2)
    rng = np.random.default_rng(13)
    draws = access.draw(config.nodes, config.data_nodes, 4_000, rng)
    assert set(draws.tolist()) <= set(range(0, config.data_nodes + 1))
    assert np.mean(draws) == pytest.approx(mean, abs=0.1)


# ---------------------------------------------------------------------------
# phi samplers: seeded chi-square fits against pmfs built from math.comb and
# Fraction alone, so no test here reads the analytic pmfs of dss_alloc.numerics

SAMPLER_DRAWS = 200_000


def _urn_pmf(nodes: int, data: int, r: int) -> dict[int, Fraction]:
    total = math.comb(nodes, r)
    return {k: Fraction(math.comb(data, k) * math.comb(nodes - data, r - k), total)
            for k in range(max(0, data + r - nodes), min(data, r) + 1)}


def _coin_pmf(data: int, p: float) -> dict[int, Fraction]:
    q = 1 - Fraction(p)
    pmf = {k: math.comb(data, k) * q**k * (1 - q) ** (data - k) for k in range(data + 1)}
    return {k: mass for k, mass in pmf.items() if mass}  # p = 0 or 1 leaves one point


def _assert_fits(draws: np.ndarray, pmf: dict[int, Fraction]) -> None:
    assert draws.shape == (SAMPLER_DRAWS,)
    assert draws.dtype.kind in "iu"
    counts = np.bincount(draws, minlength=max(pmf) + 1)
    assert set(np.flatnonzero(counts).tolist()) <= set(pmf)
    if len(pmf) == 1:
        return
    # cells expecting fewer than 5 draws are pooled into the largest cell
    expected = {k: float(p) * SAMPLER_DRAWS for k, p in pmf.items()}
    cells = [k for k in pmf if expected[k] >= 5]
    top = cells.index(max(cells, key=expected.get))
    observed = np.array([counts[k] for k in cells], dtype=float)
    predicted = np.array([expected[k] for k in cells])
    observed[top] += SAMPLER_DRAWS - observed.sum()
    predicted[top] += SAMPLER_DRAWS - predicted.sum()
    assert stats.chisquare(observed, predicted).pvalue > 1e-3


@pytest.mark.parametrize("nodes, data, r", [
    (20, 6, 8),  # D < r
    (20, 8, 6),  # D > r
    (20, 6, 15),  # r > N/2: the accessed set is complemented
    (20, 14, 8),  # D > N/2: the data set is complemented
    (20, 15, 17),  # both complemented
    (10, 2, 4),
    (20, 4, 10),
    (20, 6, 20),  # r = N
    (10, 10, 4),  # D = N
    (20, 6, 1),  # r = 1
    (40, 16, 20),  # k = 16 steps, the last selection-sampling size
    (40, 17, 20),  # k = 17 steps: rng.hypergeometric
    (40000, 3, 25000),  # N past the int16 range
])
def test_fixed_size_draw_fits_the_hypergeometric_pmf(nodes, data, r):
    rng = np.random.default_rng([nodes, data, r])
    _assert_fits(FixedSize(r).draw(nodes, data, SAMPLER_DRAWS, rng), _urn_pmf(nodes, data, r))


@pytest.mark.parametrize("data, p", [
    (6, 0.5),  # 256 q is an integer: ties never succeed
    (4, 0.3),
    (40, 0.3),
    (12, 0.25),
    (1, 0.3),
    (7, 0.001),  # q >= 255/256: Q = 255, which unmasked padding bytes would tie
    (9, 0.999),  # Q = 0
    (64, 0.3),  # the last byte-Bernoulli size
    (65, 0.3),  # rng.binomial
    (5, 0.0),
    (5, 1.0),
])
def test_probabilistic_draw_fits_the_binomial_pmf(data, p):
    rng = np.random.default_rng([data, int(p * 1000)])
    _assert_fits(Probabilistic(p).draw(0, data, SAMPLER_DRAWS, rng), _coin_pmf(data, p))


@pytest.mark.parametrize("access, nodes, data, fallback", [
    (FixedSize(20), 40, 16, False),
    (FixedSize(20), 40, 17, True),
    (Probabilistic(0.3), 0, 64, False),
    (Probabilistic(0.3), 0, 65, True),
    (Probabilistic(0.0), 0, 5, True),
    (Probabilistic(1.0), 0, 5, True),
])
def test_samplers_fall_back_to_numpy_past_their_limits(access, nodes, data, fallback):
    draws = access.draw(nodes, data, 1000, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    if isinstance(access, FixedSize):
        numpy_draws = rng.hypergeometric(data, nodes - data, access.r, size=1000)
    else:
        numpy_draws = rng.binomial(data, 1.0 - access.p, size=1000)
    assert np.array_equal(draws, numpy_draws) == fallback
    if not fallback:
        assert draws.dtype.itemsize <= 2


@pytest.mark.parametrize("access", [FixedSize(8), Probabilistic(0.3)])
def test_phi_draws_do_not_depend_on_the_worker_count(access):
    config = SystemConfig(20, 2, 3)
    # constant service makes the rate pass a count-only pass
    counts = [estimate_service_rate(
        config, access, ConstantTime(1.0), SimConfig(trials=150_000, seed=11, workers=workers)
    ).per_phi_counts for workers in (1, 2)]
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# phi streams: each sampler's exact draws from a block stream, and the
# generator's next random() after them, pinned by digest. A change to any
# draw, or to how much of the stream a sampler spends, changes a digest.

STREAM_QS = [0.7, 0.3, 0.5, 1 - 2**-9, 2**-9, 0.123456789, 255.75 / 256, 254.9 / 256]
STREAM_SIZES = (1, 4_095, 5_000)  # one trial, one pass less one, two passes


def _stream_digest(access, nodes: int, data: int) -> str:
    """The first 12 hex digits of the SHA-256 of the draws of each size in
    STREAM_SIZES, as little-endian int64, each followed by the next random()."""
    digest = hashlib.sha256()
    for index, n in enumerate(STREAM_SIZES):
        rng = simulator._block_rng(2021, index)
        digest.update(access.draw(nodes, data, n, rng).astype("<i8").tobytes())
        digest.update(struct.pack("<d", rng.random()))
    return digest.hexdigest()[:12]


# D: the digest of Probabilistic(1 - q) for each q in STREAM_QS, in order.
# q = 1 - 2^-9 and 255.75 / 256 tie at byte 255, q = 2^-9 at byte 0; D = 1, 5,
# 61 leave padding lanes in the last word
BYTE_STREAMS = {
    1: ["437627e16202", "d33912c9e4e8", "d627f68e53ef", "9e2e9d262bb3",
        "b1e5a806e028", "bb7b24def487", "49f283f3f293", "425aff7c9ba5"],
    5: ["5c6ef422bffc", "92a812fbe3dd", "44001589ab99", "2fec9fbb1854",
        "cdce0a51c3df", "af6acb91f971", "294f53344dd1", "f9a1bbfd9c45"],
    8: ["9f3eb59a5f45", "03f8f6278b63", "c173af84af09", "c8dbf430e32f",
        "1dbcddb029ec", "c14692079315", "9bae0e065418", "23f35028e3f4"],
    40: ["c0609c8a4730", "9b74721823df", "a3c73b87f1f2", "4b46d1508499",
         "8ed96b7950c3", "f1602f0fc8c0", "e85291207b42", "512f7898551a"],
    61: ["086579075eb7", "36f67b8d94fd", "eefdd4dd45ba", "df066a4a5d98",
         "fd17621e6934", "97e4d83718f6", "e3c5d7ee3ff5", "3c30c66094e6"],
    64: ["52ce7ba8d0c7", "3771a3fe556d", "86a1a40b8fcb", "ad60245e0721",
         "9763d3a9fb89", "39913550345b", "2575ed071b91", "e0fa74689e25"],
}


@pytest.mark.parametrize("data", sorted(BYTE_STREAMS))
def test_byte_bernoulli_streams_are_pinned(data):
    got = [_stream_digest(Probabilistic(1 - q), 0, data) for q in STREAM_QS]
    assert got == BYTE_STREAMS[data]


@pytest.mark.parametrize("access, nodes, data, digest", [
    (Probabilistic(1 - 0.7), 0, 65, "376ab56283b1"),  # rng.binomial
    (Probabilistic(1 - 0.3), 0, 65, "7253b88407c7"),
    (Probabilistic(1.0), 0, 5, "566fb70a0fcc"),  # q = 0: rng.binomial
    (Probabilistic(1.0), 0, 40, "566fb70a0fcc"),
    (Probabilistic(0.0), 0, 5, "5d86684bfd86"),  # q = 1: rng.binomial
    (Probabilistic(0.0), 0, 40, "00f94e92147c"),
    (FixedSize(20), 40, 6, "b3fbb529d2fc"),  # k = 6 steps of selection sampling
    (FixedSize(26), 40, 34, "097e0c88782f"),  # k = 6, both sets complemented
    (FixedSize(20), 40, 17, "52f1da0048f2"),  # k = 17: rng.hypergeometric
])
def test_fallback_and_fixed_size_streams_are_pinned(access, nodes, data, digest):
    assert _stream_digest(access, nodes, data) == digest


# ---------------------------------------------------------------------------
# bulk estimators


def test_service_rate_estimate_agrees_with_the_analytic_value():
    config = SystemConfig(10, 2, 2)
    sim = SimConfig(trials=200_000, seed=3)
    for access in (FixedSize(5), Probabilistic(0.3)):
        est = estimate_service_rate(config, access, ScaledExp(1.0), sim)
        assert est.std_error > 0.0
        assert est.mean == pytest.approx(service_rate(config, access, ScaledExp(1.0)), abs=3 * est.std_error)


def estimate_recovery(config, access, sim):
    """P_s(alpha) from the phi counts of a count-only (constant service) rate pass."""
    counts = estimate_service_rate(config, access, ConstantTime(1.0), sim).per_phi_counts
    return simulator.recovery_estimate(counts, config.alpha, sim.trials)


def test_recovery_estimate_agrees_with_the_analytic_value():
    config = SystemConfig(10, 2, 2)
    access = FixedSize(5)
    est = estimate_recovery(config, access, SimConfig(trials=200_000, seed=5))
    assert est.std_error > 0.0
    assert est.mean == pytest.approx(recovery_probability(config, access), abs=3 * est.std_error)
    assert est.per_phi_mean_time == {}


def test_recovery_estimate_is_exact_when_every_node_is_accessed():
    config = SystemConfig(10, 2, 2)
    est = estimate_recovery(config, FixedSize(10), SimConfig(trials=10_000, seed=1))
    assert est.mean == 1.0
    assert est.std_error == 0.5 / (10_000 + 1)  # Wilson's half-width at z = 1; Wald's is 0


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

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpus)
    config = SystemConfig(10, 2, 2)
    sim = SimConfig(trials=3 * simulator.BLOCK_TRIALS, seed=1, workers=100_000)
    estimate_service_rate(config, FixedSize(5), ConstantTime(1.0), sim)
    assert started == [threads]


class _Stop(Exception):
    """Raised by a stand-in sampler to end a run that would take hours."""


def test_huge_trial_counts_are_drawn_block_by_block(monkeypatch):
    sizes = []

    def draw(self, nodes, data, n, rng):
        sizes.append(n)
        if len(sizes) == 3:
            raise _Stop
        return np.full(n, data)

    monkeypatch.setattr(FixedSize, "draw", draw)
    sim = SimConfig(trials=10**15, seed=1, workers=1)
    with pytest.raises(_Stop):
        estimate_service_rate(SystemConfig(20, 2, 3), FixedSize(8), ScaledExp(1.0), sim)
    assert sizes == [simulator.BLOCK_TRIALS] * 3


def test_threaded_blocks_run_a_bounded_window_ahead(monkeypatch):
    submitted = []

    class EagerPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            future = Future()
            try:
                future.set_result(fn(*args))
            except _Stop as exc:
                future.set_exception(exc)
            return future

    def draw(self, nodes, data, n, rng):
        raise _Stop

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", EagerPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(FixedSize, "draw", draw)
    sim = SimConfig(trials=10**15, seed=1, workers=2)
    with pytest.raises(_Stop):
        estimate_service_rate(SystemConfig(20, 2, 3), FixedSize(8), ConstantTime(1.0), sim)
    assert len(submitted) == 2 * simulator._IN_FLIGHT


def test_huge_top_ups_are_drawn_block_by_block(monkeypatch):
    sizes = []
    order_stat = ScaledExp.order_stat

    def recording_order_stat(self, alpha, phi, n, rng):
        sizes.append(n)
        if len(sizes) == 8:
            raise _Stop
        return order_stat(self, alpha, phi, n, rng)

    monkeypatch.setattr(ScaledExp, "order_stat", recording_order_stat)
    sim = SimConfig(trials=1000, seed=1, workers=1, min_count=10**12)
    with pytest.raises(_Stop):
        estimate_service_rate(SystemConfig(20, 2, 3), FixedSize(8), ScaledExp(1.0), sim)
    assert max(sizes) == sizes[-1] == simulator.BLOCK_TRIALS


@pytest.mark.parametrize("mu", [1e-150, 1e150])
def test_rate_estimate_holds_at_extreme_service_scales(mu):
    # t_bar^3 would under- or overflow here; the estimator works scale-free
    config = SystemConfig(20, 2, 3)
    access, service = FixedSize(8), ScaledExp(mu)
    est = estimate_service_rate(config, access, service, SimConfig(trials=20_000, seed=8))
    assert 0.0 < est.std_error < math.inf
    assert abs(est.mean - service_rate(config, access, service)) <= 3 * est.std_error


@pytest.mark.parametrize("shift", [-1000, -600, 600, 1000])
def test_rate_estimate_scales_exactly_with_a_power_of_two_mu(shift):
    # squares of times near 2^-600 underflow and near 2^600 overflow in float64;
    # strata are summed in units of a power of two, which scales every rounding
    config, access = SystemConfig(20, 2, 3), FixedSize(8)
    sim = SimConfig(trials=20_000, seed=8, min_count=3000)  # tops up phi = 4, 5, 6
    base = estimate_service_rate(config, access, ScaledExp(1.0), sim)
    far = estimate_service_rate(config, access, ScaledExp(math.ldexp(1.0, shift)), sim)
    assert base.topup_counts and far.topup_counts == base.topup_counts
    assert far.mean == math.ldexp(base.mean, shift)
    assert far.std_error == math.ldexp(base.std_error, shift) > 0.0
    assert far.per_phi_mean_time == {phi: math.ldexp(t, -shift)
                                     for phi, t in base.per_phi_mean_time.items()}


def test_overflowing_completion_times_are_configuration_errors():
    config = SystemConfig(20, 2, 3)
    with pytest.raises(ConfigurationError, match="float64"):
        estimate_service_rate(config, FixedSize(8), ScaledExp(1e308), SimConfig(trials=1000))


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


def test_top_up_and_large_seed_streams_are_distinct():
    # top-up keys (seed, 2^63 + phi) and seeds >= 2^63 must not merge through float64
    base = simulator._TOPUP_KEY_BASE
    topups = [simulator._block_rng(1, base + phi).random() for phi in (3, 4)]
    assert topups[0] != topups[1]
    large = [simulator._block_rng(2**63 + k, 0).random(4) for k in (1, 2)]
    assert not np.array_equal(large[0], large[1])
    # block streams of ordinary seeds keep the keys they always had
    legacy = np.random.Generator(np.random.Philox(key=[7, 3])).random(4)
    assert np.array_equal(simulator._block_rng(7, 3).random(4), legacy)
