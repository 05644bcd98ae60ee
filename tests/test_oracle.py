"""High-precision checks of the expectation kernel beyond paper scale.

mpmath at 40 significant digits is the oracle; model parameters are read at
their decimal face value (p = 0.3 means 3/10), as the benchmark's reference
reads them.
"""

from __future__ import annotations

import math
import random

import mpmath
import numpy as np
import pytest

from dss_alloc import numerics
from dss_alloc.analysis import (
    alpha_table,
    expected_metrics,
    feasible_alphas,
    optimal_alpha,
    recovery_probability,
    service_rate,
)
from dss_alloc.conditions import classify
from dss_alloc.models import FixedSize, Probabilistic, ScaledExp, ShiftedExp, SystemConfig
from dss_alloc.numerics import binomial_rows, harmonic_gap, harmonic_gaps, hypergeometric_rows

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DIGITS = 40

# the benchmark's two N=1000, m=3 searches, as (access, service, oracle form)
SEARCHES = [
    (FixedSize(300), ScaledExp(1.0), ("fixed", 300), ("scaled", 1.0)),
    (Probabilistic(0.3), ShiftedExp(3.0, 1.0), ("prob", "0.3"), ("shifted", 3.0, 1.0)),
]


def oracle_metrics(nodes, m, alpha, access, service):
    """(mu_s, P_s) by direct summation in mpmath, as mpf values at DIGITS digits."""
    data = m * alpha
    with mpmath.workdps(DIGITS):
        harmonic = [mpmath.mpf(0)]
        for i in range(1, data + 1):
            harmonic.append(harmonic[-1] + mpmath.mpf(1) / i)
        rate = recovery = mpmath.mpf(0)
        for phi in range(alpha, data + 1):
            if access[0] == "fixed":
                r = access[1]
                prob = (mpmath.binomial(data, phi) * mpmath.binomial(nodes - data, r - phi)
                        / mpmath.binomial(nodes, r)) if phi <= r else mpmath.mpf(0)
            else:
                p = mpmath.mpf(access[1])
                prob = mpmath.binomial(data, phi) * (1 - p) ** phi * p ** (data - phi)
            gap = harmonic[phi] - harmonic[phi - alpha]
            if service[0] == "scaled":
                conditional = alpha * mpmath.mpf(service[1]) / gap
            else:
                delta, mu = mpmath.mpf(service[1]), mpmath.mpf(service[2])
                conditional = alpha * mu / (delta * mu + alpha * gap)
            recovery += prob
            rate += prob * conditional
        return rate, recovery


@pytest.mark.parametrize("phi", [10**3, 10**4, 10**5])
def test_harmonic_gap_matches_the_oracle(phi):
    alphas = [1, 2, 17, phi]
    got = harmonic_gaps(np.full(len(alphas), phi), np.array(alphas))
    with mpmath.workdps(DIGITS):
        want = [float(mpmath.harmonic(phi) - mpmath.harmonic(phi - alpha)) for alpha in alphas]
    for alpha, value, exact in zip(alphas, got, want):
        assert abs(value - exact) <= 1e-13 * exact, (phi, alpha)
        assert harmonic_gap(phi, alpha) == value


@pytest.mark.parametrize("access, service, oracle_access, oracle_service", SEARCHES)
def test_search_scale_rows_match_the_oracle(access, service, oracle_access, oracle_service):
    alphas = [1, 2, 42, 150, 300]
    rates, recovery = expected_metrics(access, service, 1000, 3, alphas)
    for alpha, rate, prob in zip(alphas, rates, recovery):
        want_rate, want_prob = map(float, oracle_metrics(1000, 3, alpha, oracle_access,
                                                         oracle_service))
        assert abs(rate - want_rate) <= 1e-12 * want_rate, alpha
        assert abs(prob - want_prob) <= 1e-12 * want_prob, alpha


@pytest.mark.parametrize(
    "rows",
    [
        lambda data: hypergeometric_rows(10_000, data, 3_000),
        lambda data: binomial_rows(data, 1.0 - 0.3),
        lambda data: binomial_rows(data, 1.0 - 0.999),
    ],
)
def test_pmf_columns_sum_to_one_at_ten_thousand_nodes(rows):
    for lo, hi, probs in rows([1, 2_500, 10_000]):
        assert np.all(probs >= 0.0)
        for column in range(probs.shape[1]):
            assert not probs[:lo[column], column].any() and not probs[hi[column] + 1:, column].any()
            assert abs(probs[:, column].sum() - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "rows",
    [
        lambda data: hypergeometric_rows(30_000, data, 9_000),
        lambda data: binomial_rows(data, 1.0 - 0.3),
    ],
)
def test_pmf_columns_sum_to_one_at_thirty_thousand_nodes(rows):
    for lo, hi, probs in rows([3, 7_500, 22_500, 30_000]):
        for column in range(probs.shape[1]):
            assert not probs[:lo[column], column].any() and not probs[hi[column] + 1:, column].any()
            assert abs(probs[:, column].sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("nodes, m, alphas", [(40, 4, [9, 2, 2, 5]),
                                              (1000, 3, [300, 2, 2, 150, 299, 1])])
@pytest.mark.parametrize("access, service", [(FixedSize(20), ScaledExp(1.0)),
                                             (Probabilistic(0.3), ShiftedExp(3.0, 1.0))])
def test_unsorted_alpha_tables_equal_their_one_alpha_calls(nodes, m, alphas, access, service):
    # the walk visits the columns in data order, so the order of alphas changes no bit
    for row in alpha_table(access, service, nodes, m, alphas):
        config = SystemConfig(nodes, m, row.alpha)
        assert row.service_rate == service_rate(config, access, service)
        assert row.recovery_probability == recovery_probability(config, access)


@pytest.mark.parametrize("access, service, oracle_access, oracle_service", SEARCHES)
def test_scalar_rate_is_bit_identical_to_the_search_row(access, service, oracle_access,
                                                        oracle_service):
    table = optimal_alpha(access, service, 1000, 3).table
    for alpha in (1, 7, 42, 199, len(table)):
        assert service_rate(SystemConfig(1000, 3, alpha), access, service) == \
            table[alpha - 1].service_rate


def test_kernel_results_do_not_depend_on_the_chunk_size(monkeypatch):
    access, service = SEARCHES[1][:2]
    alphas = list(range(1, 334))
    whole = expected_metrics(access, service, 1000, 3, alphas)
    monkeypatch.setattr(numerics, "_CHUNK_CELLS", 1)  # one alpha per chunk
    single = expected_metrics(access, service, 1000, 3, alphas)
    assert np.array_equal(whole[0], single[0]) and np.array_equal(whole[1], single[1])


def counting(calls: list, name: str, fn):
    def wrapper(*args):
        calls.append(name)
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("access, service", [search[:2] for search in SEARCHES])
def test_a_kernel_call_walks_its_anchors_once_across_chunks(monkeypatch, access, service):
    calls: list = []
    for name in ("_walk_anchors", "_truncated_power", "_rows_from_mode"):
        monkeypatch.setattr(numerics, name, counting(calls, name, getattr(numerics, name)))
    monkeypatch.setattr(numerics.math, "comb", counting(calls, "comb", math.comb))
    monkeypatch.setattr(numerics, "_CHUNK_CELLS", 4096)
    expected_metrics(access, service, 1000, 3, feasible_alphas(1000, 3, access))
    assert calls.count("_rows_from_mode") >= 3  # one per chunk
    assert calls.count("_walk_anchors") == 1
    # one exact start: C(D, k) C(N-D, r-k) / C(N, r), or two powers and C(D, k)
    starts = [call for call in calls if call in ("comb", "_truncated_power")]
    if isinstance(access, Probabilistic):
        assert starts == ["_truncated_power", "_truncated_power", "comb"]
    else:
        assert starts == ["comb"] * 3


def test_tail_underflow_is_silent_under_strict_numpy_error_state():
    # with q = 0.001 the masses at phi >= alpha reach subnormal range by alpha = 35
    access, service = Probabilistic(0.999), ShiftedExp(3.0, 1.0)
    alphas = [1, 35, 60, 333]
    quiet = expected_metrics(access, service, 1000, 3, alphas)
    with np.errstate(all="raise"):
        strict = expected_metrics(access, service, 1000, 3, alphas)
    assert np.array_equal(quiet[0], strict[0]) and np.array_equal(quiet[1], strict[1])
    assert strict[1][-1] == 0.0


# --- certificate verdicts beyond paper scale ---------------------------------------
# Seeded configurations at N = 1000, CERT_DRAWS per (access, service, m) cell: an
# "optimal" verdict needs alpha* = 1, a "non-optimal" one some alpha beating alpha = 1.

CERT_NODES = 1000
CERT_DRAWS = 4
CERT_SERVICES = [(ScaledExp(1.0), ("scaled", 1.0)), (ShiftedExp(3.0, 1.0), ("shifted", 3.0, 1.0))]


def certificate_configs():
    rng = random.Random(20261018)
    out = []
    for service, oracle_service in CERT_SERVICES:
        for m in range(1, 5):
            for _ in range(CERT_DRAWS):
                r, p = rng.randint(2, CERT_NODES), rng.randint(1, 99) / 100
                out.append((FixedSize(r), ("fixed", r), service, oracle_service, m))
                # the oracle reads p's exact binary value, as the kernel does
                out.append((Probabilistic(p), ("prob", p), service, oracle_service, m))
    return out


@pytest.mark.parametrize("access, oracle_access, service, oracle_service, m",
                         certificate_configs(), ids=repr)
def test_certificate_verdicts_hold_at_a_thousand_nodes(access, oracle_access, service,
                                                       oracle_service, m):
    verdict = classify(access, service, m, nodes=CERT_NODES).verdict
    if verdict == "indeterminate":
        return
    rates = [row.service_rate for row in alpha_table(access, service, CERT_NODES, m)]

    def beats_alpha_1(alpha):
        # rates within 1e-12 relative are settled by the oracle, not by a slack
        rate, rate_1 = rates[alpha - 1], rates[0]
        if abs(rate - rate_1) > 1e-12 * rate_1:
            return rate > rate_1
        return (oracle_metrics(CERT_NODES, m, alpha, oracle_access, oracle_service)[0]
                > oracle_metrics(CERT_NODES, m, 1, oracle_access, oracle_service)[0])

    beaten = any(beats_alpha_1(alpha) for alpha in range(2, len(rates) + 1))
    assert beaten == (verdict == "non-optimal")
