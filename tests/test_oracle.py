"""High-precision checks of the expectation kernel beyond paper scale.

mpmath at 40 significant digits is the oracle; model parameters are read at
their decimal face value (p = 0.3 means 3/10), as the benchmark's reference
reads them.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from dss_alloc import analysis
from dss_alloc.analysis import (
    alpha_table,
    expected_metrics,
    optimal_alpha,
    recovery_probability,
    service_rate,
)
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
    """(mu_s, P_s) by direct summation in mpmath."""
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
        return float(rate), float(recovery)


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
        want_rate, want_prob = oracle_metrics(1000, 3, alpha, oracle_access, oracle_service)
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
    lo, hi, probs = rows([1, 2_500, 10_000])
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
    lo, hi, probs = rows([3, 7_500, 22_500, 30_000])
    for column in range(probs.shape[1]):
        assert not probs[:lo[column], column].any() and not probs[hi[column] + 1:, column].any()
        assert abs(probs[:, column].sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("nodes, m, alphas", [(40, 4, [9, 2, 2, 5]),
                                              (1000, 3, [300, 2, 2, 150, 299, 1])])
@pytest.mark.parametrize("access, service", [(FixedSize(20), ScaledExp(1.0)),
                                             (Probabilistic(0.3), ShiftedExp(3.0, 1.0))])
def test_unsorted_alpha_tables_equal_their_one_alpha_calls(nodes, m, alphas, access, service):
    # a column behind the walk restarts it, so the order of alphas changes no bit
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
    monkeypatch.setattr(analysis, "_CHUNK_CELLS", 1)  # one alpha per chunk
    single = expected_metrics(access, service, 1000, 3, alphas)
    assert np.array_equal(whole[0], single[0]) and np.array_equal(whole[1], single[1])


def test_tail_underflow_is_silent_under_strict_numpy_error_state():
    # with q = 0.001 the masses at phi >= alpha reach subnormal range by alpha = 35
    access, service = Probabilistic(0.999), ShiftedExp(3.0, 1.0)
    alphas = [1, 35, 60, 333]
    quiet = expected_metrics(access, service, 1000, 3, alphas)
    with np.errstate(all="raise"):
        strict = expected_metrics(access, service, 1000, 3, alphas)
    assert np.array_equal(quiet[0], strict[0]) and np.array_equal(quiet[1], strict[1])
    assert strict[1][-1] == 0.0
