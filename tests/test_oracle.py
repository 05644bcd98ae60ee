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
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for start, hi, probs in rows([1, 2_500, 10_000]):
        assert np.all(probs >= 0.0)
        for column in range(probs.shape[1]):  # row i holds phi = start + i
            assert not probs[hi[column] - start[column] + 1:, column].any()
            assert abs(probs[:, column].sum() - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "rows",
    [
        lambda data: hypergeometric_rows(30_000, data, 9_000),
        lambda data: binomial_rows(data, 1.0 - 0.3),
    ],
)
def test_pmf_columns_sum_to_one_at_thirty_thousand_nodes(rows):
    for start, hi, probs in rows([3, 7_500, 22_500, 30_000]):
        for column in range(probs.shape[1]):  # row i holds phi = start + i
            assert not probs[hi[column] - start[column] + 1:, column].any()
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
    for name in ("_walk_anchors", "_rows_from_mode"):
        monkeypatch.setattr(numerics, name, counting(calls, name, getattr(numerics, name)))
    monkeypatch.setattr(numerics.math, "comb", counting(calls, "comb", math.comb))
    monkeypatch.setattr(numerics, "_CHUNK_CELLS", 4096)
    expected_metrics(access, service, 1000, 3, feasible_alphas(1000, 3, access))
    assert calls.count("_rows_from_mode") >= 3  # one per chunk
    assert calls.count("_walk_anchors") == 1
    assert "comb" not in calls  # the walk starts at the empty column, whose mass is 1


@pytest.mark.parametrize("access, alpha", [(FixedSize(300_000), 50),
                                           (Probabilistic(0.3), 100_000)])
def test_a_call_at_a_million_nodes_walks_its_anchor_in_small_steps(monkeypatch, access, alpha):
    # no big-integer start: every falling factorial of the walk is a short one
    calls: list = []
    factors: list = []
    monkeypatch.setattr(numerics.math, "comb", counting(calls, "comb", math.comb))
    monkeypatch.setattr(numerics, "perm", lambda n, k: factors.append(k) or math.perm(n, k))
    expected_metrics(access, None, 10**6, 3, [alpha])
    assert "comb" not in calls
    assert factors and max(factors) <= 2 * numerics._STEP


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
# Seeded configurations at N = 1000, CERT_DRAWS per (access, service, m) cell.

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


def verdict_ties(nodes, m, access, oracle_access, service, oracle_service) -> int:
    """Check classify's verdict against every alpha; return how many the oracle settled.

    An "optimal" verdict needs alpha* = 1, a "non-optimal" one some alpha
    beating alpha = 1. Rates within 1e-12 relative are settled by the oracle,
    not by a slack.
    """
    verdict = classify(access, service, m, nodes=nodes).verdict
    if verdict == "indeterminate":
        return 0
    rates = [row.service_rate for row in alpha_table(access, service, nodes, m)]
    ties = 0

    def beats_alpha_1(alpha):
        nonlocal ties
        rate, rate_1 = rates[alpha - 1], rates[0]
        if abs(rate - rate_1) > 1e-12 * rate_1:
            return rate > rate_1
        ties += 1
        return (oracle_metrics(nodes, m, alpha, oracle_access, oracle_service)[0]
                > oracle_metrics(nodes, m, 1, oracle_access, oracle_service)[0])

    beaten = [beats_alpha_1(alpha) for alpha in range(2, len(rates) + 1)]
    assert any(beaten) == (verdict == "non-optimal")
    return ties


@pytest.mark.parametrize("access, oracle_access, service, oracle_service, m",
                         certificate_configs(), ids=repr)
def test_certificate_verdicts_hold_at_a_thousand_nodes(access, oracle_access, service,
                                                       oracle_service, m):
    verdict_ties(CERT_NODES, m, access, oracle_access, service, oracle_service)


# The same check at N = 10^4, one seeded draw per (access, service, m) cell.

def certificate_configs_at(nodes, draws, seed):
    rng = random.Random(seed)
    out = []
    for service, oracle_service in CERT_SERVICES:
        for m in range(1, 5):
            for _ in range(draws):
                r, p = rng.randint(2, nodes), rng.randint(1, 99) / 100
                out.append((FixedSize(r), ("fixed", r), service, oracle_service, m))
                out.append((Probabilistic(p), ("prob", p), service, oracle_service, m))
    return out


@pytest.mark.parametrize("access, oracle_access, service, oracle_service, m",
                         certificate_configs_at(10**4, 1, 20261019), ids=repr)
def test_certificate_verdicts_hold_at_ten_thousand_nodes(access, oracle_access, service,
                                                         oracle_service, m):
    verdict_ties(10**4, m, access, oracle_access, service, oracle_service)


# Seeded configurations whose p is the float nearest a crossing of mu_s(alpha) and
# mu_s(1): N = 40, m = 1, shifted service. Their certificates are decisive: the
# crossings of alpha = 4..18 (delta = 3) and 3..40 (delta = 6) lie below the
# non-optimality threshold, where alpha = 2 wins. The certificate thresholds
# themselves tie nothing: at p = 5/6 and 37/42 (N = 40, m = 2) alpha = 2 is 42%
# and 56% below alpha = 1.
TIE_NODES = 40
TIE_DRAWS = 4


def rate_gap(p, service, alpha):
    rates, _ = expected_metrics(Probabilistic(p), service, TIE_NODES, 1, [1, alpha])
    return rates[1] - rates[0]


def nearest_crossing(service, alpha):
    """The float p nearest the first sign change of mu_s(alpha) - mu_s(1), by bisection."""
    grid = [k / 200 for k in range(1, 200)]
    lo, hi = next((lo, hi) for lo, hi in zip(grid, grid[1:])
                  if (rate_gap(lo, service, alpha) > 0) != (rate_gap(hi, service, alpha) > 0))
    above = rate_gap(lo, service, alpha) > 0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return min((lo, hi), key=lambda p: abs(rate_gap(p, service, alpha)))
        if (rate_gap(mid, service, alpha) > 0) == above:
            lo = mid
        else:
            hi = mid


def tie_configs():
    rng = random.Random(20261019)
    out = []
    for _ in range(TIE_DRAWS):
        delta = rng.choice((3.0, 6.0))
        alpha = rng.randint(4, 18) if delta == 3.0 else rng.randint(3, 40)
        out.append((delta, alpha))
    return out


@pytest.mark.parametrize("delta, alpha", tie_configs())
def test_verdicts_near_a_rate_crossing_are_settled_by_the_oracle(delta, alpha):
    service = ShiftedExp(delta, 1.0)
    p = nearest_crossing(service, alpha)
    ties = verdict_ties(TIE_NODES, 1, Probabilistic(p), ("prob", p), service,
                        ("shifted", delta, 1.0))
    assert ties >= 1


# --- the kernel against the oracle at N = 10^4 and 10^5 ----------------------------
# Both benchmark searches scaled up: fixed r = 0.3 N under scaled service and
# p = 0.3 under shifted (3, 1) service, m = 3. The oracle sums outward from one
# exact anchor, so its cost follows the column's spread, not its support.

FLOAT_TINY = 2.0 ** -1022  # the smallest normal float


def walk_oracle(nodes, m, alpha, access, service):
    """(mu_s, P_s) as mpf values at DIGITS digits, summed outward from one exact mass.

    The walk starts at phi0 = max(alpha, mode) with the exact mass there and
    the harmonic gap from mpmath.harmonic, and steps both ways by the ratio
    P(phi+1)/P(phi), updating the gap by one term at each end. The pmf is
    log-concave, so past phi0 the ratios away from it only shrink: once a
    step's ratio rho < 1 bounds every later one, the rest of that side's
    mass is below P(phi) rho / (1 - rho), and its rates below the largest
    conditional rate on that side (the rate is nondecreasing in phi). A side
    stops when that bound is 10^-30 of both running sums.
    """
    data = m * alpha
    with mpmath.workdps(DIGITS):
        mpf = mpmath.mpf
        if access[0] == "fixed":
            r = access[1]
            lo, hi = max(0, r - nodes + data), min(r, data)
            mode = min(max((r + 1) * (data + 1) // (nodes + 2), lo), hi)

            def mass(k):
                return (mpmath.binomial(data, k) * mpmath.binomial(nodes - data, r - k)
                        / mpmath.binomial(nodes, r))

            def ratio(phi):  # P(phi + 1) / P(phi)
                return mpf((data - phi) * (r - phi)) / ((phi + 1) * (nodes - r - data + phi + 1))
        else:
            q = 1 - mpf(access[1])
            lo, hi = 0, data
            mode = min(int(mpmath.floor((data + 1) * q)), data)

            def mass(k):
                return mpmath.binomial(data, k) * q ** k * (1 - q) ** (data - k)

            def ratio(phi):  # infinite under q = 1, whose one point is phi = data
                return (data - phi) * q / ((phi + 1) * (1 - q)) if q < 1 else mpmath.inf

        if service[0] == "scaled":
            def rate(gap):
                return alpha * mpf(service[1]) / gap
        else:
            def rate(gap):
                delta, mu = mpf(service[1]), mpf(service[2])
                return alpha * mu / (delta * mu + alpha * gap)

        phi0 = max(alpha, mode)
        if phi0 > hi:
            return mpf(0), mpf(0)
        p0 = mass(phi0)
        gap0 = mpmath.harmonic(phi0) - mpmath.harmonic(phi0 - alpha)
        total_rate, total_prob = p0 * rate(gap0), p0
        top_rate = rate(mpmath.harmonic(hi) - mpmath.harmonic(hi - alpha))

        phi, prob, gap = phi0, p0, gap0  # upwards
        while phi < hi:
            rho = ratio(phi)
            if rho < 1 and prob * rho / (1 - rho) <= mpf(10) ** -30 * min(
                    total_prob, total_rate / top_rate):
                break
            prob *= rho
            gap += mpf(1) / (phi + 1) - mpf(1) / (phi + 1 - alpha)
            phi += 1
            total_rate += prob * rate(gap)
            total_prob += prob
        phi, prob, gap = phi0, p0, gap0  # downwards, to alpha at the lowest
        while phi > max(alpha, lo):
            rho = 1 / ratio(phi - 1)  # P(phi - 1) / P(phi)
            if rho < 1 and prob * rho / (1 - rho) <= mpf(10) ** -30 * min(
                    total_prob, total_rate / rate(gap)):
                break
            prob *= rho
            gap -= mpf(1) / phi - mpf(1) / (phi - alpha)
            phi -= 1
            total_rate += prob * rate(gap)
            total_prob += prob
        return total_rate, total_prob


def scale_alphas(nodes, fixed):
    """Seeded alphas: small ones at or below the mode, draws across the range and,
    under fixed-size access, draws above r = 0.3 nodes and near the top of the
    range, where the masked column underflows."""
    rng = random.Random(nodes + fixed)
    top, r = nodes // 3, 3 * nodes // 10
    alphas = [1, 2, 3] + [rng.randint(4, top) for _ in range(3)]
    if fixed:
        alphas += [rng.randint(r - r // 6, r), rng.randint(r + 1, top)]
    return alphas


def assert_matches(got, want, label):
    """1e-12 relative; a value below the normal float range is compared with the
    absolute bound 2^-1022 instead, since its float carries absolute, not
    relative, rounding error."""
    if want < FLOAT_TINY:
        assert abs(got - want) <= FLOAT_TINY, label
    else:
        assert abs(got - want) <= 1e-12 * want, label


@pytest.mark.parametrize("nodes", [10**4, 10**5])
@pytest.mark.parametrize("access, service, oracle_access, oracle_service", SEARCHES,
                         ids=["fixed", "probabilistic"])
def test_scaled_up_search_rows_match_the_oracle(nodes, access, service, oracle_access,
                                                oracle_service):
    fixed = isinstance(access, FixedSize)
    if fixed:
        access, oracle_access = FixedSize(3 * nodes // 10), ("fixed", 3 * nodes // 10)
    alphas = scale_alphas(nodes, fixed)
    rates, recovery = expected_metrics(access, service, nodes, 3, alphas)
    for alpha, rate, prob in zip(alphas, rates, recovery):
        want_rate, want_prob = walk_oracle(nodes, 3, alpha, oracle_access, oracle_service)
        assert_matches(rate, want_rate, ("rate", alpha))
        assert_matches(prob, want_prob, ("recovery", alpha))
        if fixed and alpha > access.r:
            assert rate == prob == 0.0


# One alpha at a time at N = 10^6, m = 3: fixed r = 0.3 N (mode about 0.9 alpha)
# and 0.9 N (2.7 alpha), p = 0.3 (2.1 alpha) and 0.7 (0.9 alpha), so alphas
# below, at (alpha = 1) and above the mode; and one row at N = 10^7. Each
# column's anchor lies up to 10^6 data nodes from where the anchor walk starts.
PAST_SCALE = [
    (FixedSize(300_000), ScaledExp(1.0), ("fixed", 300_000), ("scaled", 1.0)),
    (FixedSize(900_000), ScaledExp(1.0), ("fixed", 900_000), ("scaled", 1.0)),
    (Probabilistic(0.3), ShiftedExp(3.0, 1.0), ("prob", "0.3"), ("shifted", 3.0, 1.0)),
    (Probabilistic(0.7), ShiftedExp(3.0, 1.0), ("prob", "0.7"), ("shifted", 3.0, 1.0)),
]


@pytest.mark.parametrize("access, service, oracle_access, oracle_service", PAST_SCALE,
                         ids=["fixed-0.3", "fixed-0.9", "p-0.3", "p-0.7"])
@pytest.mark.parametrize("alpha", [1, 50, 500, 100_000, 333_333])
def test_one_alpha_rows_at_a_million_nodes_match_the_oracle(access, service, oracle_access,
                                                            oracle_service, alpha):
    rates, recovery = expected_metrics(access, service, 10**6, 3, [alpha])
    want_rate, want_prob = walk_oracle(10**6, 3, alpha, oracle_access, oracle_service)
    assert_matches(rates[0], want_rate, "rate")
    assert_matches(recovery[0], want_prob, "recovery")


def test_a_row_at_ten_million_nodes_matches_the_oracle():
    access, service, oracle_access, oracle_service = SEARCHES[1]
    rates, recovery = expected_metrics(access, service, 10**7, 3, [10**6])
    want_rate, want_prob = walk_oracle(10**7, 3, 10**6, oracle_access, oracle_service)
    assert_matches(rates[0], want_rate, "rate")
    assert_matches(recovery[0], want_prob, "recovery")


@pytest.mark.parametrize("access, service, oracle_access, oracle_service", SEARCHES,
                         ids=["fixed", "probabilistic"])
def test_the_walk_oracle_equals_direct_summation(access, service, oracle_access,
                                                 oracle_service):
    # alphas below, at and above the mode, and above r under fixed-size access
    for alpha in (1, 2, 42, 299, 300, 301):
        walked = walk_oracle(1000, 3, alpha, oracle_access, oracle_service)
        direct = oracle_metrics(1000, 3, alpha, oracle_access, oracle_service)
        for got, want in zip(walked, direct):
            assert abs(got - want) <= mpmath.mpf(10) ** -28 * want, alpha


# p = 0.3 rows whose band starts a few rows above alpha: the lower cut drops
# the rows from alpha up to the start, and these rows check it against the oracle
def test_rows_whose_band_starts_just_above_alpha_match_the_oracle():
    access, service, oracle_access, oracle_service = SEARCHES[1]
    alphas = list(range(60, 69))
    first = 0
    for start, _, _ in access.rows(10**4, 3 * np.array(alphas), np.array(alphas)):
        cut = start - np.array(alphas[first:first + len(start)])
        assert ((cut >= 1) & (cut <= 5)).all(), cut
        first += len(start)
    rates, recovery = expected_metrics(access, service, 10**4, 3, alphas)
    for alpha, rate, prob in zip(alphas, rates, recovery):
        want_rate, want_prob = walk_oracle(10**4, 3, alpha, oracle_access, oracle_service)
        assert_matches(rate, want_rate, ("rate", alpha))
        assert_matches(prob, want_prob, ("recovery", alpha))


# Rows of tools/row_bits.py's tiny-anchor systems whose anchor P(alpha), far above
# the mode, sits just above and just below the smallest normal float 2^-1022,
# where the band's cut T = 2^-60 P(alpha) / D lies below the smallest subnormal
@pytest.mark.parametrize("access, nodes, m, alphas, oracle_access", [
    (Probabilistic(0.9), 4000, 3, [1165, 1166, 1167, 1168], ("prob", "0.9")),
    (FixedSize(1200), 10_000, 4, [1103, 1106, 1109, 1112], ("fixed", 1200)),
], ids=["p-0.9", "fixed-1200"])
def test_rows_whose_anchor_straddles_the_smallest_normal_match_the_oracle(access, nodes, m,
                                                                          alphas, oracle_access):
    for service, oracle_service in ((ScaledExp(1.0), ("scaled", 1.0)),
                                    (ShiftedExp(3.0, 1.0), ("shifted", 3.0, 1.0))):
        rates, recovery = expected_metrics(access, service, nodes, m, alphas)
        wants = []
        for alpha, rate, prob in zip(alphas, rates, recovery):
            want_rate, want_prob = walk_oracle(nodes, m, alpha, oracle_access, oracle_service)
            assert_matches(rate, want_rate, ("rate", service, alpha))
            assert_matches(prob, want_prob, ("recovery", service, alpha))
            wants.append(want_prob)
        assert max(wants) >= FLOAT_TINY > min(wants)


# --- a property gate: drawn systems, alpha lists and chunk shapes ------------------
# Every row against the walk oracle, and every one-alpha call against its row
# bit for bit, at N up to 10^5, under q = 0 and 1, dyadic, tiny and drawn p,
# and chunks of one cell, seven cells and the default.

@st.composite
def oracle_systems(draw):
    nodes = draw(st.integers(1, 10**5))
    m = draw(st.integers(1, min(nodes, 8)))
    if draw(st.booleans()):
        access = FixedSize(draw(st.integers(1, nodes)))
        oracle_access = ("fixed", access.r)
    else:
        access = Probabilistic(draw(st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.75, 2.0**-40])
                                    | st.floats(0.0, 1.0)))
        # the oracle reads the kernel's float64 q = 1 - p, so a drawn p's
        # rounding is not charged to the kernel
        with mpmath.workdps(DIGITS):
            oracle_access = ("prob", 1 - mpmath.mpf(1.0 - access.p))
    alphas = draw(st.lists(st.integers(1, nodes // m), min_size=1, max_size=4))  # repeats
    service, oracle_service = draw(st.sampled_from(CERT_SERVICES))
    cells = draw(st.sampled_from([1, 7, numerics._CHUNK_CELLS]))
    return nodes, m, access, oracle_access, service, oracle_service, alphas, cells


@settings(derandomize=True, max_examples=200, deadline=None)
@given(oracle_systems())
def test_drawn_systems_match_the_oracle_and_their_one_alpha_calls(system):
    nodes, m, access, oracle_access, service, oracle_service, alphas, cells = system
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_CHUNK_CELLS", cells)
        rates, recovery = expected_metrics(access, service, nodes, m, alphas)
        for alpha, rate, prob in zip(alphas, rates, recovery):
            want_rate, want_prob = walk_oracle(nodes, m, alpha, oracle_access, oracle_service)
            assert_matches(rate, want_rate, ("rate", alpha))
            assert_matches(prob, want_prob, ("recovery", alpha))
            one_rate, one_prob = expected_metrics(access, service, nodes, m, [alpha])
            assert (one_rate[0], one_prob[0]) == (rate, prob), alpha
