from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dss_alloc import numerics
from dss_alloc.analysis import access_pmf
from dss_alloc.errors import ConfigurationError, InfeasibleError
from dss_alloc.models import FixedSize, SystemConfig
from dss_alloc.numerics import (
    _walk_anchors,
    binomial,
    binomial_rows,
    harmonic,
    harmonic_gap,
    harmonic_gaps,
    hypergeometric_rows,
    spread_binomials,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

rng = random.Random(20240817)


# --- independent oracles -------------------------------------------------

def harmonic_by_summation(n: int) -> Fraction:
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def pascal_triangle(rows: int) -> list[list[int]]:
    triangle = [[1]]
    for _ in range(rows):
        prev = triangle[-1]
        triangle.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return triangle


def support_from_rows(N: int, D: int, r: int) -> range:
    (lo, hi, _), = hypergeometric_rows(N, [D], r)
    return range(int(lo[0]), int(hi[0]) + 1)


# exact masses as (numerator, denominator); int true division rounds such a
# ratio once, as float(Fraction(numerator, denominator)) does, without the gcd

def hypergeometric_ratio(phi: int, N: int, D: int, r: int) -> tuple[int, int]:
    return math.comb(D, phi) * math.comb(N - D, r - phi), math.comb(N, r)


def binomial_ratio(phi: int, n: int, q: float) -> tuple[int, int]:
    a, scale = q.as_integer_ratio()  # the float's binary value, as the pmf reads it
    return math.comb(n, phi) * a**phi * (scale - a) ** (n - phi), scale**n


def binomial_column(n: int, q: float):
    (_, _, probs), = binomial_rows([n], q)
    return probs[:, 0]


def hypergeometric_column(N: int, D: int, r: int):
    (_, _, probs), = hypergeometric_rows(N, [D], r)
    return probs[:, 0]


def hypergeometric_modes(N: int, data: list[int], r: int) -> list[int]:
    return [min(max((r + 1) * (D + 1) // (N + 2), r - (N - D), 0), r, D) for D in data]


def binomial_modes(data: list[int], q: float) -> list[int]:
    return [min(math.floor((D + 1) * q), D) for D in data]


def hypergeometric_by_enumeration(phi: int, N: int, D: int, r: int) -> float:
    hits = sum(
        1
        for subset in itertools.combinations(range(N), r)
        if sum(1 for node in subset if node < D) == phi
    )
    return hits / math.comb(N, r)


# --- harmonic numbers ----------------------------------------------------

def test_harmonic_small_values_are_exact():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)


@pytest.mark.parametrize("n", [3, 7, 19, 64, 257])
def test_harmonic_matches_direct_summation(n):
    assert harmonic(n) == harmonic_by_summation(n)


def test_harmonic_matches_log_growth():
    # H_n from the double-double table; exact harmonic is checked by summation above
    n = 50_000
    assert float(harmonic_gaps(n, n)) == pytest.approx(math.log(n) + 0.5772156649015329,
                                                       abs=1e-4)


def test_harmonic_rejects_negative():
    with pytest.raises(ConfigurationError):
        harmonic(-1)


@pytest.mark.parametrize("phi,alpha", [(1, 1), (4, 1), (4, 4), (9, 3), (40, 10)])
def test_harmonic_gap_is_a_partial_sum(phi, alpha):
    want = sum(1.0 / i for i in range(phi - alpha + 1, phi + 1))
    assert harmonic_gap(phi, alpha) == pytest.approx(want, rel=1e-12)


# --- binomial coefficients -----------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 50])
def test_spread_binomials_step_to_the_direct_coefficients(m):
    want = [math.comb(m * alpha - 1, alpha - 1) for alpha in range(1, 301)]
    assert list(itertools.islice(spread_binomials(m), 300)) == want


def test_spread_binomials_step_cheaply_at_a_million_copies():
    # a step takes 2 min(m, alpha) - 1 factors, not 2m - 1
    m = 10**6
    want = [math.comb(m * alpha - 1, alpha - 1) for alpha in (1, 2, 3)]
    assert list(itertools.islice(spread_binomials(m), 3)) == want


def test_binomial_matches_pascal_triangle():
    triangle = pascal_triangle(40)
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == triangle[n][k]


def test_binomial_reference_value():
    assert binomial(40, 10) == 847_660_528


@pytest.mark.parametrize("n,k", [(5, -1), (5, 6), (-1, 0), (0, 1)])
def test_binomial_is_zero_outside_the_domain(n, k):
    assert binomial(n, k) == 0


@pytest.mark.parametrize("seed", range(30))
def test_binomial_satisfies_pascal_identity(seed):
    local = random.Random(seed)
    n = local.randint(1, 300)
    k = local.randint(0, n)
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


# --- hypergeometric pmf --------------------------------------------------

def test_hypergeometric_support_bounds():
    assert support_from_rows(10, 4, 3) == range(0, 4)
    assert support_from_rows(10, 4, 8) == range(2, 5)
    assert support_from_rows(6, 6, 2) == range(2, 3)
    assert support_from_rows(5, 0, 3) == range(0, 1)


@pytest.mark.parametrize(
    "phi,N,D,r,want",
    [
        (1, 4, 2, 2, 2 / 3),
        (0, 10, 0, 3, 1.0),
        (2, 6, 2, 3, 0.2),
        (3, 6, 4, 3, 4 / 20),
    ],
)
def test_hypergeometric_pmf_small_cases(phi, N, D, r, want):
    assert hypergeometric_column(N, D, r)[phi] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("N,D,r", [(6, 2, 3), (7, 4, 5), (8, 8, 3), (9, 1, 9)])
def test_hypergeometric_pmf_matches_enumeration(N, D, r):
    column = hypergeometric_column(N, D, r)
    for phi in support_from_rows(N, D, r):
        want = hypergeometric_by_enumeration(phi, N, D, r)
        assert column[phi] == pytest.approx(want, rel=1e-12)
        assert column[phi] == pytest.approx(float(Fraction(*hypergeometric_ratio(phi, N, D, r))),
                                            rel=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_hypergeometric_pmf_sums_to_one(seed):
    local = random.Random(seed)
    N = local.randint(1, 120)
    D = local.randint(0, N)
    r = local.randint(0, N)
    column = hypergeometric_column(N, D, r)
    support = support_from_rows(N, D, r)
    total = sum(column[phi] for phi in support)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert not column[:support.start].any() and len(column) == support.stop


def test_hypergeometric_pmf_zero_off_support():
    # phi = 5 lies past the support end min(r, D) = 3, where the column ends
    assert len(hypergeometric_column(10, 4, 3)) == 4
    # phi = 1 lies below the support start r - (N - D) = 2
    assert hypergeometric_column(10, 4, 8)[:2].tolist() == [0.0, 0.0]
    # a taller column in the same chunk pads a shorter one with zeros
    (_, hi, probs), = hypergeometric_rows(10, [2, 4], 3)
    assert hi.tolist() == [2, 3] and probs[3, 0] == 0.0


@pytest.mark.parametrize("N,D,r", [(5, 6, 2), (5, 2, 6), (-1, 0, 0), (5, -1, 2)])
def test_hypergeometric_pmf_rejects_bad_parameters(N, D, r):
    # the models refuse these before any pmf is built: D = m alpha > N,
    # r > N, a non-positive N or r, and a negative D
    with pytest.raises((ConfigurationError, InfeasibleError)):
        access_pmf(SystemConfig(N, 1, D), FixedSize(r))


# --- binomial pmf ---------------------------------------------------------

@pytest.mark.parametrize(
    "phi,n,q,want",
    [
        (1, 2, 0.5, 0.5),
        (2, 3, 0.7, 0.441),
        (0, 3, 0.0, 1.0),
        (3, 3, 1.0, 1.0),
        (2, 3, 1.0, 0.0),
    ],
)
def test_binomial_pmf_small_cases(phi, n, q, want):
    assert binomial_column(n, q)[phi] == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("seed", range(25))
def test_binomial_pmf_sums_to_one(seed):
    local = random.Random(seed)
    n = local.randint(0, 80)
    q = local.random()
    assert binomial_column(n, q).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_binomial_pmf_matches_exact_rational(seed):
    local = random.Random(seed)
    n = local.randint(1, 20)
    q = local.randint(1, 9) / 10
    column = binomial_column(n, q)
    for phi in range(n + 1):
        assert column[phi] == pytest.approx(float(Fraction(*binomial_ratio(phi, n, q))), rel=1e-12)


# --- mode anchors: the walk over the columns ------------------------------
#
# Each anchor must be the exact mass rounded once, bit for bit.

def assert_anchors_exact(data, N, r, q, checked=None):
    """Walk every column of data; compare the columns in checked (default all)."""
    if q is None:
        modes = hypergeometric_modes(N, data, r)
        exact = lambda c: hypergeometric_ratio(modes[c], N, data[c], r)
    else:
        modes = binomial_modes(data, q)
        exact = lambda c: binomial_ratio(modes[c], data[c], q)
    anchors = _walk_anchors(data, modes, N, r, q)
    for c in range(len(data)) if checked is None else checked:
        num, den = exact(c)
        assert anchors[c] == num / den, (data[c], modes[c])


def seeded_grid(seed: int):
    local = random.Random(seed)
    N = local.randint(1, 400)
    m = local.randint(1, min(4, N))
    r = local.choice([1, N, max(1, N - 1), local.randint(1, N)])
    q = local.choice([0.0, 1.0, round(0.05 * local.randint(1, 19), 2), local.random()])
    return N, [m * alpha for alpha in range(1, N // m + 1)], r, q


@pytest.mark.parametrize("seed", range(24))
def test_hypergeometric_anchors_are_the_exact_ratio_rounded_once(seed):
    N, data, r, _ = seeded_grid(seed)
    assert_anchors_exact(data, N, r, None)


@pytest.mark.parametrize("seed", range(24))
def test_binomial_anchors_are_the_exact_ratio_rounded_once(seed):
    _, data, _, q = seeded_grid(seed)
    assert_anchors_exact(data, 0, 0, q)


@pytest.mark.parametrize("N, r", [(5, 5), (12, 11), (40, 40), (40, 39), (300, 299), (300, 1)])
def test_hypergeometric_anchors_hold_where_the_mode_sits_on_the_support_edge(N, r):
    # r near N pins each mode to the lower support end r - (N - D)
    for m in (1, 2, 3):
        assert_anchors_exact([m * alpha for alpha in range(1, N // m + 1)], N, r, None)


@pytest.mark.parametrize("q", [0.0, 1.0, 1.0 - 0.3, 1.0 - 0.999, 2.0**-40])
def test_binomial_anchors_hold_at_extreme_q(q):
    assert_anchors_exact(list(range(1, 401)), 0, 0, q)


@pytest.mark.parametrize("N, r, q, checked", [
    (1000, 300, None, None),  # the search-scale column sets, every column
    (1000, 0, 1.0 - 0.3, None),
    (10_000, 3_000, None, 30),  # ten thousand nodes: a seeded sample of the columns
    (10_000, 0, 1.0 - 0.3, 30),
])
def test_anchors_are_exact_along_the_search_scale_walks(N, r, q, checked):
    alphas = range(1, (min(r, N // 3) if q is None else N // 3) + 1)
    data = [3 * alpha for alpha in alphas]
    if checked is not None:
        checked = [0, len(data) - 1] + random.Random(N).sample(range(len(data)), checked)
    assert_anchors_exact(data, N, r, q, checked)



@pytest.mark.parametrize("seed", range(8))
def test_unsorted_columns_get_the_anchors_of_their_own_data(seed):
    # the walk visits the columns in data order and writes each anchor back
    N, data, r, q = seeded_grid(seed)
    data = data + data[:3]
    random.Random(seed).shuffle(data)
    assert_anchors_exact(data, N, r, None)
    assert_anchors_exact(data, 0, 0, q)


# --- chunks: the builders split one call's matrix -------------------------

@pytest.mark.parametrize("cells", [None, 4096, 1], ids=["default", "4096", "1"])
@pytest.mark.parametrize("build", [
    lambda data: hypergeometric_rows(900, data, 270),
    lambda data: binomial_rows(data, 0.7),
], ids=["hypergeometric", "binomial"])
def test_each_chunk_holds_at_most_the_chunk_cells_or_one_column(monkeypatch, cells, build):
    if cells is not None:
        monkeypatch.setattr(numerics, "_CHUNK_CELLS", cells)
    data = [3 * alpha for alpha in range(1, 301)] + [899, 5, 5, 400]
    chunks = list(build(data))
    assert len(chunks) >= (1 if cells is None else 3)
    columns = []
    for lo, hi, probs in chunks:
        assert probs.size <= numerics._CHUNK_CELLS or probs.shape[1] == 1
        assert probs.shape == (hi.max() + 1, len(lo))  # as tall as its tallest column
        columns += [probs[:hi[c] + 1, c] for c in range(len(lo))]
    # consecutive columns in data order, each the one-column build bit for bit
    assert len(columns) == len(data)
    for D, column in zip(data, columns):
        (_, _, alone), = build([D])
        assert np.array_equal(column, alone[:, 0]), D
