from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from dss_alloc.errors import ConfigurationError
from dss_alloc.numerics import (
    binomial,
    binomial_pmf,
    harmonic,
    harmonic_gap,
    harmonic_gaps,
    hypergeometric_pmf,
    hypergeometric_rows,
)

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
    lo, hi, _ = hypergeometric_rows(N, [D], r)
    return range(int(lo[0]), int(hi[0]) + 1)


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
    assert hypergeometric_pmf(phi, N, D, r) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("N,D,r", [(6, 2, 3), (7, 4, 5), (8, 8, 3), (9, 1, 9)])
def test_hypergeometric_pmf_matches_enumeration(N, D, r):
    for phi in support_from_rows(N, D, r):
        want = hypergeometric_by_enumeration(phi, N, D, r)
        assert hypergeometric_pmf(phi, N, D, r) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_hypergeometric_pmf_sums_to_one(seed):
    local = random.Random(seed)
    N = local.randint(1, 120)
    D = local.randint(0, N)
    r = local.randint(0, N)
    total = sum(hypergeometric_pmf(phi, N, D, r) for phi in support_from_rows(N, D, r))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_hypergeometric_pmf_zero_off_support():
    assert hypergeometric_pmf(5, 10, 4, 3) == 0.0
    assert hypergeometric_pmf(1, 10, 4, 8) == 0.0


@pytest.mark.parametrize("N,D,r", [(5, 6, 2), (5, 2, 6), (-1, 0, 0), (5, -1, 2)])
def test_hypergeometric_pmf_rejects_bad_parameters(N, D, r):
    with pytest.raises(ConfigurationError):
        hypergeometric_pmf(0, N, D, r)


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
    assert binomial_pmf(phi, n, q) == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("seed", range(25))
def test_binomial_pmf_sums_to_one(seed):
    local = random.Random(seed)
    n = local.randint(0, 80)
    q = local.random()
    assert sum(binomial_pmf(phi, n, q) for phi in range(n + 1)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_binomial_pmf_matches_exact_rational(seed):
    local = random.Random(seed)
    n = local.randint(1, 20)
    q = Fraction(local.randint(1, 9), 10)
    for phi in range(n + 1):
        want = float(math.comb(n, phi) * q**phi * (1 - q) ** (n - phi))
        assert binomial_pmf(phi, n, float(q)) == pytest.approx(want, rel=1e-9)


def test_binomial_pmf_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        binomial_pmf(0, -1, 0.5)
    with pytest.raises(ConfigurationError):
        binomial_pmf(0, 3, 1.5)
