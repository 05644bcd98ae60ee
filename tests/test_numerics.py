from __future__ import annotations

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dss_alloc import acceptance, analysis, numerics
from dss_alloc.analysis import access_pmf, expected_metrics, recovery_probability
from dss_alloc.errors import ConfigurationError, InfeasibleError
from dss_alloc.memo import ByteLRU
from dss_alloc.models import (
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ShiftedExp,
    SmallExp,
    SystemConfig,
    feasible_alphas,
)
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
from test_oracle import assert_matches, walk_oracle

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
    # row i holds phi = lo + i: a column starts at its support start
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
    with pytest.raises(ConfigurationError, match="alpha=5, phi=3"):  # a gap past phi
        harmonic_gap(3, 5)


@pytest.mark.parametrize("phi,alpha", [(1, 1), (4, 1), (4, 4), (9, 3), (40, 10)])
def test_harmonic_gap_is_a_partial_sum(phi, alpha):
    want = sum(1.0 / i for i in range(phi - alpha + 1, phi + 1))
    assert harmonic_gap(phi, alpha) == pytest.approx(want, rel=1e-12)


def table_in_one_pass(size: int):
    """The harmonic table as built in one pass over full-length arrays."""
    i = np.arange(1, size, dtype=np.float64)
    inverse = 1.0 / i
    product = inverse * i
    inverse_error = -((product - 1.0) + numerics._two_product_error(inverse, i, product)) / i
    hi = np.zeros(size)
    np.cumsum(inverse, out=hi[1:])
    step = hi[1:] - hi[:-1]
    add_error = (hi[:-1] - (hi[1:] - step)) + (inverse - step)
    lo = np.zeros(size)
    np.cumsum(add_error + inverse_error, out=lo[1:])
    return hi, lo


BLOCK = numerics._BLOCK


@pytest.mark.parametrize("size", [1, 2, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 5]
                         + [2**e for e in range(10, 23)])
def test_the_blocked_table_is_the_one_pass_table_bit_for_bit(size):
    hi, lo = numerics._build_table(size)
    want_hi, want_lo = table_in_one_pass(size)
    assert hi.tobytes() == want_hi.tobytes() and lo.tobytes() == want_lo.tobytes()


def test_a_table_of_four_million_entries_raises_peak_memory_by_at_most_96_mb():
    # 2^22 entries keep 64 MB; built in one pass, the peak rose by about 321 MB.
    # The child reads its own VmHWM: ru_maxrss would carry over the peak of the
    # process that forked it, which an earlier test here may have raised.
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    code = ("from dss_alloc import numerics\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "before = peak()\n"
            "numerics._harmonic_table(2**22 - 1)\n"
            "print(peak() - before)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 96 * 1024  # VmHWM is in kB


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
    lo = support_from_rows(N, D, r).start
    assert hypergeometric_column(N, D, r)[phi - lo] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("N,D,r", [(6, 2, 3), (7, 4, 5), (8, 8, 3), (9, 1, 9)])
def test_hypergeometric_pmf_matches_enumeration(N, D, r):
    column = hypergeometric_column(N, D, r)
    support = support_from_rows(N, D, r)
    for phi in support:
        want = hypergeometric_by_enumeration(phi, N, D, r)
        assert column[phi - support.start] == pytest.approx(want, rel=1e-12)
        assert column[phi - support.start] == pytest.approx(float(Fraction(*hypergeometric_ratio(phi, N, D, r))),
                                            rel=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_hypergeometric_pmf_sums_to_one(seed):
    local = random.Random(seed)
    N = local.randint(1, 120)
    D = local.randint(0, N)
    r = local.randint(0, N)
    column = hypergeometric_column(N, D, r)
    support = support_from_rows(N, D, r)
    assert sum(column) == pytest.approx(1.0, abs=1e-12)
    assert len(column) == len(support)


def test_hypergeometric_pmf_zero_off_support():
    # phi = 5 lies past the support end min(r, D) = 3, where the column ends
    assert len(hypergeometric_column(10, 4, 3)) == 4
    # phi = 0, 1 lie below the support start r - (N - D) = 2, where the column starts
    (start, _, probs), = hypergeometric_rows(10, [4], 8)
    assert start.tolist() == [2] and len(probs) == 3
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
    assert_anchors_exact([5_000], 0, 0, q)  # one column, walked in steps from D = 0


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
    # a third of the way and the last column, each alone: many steps from D = 0
    for D in (data[len(data) // 3 - 1], data[-1]):
        assert_anchors_exact([D], N, r, q)



@pytest.mark.parametrize("seed", range(8))
def test_unsorted_columns_get_the_anchors_of_their_own_data(seed):
    # the walk visits the columns in data order and writes each anchor back
    N, data, r, q = seeded_grid(seed)
    data = data + data[:3]
    random.Random(seed).shuffle(data)
    assert_anchors_exact(data, N, r, None)
    assert_anchors_exact(data, 0, 0, q)


@pytest.mark.parametrize("data, peak, N, r, q", [
    # masses from 1e-293 through the subnormal range to below it (0.0), with
    # rows that rise and fall between columns, as floors other than D / m can
    ([560, 600, 645, 661, 676, 700, 720], [0, 2, 12, 16, 20, 0, 30], 0, 0, 1.0 - 0.3),
    ([1000, 1000, 1050, 1100, 1200, 1200], [41, 38, 300, 77, 113, 121], 3000, 1500, None),
    # rows that rise and fall by hundreds, more than a step of the walk, also at one D
    ([1500, 1500, 1600, 1700, 1700], [1050, 330, 1120, 200, 1190], 0, 0, 1.0 - 0.3),
], ids=["binomial", "hypergeometric", "binomial-far"])
def test_subnormal_anchors_are_the_exact_mass_rounded_once(data, peak, N, r, q):
    anchors = _walk_anchors(data, peak, N, r, q)
    exact = [Fraction(*(hypergeometric_ratio(k, N, D, r) if q is None else
                        binomial_ratio(k, D, q))) for D, k in zip(data, peak)]
    assert any(0 < mass < Fraction(2)**-1022 for mass in exact)
    assert 0.0 in anchors
    for D, k, anchor, mass in zip(data, peak, anchors, exact):
        assert anchor == float(mass), (D, k)


def test_a_far_column_is_walked_in_constant_memory():
    # one column 10^5 data nodes from the empty column: the walk makes its 3,125 points
    # one at a time, where a list of them held about 0.36 MiB
    recovery_probability(SystemConfig(40, 1, 20), Probabilistic(0.5))  # warm: first imports
    tracemalloc.start()
    try:
        assert recovery_probability(SystemConfig(200_000, 1, 100_000), Probabilistic(0.5)) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


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
    for start, hi, probs in chunks:
        assert probs.size <= numerics._CHUNK_CELLS or probs.shape[1] == 1
        height = hi - start + 1
        assert probs.shape == (height.max(), len(start))  # as tall as its tallest column
        columns += [probs[:height[c], c] for c in range(len(start))]
    for (_, _, probs), (start, hi, _) in zip(chunks, chunks[1:]):
        # packed greedily by real height: the next chunk's first column did not fit
        assert (probs.shape[1] + 1) * max(probs.shape[0], hi[0] - start[0] + 1) > \
            numerics._CHUNK_CELLS
    # consecutive columns in data order, each the one-column build bit for bit
    assert len(columns) == len(data)
    for D, column in zip(data, columns):
        (_, _, alone), = build([D])
        assert np.array_equal(column, alone[:, 0]), D


# --- skewed chunks: a floor starts each column at it -------------------------
# Every column starts at max(lo, alpha) and is anchored at phi0 =
# max(alpha, mode), at most hi, or holds nothing at or above alpha and is its
# row lo alone, 0.0. A column at most _SHORT rows tall from its start is built
# whole from there: anchored at its mode, it is the full build's rows bit for
# bit, and above its mode each cell is within the walk's rounding of the
# exact pmf. A taller one is banded (numerics._band): its sum matches the
# oracle, and the rows it drops below and above are too small to matter.

# (access, nodes, m); each column's floor is its alpha = D / m
FLOOR_SYSTEMS = [
    (FixedSize(270), 900, 3),  # mode about 0.9 alpha < alpha: a short column is anchored at alpha
    (FixedSize(90), 100, 2),  # lo = D - 10 > 0, above alpha from alpha = 11
    (FixedSize(900), 1000, 2),  # lo > 0 from alpha = 51; alpha < mode starts at alpha
    (Probabilistic(0.3), 900, 3),  # alpha below the mode 2.1 alpha: a column starts at alpha
    (Probabilistic(0.3), 300, 1),  # alpha = D above the mode: the column is its row D alone
    (Probabilistic(0.999), 900, 3),  # mode 0: every column is anchored at alpha
    (Probabilistic(0.001), 600, 2),  # mode = D, the support end: no column rises past it
    (FixedSize(30), 300, 1),  # mode about 0.1 alpha: a short column is anchored at alpha, no fall
]


def chunk_columns(chunks) -> list[tuple[int, np.ndarray]]:
    """Return (start, pmf from start to hi) per column, checking each chunk's padding."""
    columns = []
    for start, hi, probs in chunks:
        height = hi - start + 1
        assert probs.shape == (height.max(), len(start))  # as tall as its tallest column
        for c in range(len(start)):
            assert not probs[height[c]:, c].any()
            columns.append((int(start[c]), probs[:height[c], c]))
    return columns


@pytest.mark.parametrize("cells", [None, 4096, 1], ids=["default", "4096", "1"])
@pytest.mark.parametrize("access, nodes, m", FLOOR_SYSTEMS, ids=str)
def test_a_floor_starts_each_column_higher_and_keeps_every_cell(monkeypatch, cells,
                                                                access, nodes, m):
    if cells is not None:  # 1: single-column chunks
        monkeypatch.setattr(numerics, "_CHUNK_CELLS", cells)
    local = random.Random(nodes * m)
    alphas = [1, nodes // m] + [local.randint(1, nodes // m) for _ in range(40)]
    check_band(access, nodes, m, alphas)


# (access, nodes, m): short tables, built whole, and tall ones, banded; in each,
# some columns end below alpha or hold too little at or above it
ZERO_SYSTEMS = [
    (FixedSize(5), 40, 2),  # alpha > 5 = r: the whole column lies below alpha
    (FixedSize(10), 40, 2),  # mode about 0.5 alpha
    (Probabilistic(0.7), 40, 2),  # mode about 0.6 alpha
    (FixedSize(270), 900, 3),
    (Probabilistic(0.7), 900, 3),
]
# The real rows (not padding) below alpha of each system. A column has none,
# unless nothing of it lies at or above alpha: then it is its row lo alone.
# So they are one row per alpha above r under fixed-size access, and one per
# column whose mass from alpha up rounds to 0.0. Building short columns up
# from their mode where alpha lies above it gave 51, 60, 88, 1,510 and 51.
ROWS_BELOW = {(FixedSize(5), 40, 2): 15, (FixedSize(10), 40, 2): 10,
              (Probabilistic(0.7), 40, 2): 0, (FixedSize(270), 900, 3): 30,
              (Probabilistic(0.7), 900, 3): 0}


@pytest.mark.parametrize("cells", [None, 4096, 1], ids=["default", "4096", "1"])
@pytest.mark.parametrize("access, nodes, m", ZERO_SYSTEMS, ids=str)
def test_a_floor_zeroes_every_row_below_it(monkeypatch, cells, access, nodes, m):
    if cells is not None:  # 1: single-column chunks
        monkeypatch.setattr(numerics, "_CHUNK_CELLS", cells)
    alphas = np.arange(1, nodes // m + 1)
    first, below = 0, 0
    for start, hi, probs in access.rows(nodes, m * alphas, alphas):
        alpha = alphas[first:first + len(start)]
        rows = np.arange(probs.shape[0])[:, None]
        under = start + rows < alpha
        assert probs[under].tobytes() == bytes(8 * under.sum())  # +0.0, bit for bit
        first, below = first + len(start), below + (under & (rows <= hi - start)).sum()
    assert first == len(alphas) and below == ROWS_BELOW[access, nodes, m]


def exact_p(p: float):
    """p with 1 - p the kernel's q = 1.0 - p at its exact binary value, for the oracle."""
    with mpmath.workdps(60):
        return mpmath.mpf(1) - mpmath.mpf(1.0 - p)


def column_shapes(access, nodes, data):
    """(lo, hi, mode, oracle access form) per column of data."""
    if isinstance(access, FixedSize):
        r = access.r
        return ([max(0, r - nodes + D) for D in data], [min(r, D) for D in data],
                hypergeometric_modes(nodes, data, r), ("fixed", r))
    return [0] * len(data), list(data), binomial_modes(data, 1.0 - access.p), \
        ("prob", exact_p(access.p))


@functools.lru_cache(maxsize=None)
def oracle(nodes, m, alpha, access, service):
    return walk_oracle(nodes, m, alpha, access, service)


def exact_pmf(access, nodes: int, D: int, phi: int) -> Fraction:
    """P(phi) of column D exactly, at the binary value of the kernel's q = 1.0 - p."""
    if isinstance(access, FixedSize):
        return Fraction(*hypergeometric_ratio(phi, nodes, D, access.r))
    return Fraction(*binomial_ratio(phi, D, 1.0 - access.p))


def assert_near_exact(column, start, phi0, access, nodes, D, label):
    """Check each cell, k rows from its anchor phi0, within (5k + 3) 2^-53 of the exact
    pmf, relative, plus 2^-1074. The anchor is the exact mass rounded once; each
    step of the walk rounds at most five times (the binomial ratio
    (D - phi) q / ((phi + 1)(1 - q)) four, its running product one), and the
    product with the anchor once more."""
    for phi, cell in enumerate(column.tolist(), start):
        want = exact_pmf(access, nodes, D, phi)
        bound = (5 * abs(phi - phi0) + 3) * Fraction(1, 2**53) * want + Fraction(1, 2**1074)
        assert abs(Fraction(cell) - want) <= bound, (label, phi)


def check_band(access, nodes, m, alphas):
    """Check each column against its full build, the exact pmf or the oracle; return
    (starts, heights).

    A column with nothing at or above alpha is its row lo alone, 0.0, and
    its exact mass from alpha up is at most (D + 1) 2^-1075: each of its
    rows rounds to 0.0. Every other column starts at or above alpha. One at
    most _SHORT rows tall from first = max(lo, alpha) starts there and ends
    at hi: where alpha <= mode it is the full build's rows bit for bit, and
    above the mode each cell is near the exact pmf (assert_near_exact). A
    taller one is banded around phi0 = max(alpha, mode), at most hi. Its sum
    matches the oracle's recovery probability (assert_matches), the full
    build's rows from alpha up to its start sum to at most
    T = 2^-60 P(phi0) / D, and those past its end are below 2^-54 P(phi0) / D.
    """
    data = [m * alpha for alpha in alphas]
    lows, highs, modes, oracle_access = column_shapes(access, nodes, data)
    whole = chunk_columns(access.rows(nodes, np.array(data)))
    banded = chunk_columns(access.rows(nodes, np.array(data), np.array(alphas)))
    assert len(whole) == len(banded) == len(data)
    starts, heights = [], []
    for alpha, D, lo, hi, mode, (start_lo, full), (start, column) in zip(
            alphas, data, lows, highs, modes, whole, banded):
        assert start_lo == lo
        end = start + len(column) - 1
        first, phi0 = max(lo, alpha), min(max(alpha, mode), hi)
        short = hi - first <= numerics._SHORT
        if not short:
            _, want = oracle(nodes, m, alpha, oracle_access, ("scaled", 1.0))
            assert_matches(np.cumsum(column)[-1], want, ("recovery", alpha))
        if start < alpha:  # nothing at or above alpha
            assert (start, end) == (lo, lo) and column.tobytes() == bytes(8), alpha
            if short:
                want = sum(exact_pmf(access, nodes, D, phi) for phi in range(first, hi + 1))
            assert want * 2**1075 <= D + 1, alpha
        elif short:  # built whole from first
            assert (start, end) == (first, hi), alpha
            if alpha <= mode:  # anchored at the mode, as the full build is
                assert column.tobytes() == full[start - lo:].tobytes(), alpha
            else:
                assert_near_exact(column, start, phi0, access, nodes, D, alpha)
        else:
            assert start <= phi0 <= end <= hi, alpha
            scale = full[phi0 - lo] / D  # P(phi0) / D
            assert full[max(alpha, lo) - lo:start - lo].sum() <= 2.0**-60 * scale, alpha
            assert (full[end - lo + 1:] <= 2.0**-54 * scale).all(), alpha
        starts.append(start)
        heights.append(len(column))
    return np.array(starts), np.array(heights)


# --- band sums: short columns anchored at their mode keep the full build's bits, the rest
# the oracle's value

def full_columns(access, nodes, m, alphas):
    """(lo, column) per alpha: the full-support build, floor 0."""
    chunks = access.rows(nodes, m * np.array(alphas))
    return [(start[c], probs[:hi[c] - start[c] + 1, c]) for start, hi, probs in chunks
            for c in range(len(start))]


def full_sums(columns, service, alphas):
    """(rates, recovery) of full columns, each masked to phi >= alpha and summed in
    phi order, as the kernel sums its own rows (cumsum adds one row at a time)."""
    rates, recovery = [], []
    for alpha, (lo, column) in zip(np.array(alphas), columns):
        phi = lo + np.arange(len(column))
        weights = np.where(phi >= alpha, column, 0.0)
        recovery.append(min(np.cumsum(weights)[-1], 1.0))  # as the kernel clips it
        if service is not None:
            gap = np.ones(len(phi))
            reached = phi >= alpha
            gap[reached] = harmonic_gaps(phi[reached], alpha)
            terms = weights[:, None] * service.rate(alpha[None], gap[:, None])
            rates.append(np.cumsum(terms[:, 0])[-1])
    return rates, recovery


# (access, nodes, m, alphas): above and below the mode, above r, columns whose
# masked rows all underflow, and N = 10^5 columns whose start the band raises.
# The N = 10^5 alphas come in close groups: the anchor walk between columns
# far apart costs more than the columns.
BAND_SYSTEMS = [
    (FixedSize(300), 1000, 3, [1, 2, 3, 42, 150, 299, 300, 301, 333]),
    (Probabilistic(0.3), 1000, 3, [1, 2, 42, 150, 333]),
    (Probabilistic(0.999), 900, 3, [1, 5, 40, 300]),  # mode 0: every alpha above it
    (Probabilistic(0.001), 600, 2, [1, 100, 300]),  # mode at the support end
    (FixedSize(30000), 100000, 3, [20000, 20001]),  # far above the mode, P(alpha) normal
    (FixedSize(30000), 100000, 3, [26000, 28500]),  # P(alpha) below the float range
    (FixedSize(30000), 100000, 3, [30001, 33333]),  # past r
    (Probabilistic(0.3), 100000, 3, [10000, 10001]),  # far below the mode
    (Probabilistic(0.3), 100000, 3, [33332, 33333]),
    (FixedSize(90000), 100000, 3, [5000, 5001]),  # far below the mode
]
BAND_SERVICES = [SmallExp(1.0), ScaledExp(1.0), ShiftedExp(3.0, 1.0), ConstantTime(1.0), None]


# single-column chunks (cells 1) for every system but the fixed-size N = 10^5
# ones, whose exact start costs most of a call
BAND_CASES = [(cells, *system) for system in BAND_SYSTEMS for cells in (None, 1)
              if cells is None or not (system[1] == 100000 and isinstance(system[0], FixedSize))]


def oracle_rate(service, nodes, m, alpha, access):
    """The oracle's mu_s for any service model, from its scaled (mu = 1) and shifted sums."""
    scaled, prob = oracle(nodes, m, alpha, access, ("scaled", 1.0))
    if isinstance(service, SmallExp):  # mu / gap
        return scaled * service.mu / alpha
    if isinstance(service, ScaledExp):
        return scaled * service.mu
    if isinstance(service, ConstantTime):
        return prob * alpha / service.delta
    return oracle(nodes, m, alpha, access, ("shifted", service.delta, service.mu))[0]


@pytest.mark.parametrize("cells, access, nodes, m, alphas", BAND_CASES, ids=str)
def test_banded_sums_equal_the_full_columns_bit_for_bit(monkeypatch, cells, access, nodes, m,
                                                        alphas):
    if cells is not None:  # 1: single-column chunks, summed by cumsum
        monkeypatch.setattr(numerics, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(analysis, "_MEMO", ByteLRU())  # no entry from another chunk size
    columns = full_columns(access, nodes, m, alphas)
    lows, highs, modes, oracle_access = column_shapes(access, nodes, [m * a for a in alphas])
    # short columns anchored at their mode, as the full ones are; every system has others
    same = [hi - max(lo, alpha) <= numerics._SHORT and alpha <= mode
            for alpha, lo, hi, mode in zip(alphas, lows, highs, modes)]
    assert not all(same)
    for service in BAND_SERVICES:
        rates, recovery = expected_metrics(access, service, nodes, m, alphas)
        want_rates, want_recovery = full_sums(columns, service, alphas)
        for c, alpha in enumerate(alphas):
            label = (service, alpha)
            if same[c]:  # the full columns' sums, bit for bit
                assert float(recovery[c]).hex() == float(want_recovery[c]).hex(), label
                if service is not None:
                    assert float(rates[c]).hex() == float(want_rates[c]).hex(), label
                continue
            assert_matches(recovery[c], oracle(nodes, m, alpha, oracle_access,
                                               ("scaled", 1.0))[1], label)
            if service is not None:
                assert_matches(rates[c], oracle_rate(service, nodes, m, alpha, oracle_access),
                               label)


def test_the_band_cuts_both_ends_at_scale():
    # cells: an upper bound on the bands' total height (5,847, 11,283 and 1,977
    # rows when fixed-size columns were built up from their mode and the lower
    # tails were cut only where they underflow)
    for access, nodes, m, alphas, raised, single, cells in [
            (FixedSize(30000), 100000, 3, [20000, 26000, 28500, 30001], 0, 3, 600),
            (Probabilistic(0.3), 100000, 3, [10000, 33333], 2, 0, 5000),
            (FixedSize(90000), 100000, 3, [5000], 1, 0, 800)]:
        data = m * np.array(alphas)
        if isinstance(access, FixedSize):  # the support sizes
            full = (np.minimum(access.r, data) - np.maximum(0, access.r - nodes + data) + 1).sum()
        else:
            full = (data + 1).sum()
        starts, heights = check_band(access, nodes, m, alphas)
        assert heights.sum() < min(full / 4, cells)
        assert (starts > np.array(alphas)).sum() == raised  # the lower band cut
        assert (heights == 1).sum() == single  # nothing at or above alpha: one 0.0 row
        assert (starts >= np.array(alphas))[heights > 1].all()  # no banded row below alpha


@pytest.mark.parametrize("access, cells", [(FixedSize(3000), 700_000),
                                           (Probabilistic(0.3), 2_500_000)], ids=str)
def test_a_ten_thousand_node_search_builds_no_banded_row_below_alpha(access, cells):
    # the m = 3 search built 1.05 M and 5.07 M cells when tall fixed-size columns
    # rose from their mode and lower tails were cut only where they underflow; no
    # column, short or banded, starts below alpha unless it ends there
    nodes, m = 10_000, 3
    alphas = np.array(feasible_alphas(nodes, m, access))
    first, built = 0, 0
    for start, hi, probs in access.rows(nodes, m * alphas, alphas):
        alpha = alphas[first:first + len(start)]
        assert ((start >= alpha) | (hi < alpha)).all()
        first, built = first + len(start), built + probs.size
    assert first == len(alphas) and built <= cells


# --- the N <= 40 grid: every table against the exact pmf ---------------------

# (access, nodes, m) of acceptance criterion 5's grid: its 496 access tables
GRID = [(access, nodes, m) for nodes in acceptance.NODES_GRID for m in acceptance.M_GRID
        for access in [FixedSize(r) for r in range(2, nodes + 1)]
        + [Probabilistic(p) for p in acceptance.P_GRID]]


def test_every_grid_cell_from_alpha_up_is_near_the_exact_pmf():
    # every support cell at or above alpha, of every column of the grid's tables as
    # alpha_table builds them; a cell outside its column reads 0.0. Building short
    # columns up from their mode where alpha lies above it took 74,289 cells.
    checked, built = 0, 0
    for access, nodes, m in GRID:
        alphas = feasible_alphas(nodes, m, access)
        data = [m * alpha for alpha in alphas]
        chunks = list(access.rows(nodes, np.array(data), np.array(alphas)))
        built += sum(probs.size for _, _, probs in chunks)
        for alpha, D, lo, hi, mode, (start, column) in zip(
                alphas, data, *column_shapes(access, nodes, data)[:3], chunk_columns(chunks)):
            cells = np.zeros(hi + 1)  # by phi
            cells[start:start + len(column)] = column
            first = max(lo, alpha)
            assert_near_exact(cells[first:], first, min(max(alpha, mode), hi), access, nodes, D,
                              (access, nodes, m, alpha))
            checked += max(hi + 1 - first, 0)
    assert len(GRID) == 496 and (checked, built) == (27_593, 44_316)


# --- any floors: each column against its exact pmf ---------------------------
# rows takes any floor per column, in any order, where the kernel's floors rise
# with the data. A column is its exact pmf from its start, or, with nothing at
# or above its floor, its row lo alone, 0.0.

def check_floored_columns(access, nodes, data, floor):
    """Check every column of access.rows(nodes, data, floor); the columns are short."""
    chunks = list(access.rows(nodes, np.array(data), np.array(floor)))
    assert all((probs >= 0.0).all() for _, _, probs in chunks)
    columns = chunk_columns(chunks)
    assert len(columns) == len(data)
    for D, f, lo, hi, mode, (start, column) in zip(
            data, floor, *column_shapes(access, nodes, data)[:3], columns):
        label = (access, nodes, D, f)
        exact = [exact_pmf(access, nodes, D, phi) for phi in range(max(lo, f), hi + 1)]
        if start < f:  # nothing at or above the floor: every cell there rounds to 0.0
            assert (start, column.tobytes()) == (lo, bytes(8)), label
            assert all(mass <= Fraction(1, 2**1075) for mass in exact), label
        else:
            assert (start, start + len(column) - 1) == (max(lo, f), hi), label
            assert_near_exact(column, start, min(max(f, mode), hi), access, nodes, D, label)


@pytest.mark.parametrize("p, data, floor", [
    (1.0, [3, 6], [2, 0]),  # q = 0: mass 0 above phi = 0, then a column with a lower peak
    (1.0, [6, 8], [1, 0]),
    (1.0, [8, 6, 3, 6], [0, 4, 0, 6]),
    (0.0, [6, 3, 8], [5, 1, 0]),  # q = 1: all mass at phi = D
    (0.0, [8, 6, 3, 6], [9, 2, 4, 0]),
])
def test_one_point_columns_under_falling_floors_are_their_exact_pmf(p, data, floor):
    check_floored_columns(Probabilistic(p), 10, data, floor)


@st.composite
def floored_systems(draw):
    nodes = draw(st.integers(1, 60))
    if draw(st.booleans()):
        access = FixedSize(draw(st.integers(1, nodes)))
    else:
        access = Probabilistic(draw(st.sampled_from([0.0, 1.0, 0.5, 0.25, 2.0**-40])
                                    | st.floats(0.0, 1.0)))
    data = draw(st.lists(st.integers(1, nodes), min_size=1, max_size=8))  # unsorted, repeats
    floor = draw(st.lists(st.integers(0, nodes + 1), min_size=len(data), max_size=len(data)))
    return access, nodes, data, floor, draw(st.sampled_from([1, 7, numerics._CHUNK_CELLS]))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(floored_systems())
def test_every_floored_column_is_near_its_exact_pmf(system):
    access, nodes, data, floor, cells = system
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_CHUNK_CELLS", cells)
        check_floored_columns(access, nodes, data, floor)
