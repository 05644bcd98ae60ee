"""Harmonic numbers, binomial coefficients, and the two access distributions.

Access is hypergeometric for fixed-size requests and binomial for
probabilistic ones, each built as a phi x column pmf matrix, one column per
data-node count (hypergeometric_rows, binomial_rows). Each column takes its
mass at one anchor row, phi0 = max(floor, mode) or its support end if that
is lower, and fills the rest of its rows with the ratio recurrence
P(phi+1)/P(phi), walking away from the anchor. The anchor is the mode or
above it, and a column goes below it only from the mode, so every partial
product stays in (0, 1]. The anchor masses of one call come from one walk
over its columns in data order (_walk_anchors): it starts at the empty
column, whose mass is exactly 1, carries a mantissa of _WIDTH bits from one
point to the next by the exact rational ratio of the two masses, at most
_STEP data nodes and rows at a time, and rounds it to float once per column;
it makes a far column's path one point at a time, so it holds one point. The
builders own the chunking: they yield the matrix in chunks of consecutive
columns, packed greedily by each column's real height into at most
_CHUNK_CELLS cells (64 KiB of float64) unless a chunk is one column, which
bounds the expectation kernel's memory at any N. One call allocates one
scratch buffer, five matrices of its largest chunk, and every chunk computes
phi, the ratios and both walks in views of it: besides a few boolean masks,
a chunk allocates only the P it yields. The scratch belongs to the call's
generator, so calls share no state.

Every chunk has one layout, (start, hi, P): row i of column c holds the pmf
at phi = start[c] + i, hi[c] is the column's last row, and the chunk is as
tall as its tallest column, padded with zeros past each hi. A column
starts at its floor, or at its support start lo if that is higher, so under
the default floor 0 it runs over its whole support, anchored at its mode.
The expectation kernel passes each column's alpha as the floor; then no
column holds a row below its floor but an empty one, with nothing at or
above it: its support ends below the floor, or its anchor rounds to 0.0.
An empty column is settled before any other is built, as its row lo alone,
0.0. Each other column is built one of two ways, by the column alone:

- A column at most _SHORT rows tall from its start is built whole to its
  support end. Where its floor is at or below the mode it is anchored at
  the mode, as the build from lo is, and every cell is that build's bits;
  above the mode each cell is the exact P(phi0) rounded once, times the
  ratios walked from phi0, a few roundings per row.
- A taller column is banded (_band): anchored at phi0, it holds only the
  rows from its start, or from its lower cut above it, to its upper cut,
  both cut where the rest of that side's mass is below
  2^-_ABSORB_BITS P(phi0) / D. Its cells are not the full build's bits,
  but each sum stays within 2^-_ABSORB_BITS of the full one, plus a few
  roundings per row walked.

harmonic(n) returns H_n only as an exact Fraction, summed by binary
splitting. Float harmonic values and gaps H_phi - H_{phi-alpha} come from one
prefix table of H_n kept as a double-double (hi + lo) pair, so a gap carries
no phi*eps cancellation error. The table grows by doubling and is built on
first use, never at import, in blocks of _BLOCK entries, so that building it
takes little more memory than keeping it.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from math import perm
from typing import Iterator

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "binomial",
    "binomial_rows",
    "harmonic",
    "harmonic_gap",
    "harmonic_gaps",
    "hypergeometric_rows",
    "spread_binomials",
]

# Bits of the anchor walk's mantissa. Each step of the walk truncates once, a
# relative error below 2^-191, so an anchor S steps from the empty column
# strays less than S * 2^-191 from the exact mass.
_WIDTH = 192

# The most data nodes and peak rows one step of the anchor walk moves by, so
# that no falling factorial or power of a step takes more than 2 _STEP
# factors: a search's columns, m nodes apart, take one step each, and a
# column D nodes from the last one about D / _STEP.
_STEP = 32

# phi x column cells per pmf chunk: 64 KiB per float64 matrix, below glibc's
# default 128 KiB mmap threshold, so the kernel's per-chunk temporaries are
# reused from the heap rather than mapped, unmapped and page-faulted afresh on
# every chunk
_CHUNK_CELLS = 1 << 13

# The band (_band). Each side of a column is cut where a tail bound holds the
# rest of its mass below T = 2^-_ABSORB_BITS P(phi0) / D: each sum then loses
# less than 2^-_ABSORB_BITS of itself, under an ulp and far under the 1e-12
# relative the kernel is checked to, subnormal P(phi0) included (one that
# rounds to 0.0 is settled before the band). _NEWTON steps refine each tail
# bound. A column at most _SHORT rows tall is built whole: the band's few
# dozen small NumPy passes cost more than such a column can lose (on the
# benchmark's N <= 40 figure and grid tables it cut no row).
_ABSORB_BITS = 60
_NEWTON = 2
_SHORT = 64

_MIN_TABLE = 1024
# entries per block of a harmonic table build: 512 KiB per float64 temporary
_BLOCK = 1 << 16
_table: tuple[np.ndarray, np.ndarray] = (np.zeros(1), np.zeros(1))
_table_lock = threading.Lock()


def _harmonic_terms(a: int, b: int) -> tuple[int, int]:
    """Return (p, q) with p/q = sum_{i=a}^{b-1} 1/i, by binary splitting."""
    if b - a == 1:
        return 1, a
    mid = (a + b) // 2
    p1, q1 = _harmonic_terms(a, mid)
    p2, q2 = _harmonic_terms(mid, b)
    return p1 * q2 + p2 * q1, q1 * q2


def harmonic(n: int) -> Fraction:
    """Return H_n = sum_{i=1}^{n} 1/i exactly, with H_0 = 0.

    Floats of H_n and of its gaps come from the double-double table behind
    harmonic_gaps, which stays fast at any n.
    """
    if n < 0:
        raise ConfigurationError(f"harmonic() needs n >= 0, got {n}")
    if n == 0:
        return Fraction(0)
    return Fraction(*_harmonic_terms(1, n + 1))


def _two_product_error(a: np.ndarray, b: np.ndarray, product: np.ndarray) -> np.ndarray:
    """Return a*b - product exactly, for product = fl(a*b) (Dekker)."""

    def split(x):
        c = 134217729.0 * x  # 2^27 + 1
        high = c - (c - x)
        return high, x - high

    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _build_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (hi, lo) with H_i = hi[i] + lo[i] for i < size, built in blocks of _BLOCK.

    hi[k] = fl(hi[k-1] + 1/k) is one sequential sum, and lo sums the rounding
    errors of both 1/k and that step; each block starts its sums from the
    last hi and lo of the one before, so the table is the same bits as one
    pass over all of it, and the temporaries stay the size of a block.
    """
    hi, lo = np.zeros(size), np.zeros(size)
    run = np.empty(_BLOCK + 1)  # a block's sum, after the carried entry
    for first in range(1, size, _BLOCK):
        stop = min(first + _BLOCK, size)
        i = np.arange(first, stop, dtype=np.float64)
        inverse = 1.0 / i
        product = inverse * i
        # 1/i - fl(1/i) = (1 - fl(1/i)*i) / i, with the product fl(1/i)*i taken exactly
        inverse_error = -((product - 1.0) + _two_product_error(inverse, i, product)) / i
        block = run[:stop - first + 1]
        block[0], block[1:] = hi[first - 1], inverse
        np.cumsum(block, out=block)
        hi[first:stop] = block[1:]
        # the rounding error of each step hi[k] = fl(hi[k-1] + 1/k), by two-sum
        step = hi[first:stop] - hi[first - 1:stop - 1]
        add_error = (hi[first - 1:stop - 1] - (hi[first:stop] - step)) + (inverse - step)
        block[0], block[1:] = lo[first - 1], add_error + inverse_error
        np.cumsum(block, out=block)
        lo[first:stop] = block[1:]
    return hi, lo


def _harmonic_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (hi, lo) with H_i = hi[i] + lo[i] for every i <= n.

    One table serves every n: a prefix of a longer table holds the same
    values, so results never depend on which sizes were asked for first.
    """
    global _table
    table = _table
    if n < len(table[0]):
        return table
    with _table_lock:
        if n >= len(_table[0]):
            _table = _build_table(max(_MIN_TABLE, 2 * len(_table[0]), 1 << n.bit_length()))
        return _table


def harmonic_gaps(phi, alpha) -> np.ndarray:
    """Return H_phi - H_{phi-alpha} elementwise, for integer arrays with 0 <= alpha <= phi.

    The gap is the scaled mean of the alpha-th order statistic of phi
    exponentials; its relative error is about one rounding at any phi.
    """
    phi = np.asarray(phi)
    lower = phi - alpha
    hi, lo = _harmonic_table(int(phi.max(initial=0)))
    return (hi[phi] - hi[lower]) + (lo[phi] - lo[lower])


def harmonic_gap(phi: int, alpha: int) -> float:
    """Return H_phi - H_{phi-alpha} as a float, for 1 <= alpha <= phi."""
    if not 1 <= alpha <= phi:
        raise ConfigurationError(
            f"harmonic_gap() needs 1 <= alpha <= phi, got alpha={alpha}, phi={phi}"
        )
    return float(harmonic_gaps(phi, alpha))


def binomial(n: int, k: int) -> int:
    """Return C(n, k) exactly, with C(n, k) = 0 for k < 0, k > n, or n < 0.

    The zero convention lets truncated pmf sums run over nominal limits
    without boundary special cases.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def spread_binomials(m: int) -> Iterator[int]:
    """Yield C(m alpha - 1, alpha - 1) exactly for alpha = 1, 2, 3, ...

    Each coefficient is stepped from the one before. With t = m alpha + m - 1
    and j = min(m, alpha),

        C(t, alpha) = C(m alpha - 1, alpha - 1) (t)_j / (alpha (t - max(m, alpha))_(j-1)),

    with (n)_j = n! / (n-j)! the falling factorial; the division is exact.
    The factors common to both sides cancel, so a step takes 2 min(m, alpha) - 1
    small factors, where a math.comb per alpha builds each big coefficient anew.
    """
    c, alpha = 1, 1
    while True:
        yield c
        t, j = m * alpha + m - 1, min(m, alpha)
        c = c * perm(t, j) // (alpha * perm(t - max(m, alpha), j - 1))
        alpha += 1


def _walk_anchors(data: list, peak: list, N: int, r: int, q: float | None) -> list[float]:
    """Return P(peak[c]) for each column c, walking the columns in data order.

    Column c is hypergeometric(N, data[c], r) when q is None, else
    binomial(data[c], q) with q = a / 2^e at its exact binary value, so
    P(k; D) = C(D, k) a^k b^(D-k) / 2^(eD) with b = 2^e - a. peak[c] is any
    row of column c's support: its mode, or phi0 in a banded column. The walk
    holds the current mass as x * 2^ex, x an integer of _WIDTH or _WIDTH + 1
    bits after its first step. It starts at the empty column (D, k) = (0, 0),
    whose mass is exactly 1, and visits the columns in ascending data order,
    writing each anchor back to its own column. From (D, k) to the next
    point (D1, k1), with s = D1 - D, t = k1 - k and d = s - t, the mass
    changes by an exact ratio read off

        hypergeometric   D! (N-D)! / (k! (D-k)! (r-k)! (N-r-D+k)!)
        binomial         D! / (k! (D-k)!)  times a^k b^(D-k) / 2^(eD):

    each factorial steps from its old argument to its new one by a falling
    factorial (n)_j = n! / (n-j)! (math.perm) on the side where it grows, and
    a power by |t| or |d|, so the peaks may rise or fall between columns (a
    banded column's peak is phi0, its neighbour's may be its mode). One floor
    division applies the ratio and truncates x. A step moves by at most _STEP
    data nodes and _STEP peak rows: a column further away is reached through
    points spaced evenly along the line to it, both coordinates rounded down,
    made one at a time, so the walk holds one point at any distance. They lie
    in the support: its constraints k >= 0, k <= r, k <= D and k - D >= r - N
    bound k or k - D by integers, a half-plane of slope 0 or 1, and rounding
    both coordinates of a point on the line down keeps every such bound. Each
    x * 2^ex is rounded to float once per column, subnormals included; a mass
    of 0 (q = 0 or 1) is 0.0, and the walk goes on from the point before it.
    """
    if q is not None:
        a, scale = q.as_integer_ratio()
        b, e = scale - a, scale.bit_length() - 1
    D = k = ex = 0
    x = 1  # the empty column's mass
    anchors = [0.0] * len(data)
    for c in sorted(range(len(data)), key=data.__getitem__):
        D0, k0, x0, ex0 = D, k, x, ex  # the last point, stepped from again after a zero mass
        g, h = data[c] - D0, peak[c] - k0
        path = ((data[c], peak[c]),)
        if g > _STEP or abs(h) > _STEP:  # points spaced evenly along the line, rounded down
            steps = -(-max(g, abs(h)) // _STEP)
            path = ((D0 + g * i // steps, k0 + h * i // steps) for i in range(1, steps + 1))
        for D1, k1 in path:  # a step of s data nodes and t rows
            s, t = D1 - D, k1 - k
            d = s - t
            if q is None:  # k! and (r-k)! step by t, (D-k)! and (N-r-D+k)! by d
                num = perm(D1, s) * (perm(r - k, t) if t >= 0 else perm(k, -t)) * \
                    (perm(N - r - D + k, d) if d >= 0 else perm(D - k, -d))
                den = perm(N - D, s) * (perm(k1, t) if t >= 0 else perm(r - k1, -t)) * \
                    (perm(D1 - k1, d) if d >= 0 else perm(N - r - D1 + k1, -d))
            else:  # k! and a^k step by t, (D-k)! and b^(D-k) by d
                num = perm(D1, s) * (a**t if t >= 0 else perm(k, -t)) * \
                    (b**d if d >= 0 else perm(D - k, -d))
                den = (perm(k1, t) if t >= 0 else a**-t) * (perm(D1 - k1, d) if d >= 0 else b**-d)
                ex -= e * s
            D, k = D1, k1
            y = x * num
            shift = _WIDTH + den.bit_length() - y.bit_length()
            x = (y << shift if shift >= 0 else y >> -shift) // den
            ex -= shift
            if x == 0:  # mass 0 (q = 0 or 1): so is the column's
                break
        # one rounding of x * 2^ex: by float(x) where ldexp is then exact (a
        # normal mass), else by int division, correct into the subnormals, and
        # to 0.0 below them without building 2^-ex
        top = x.bit_length() + ex  # x * 2^ex < 2^top
        anchors[c] = math.ldexp(x, ex) if top > -1021 else x / (1 << -ex) if top > -1076 else 0.0
        if x == 0:  # no ratio leaves a zero mass: step from the last nonzero point
            D, k, x, ex = D0, k0, x0, ex0
    return anchors


def _rows_from_mode(phi, hi, peak, anchors, first, last, num, den, rise, fall) -> np.ndarray:
    """Return the pmf matrix P[i, c] = P(phi[i, c]), one distribution per column.

    Each column of phi holds consecutive values from a first row at or above
    its support start and at or below its anchor row peak_c, the mode or a
    row above it. Column c is P(peak_c) = anchors[c] there and is filled
    outwards by P(phi+1)/P(phi) = num[i, c] / den[i, c] up to hi_c; it is 0
    past hi_c. Every ratio used points away from the mode, so the running
    products lie in [0, 1] and cannot overflow.

    Every column rises by exactly 1 before row first = min(peak - phi[0]) + 1
    and falls by exactly 1 from row last = max(peak - phi[0]) on, so each
    walk runs only over the rows where it changes a value; the products it
    skips are of exact 1.0s, so with last = 0 the fall is all 1.0. rise
    and fall are scratch of phi's shape, which the walks fill in place; of
    the matrices, only the returned P is new.
    """
    up, down = rise[first:], fall[:last]
    with np.errstate(under="ignore"):  # far tails may underflow to 0, as P does
        np.less_equal(phi, hi, out=rise)  # rise[i] = P(phi) / P(phi - 1): 0 past hi
        before = phi[first - 1:-1]
        np.divide(num[first - 1:-1], den[first - 1:-1], out=up,
                  where=(before >= peak) & (before < hi))
        np.cumprod(up, axis=0, out=up)
        fall.fill(1.0)  # fall[i] = P(phi) / P(phi + 1)
        np.divide(den[:last], num[:last], out=down, where=phi[:last] < peak)
        np.cumprod(down[::-1], axis=0, out=down[::-1])
        rise *= anchors
        return rise * fall


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Return the sum of each column of the C-ordered matrix x, added in phi (row) order.

    Over two or more columns, add.reduce along axis 0 adds one row at a time
    to the running sums, the order of cumsum without its matrix. A single
    column is one contiguous run, which add.reduce would sum pairwise, so it
    takes cumsum's last row.

    Padding rows are 0.0, so a column's sums are the same bits in any chunk,
    and a one-alpha call returns exactly the matching row of a search.
    """
    if x.shape[1] > 1:
        return np.add.reduce(x, axis=0)
    return np.cumsum(x, axis=0)[-1]


def _band(data, start, peak, hi, anchors, N: int, r: int, q: float | None):
    """Return each column's band (start, end): the rows that carry its sums.

    start holds each column's first row max(lo, alpha), peak its phi0 =
    max(alpha, mode), at most hi, and anchors the exact P(phi0) rounded once
    (_walk_anchors). The kernel sums a column's rows phi >= alpha, as weights
    P(phi) and as P(phi) mu(phi), where the conditional rate mu is
    nondecreasing in phi and mu(phi) / mu(phi0) <= phi / (phi0 - alpha + 1)
    <= D past phi0 for every service model. Both sums hold the row at phi0.
    The band cuts each side where the rest of that side's mass is below one
    threshold T = 2^-_ABSORB_BITS P(phi0) / D. The rows it drops above phi0
    weigh less than T and add less than T D mu(phi0) to the rate; those
    below, which exist only when phi0 is the mode, weigh less than T and add
    less than T mu(phi0). So each sum loses under 2^-_ABSORB_BITS of itself.
    Every anchor is above 0.0: _chunked settles a column whose P(phi0)
    rounds to 0.0 before the band, so T > 0 and log2 P(phi0) is finite.

    A cut row comes from a tail bound. Bernstein's bound
    P(X - mean >= t) <= exp(-t^2 / (2 (var + t/3))) gives one in closed
    form; _NEWTON Newton steps on Chernoff's exponent n KL(k/n || p), which
    is convex in k and at least Bernstein's, move it toward Chernoff's row
    from the far side, so no step passes that row. (n, p) is the binomial
    itself, or for the hypergeometric whichever of its two binomial views
    (r draws of D/N, D draws of r/N) has the smaller variance: Hoeffding
    (1963, Theorem 4) carries every bound on the moment generating function
    over from sampling with replacement to sampling without.

    _chunked bands only a column more than _SHORT rows tall from its start,
    so alpha is at most hi. The band runs from phi0 or its lower cut, never
    below start, to phi0 or past it, so it holds no row below alpha: its
    upper cut cannot fall below alpha, as the tail from phi0 up holds
    P(phi0) > T.
    """
    D = data.astype(np.float64)
    if q is None:  # the binomial view of the smaller variance
        f, g = D / N, r / N
        by_r, by_data = r * (f * (1.0 - f)), D * (g * (1.0 - g))
        view = by_r <= by_data
        n, p, var = np.where(view, float(r), D), np.where(view, f, g), np.minimum(by_r, by_data)
    else:
        n, p, var = D, q, D * (q * (1.0 - q))
    mean = n * p

    def reach(bits, side):  # the row past which side's tail mass is below 2^-bits
        L = bits * math.log(2.0)
        k = mean + side * (L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * var * L))  # Bernstein
        inside = (k > 0.0) & (k < n) & (var > 0.0)
        bound = k
        with np.errstate(divide="ignore", invalid="ignore"):  # outside: kept as Bernstein's
            for _ in range(_NEWTON):  # toward n KL(k/n || p) = L, from the far side
                x = k / n
                rise, fall = np.log(x / p), np.log((1.0 - x) / (1.0 - p))
                k = k - (n * (x * rise + (1.0 - x) * fall) - L) / (rise - fall)
        # a step back past Bernstein's row (rounding) or a nan keeps that row
        return np.where(inside & (side * (bound - k) >= 0.0), k, bound)

    def rows(x, low, high):  # as rows from low to high
        return np.minimum(np.maximum(x, low), high).astype(np.int64)

    bits = _ABSORB_BITS + np.log2(D) - np.log2(anchors)
    start = rows(np.ceil(reach(bits, -1.0)) - 1, start, peak)
    return start, rows(np.ceil(reach(bits, 1.0)) + 1, peak, hi)


def _chunked(data, lo, hi, mode, floor, ratio, N: int, r: int, q: float | None) -> Iterator[tuple]:
    """Yield (start, hi, P) for chunks of consecutive columns of data, in order.

    Every column starts at row max(lo, min(floor, hi)) and is anchored at
    phi0 = min(max(floor, mode), hi): lo and the mode under a floor of 0.
    One _walk_anchors pass over all the columns anchors every chunk. A
    column with nothing at or above its floor (its hi is below the floor or
    its anchor rounds to 0.0) is settled first, as its row lo alone with
    anchor 0.0: its hi, lo, stays below the floor, and as one row it is
    never banded. Any other more than _SHORT rows tall from its start under
    a nonzero floor is banded (_band), built from its start or its lower cut
    to its upper cut. _rows_from_mode fills each chunk, with ratio(phi, D,
    num, den, spare) writing the numerators and denominators of
    P(phi+1)/P(phi) at its phi for its data counts D into num and den.
    Columns are packed greedily by their real height hi - start + 1: a chunk
    is as tall as its tallest column and holds at most _CHUNK_CELLS cells
    unless it is one column. The call allocates one scratch of five matrices
    of its largest chunk, and every chunk writes phi, the ratios and both
    walks into views of it (the module docstring says why).
    """
    start = np.maximum(lo, np.minimum(floor, hi))
    peak = np.minimum(np.maximum(floor, mode), hi)
    anchors = np.array(_walk_anchors(data.tolist(), peak.tolist(), N, r, q))
    empty = (hi < floor) | (anchors == 0.0)  # nothing at or above the floor: row lo alone
    start[empty] = hi[empty] = peak[empty] = lo[empty]
    anchors[empty] = 0.0
    banded = (hi - start > _SHORT) & (floor > 0)
    if banded.any():
        start[banded], hi[banded] = _band(data[banded], start[banded], peak[banded], hi[banded],
                                          anchors[banded], N, r, q)
    spans = (hi - start).tolist()  # a column's height less one
    offsets = (peak - start).tolist()
    chunks, first, tallest = [], 0, 0
    for c, span in enumerate(spans):
        taller = span + 1 if span >= tallest else tallest
        if (c + 1 - first) * taller > _CHUNK_CELLS and c > first:
            chunks.append((first, c, tallest))
            first, taller = c, span + 1
        tallest = taller
    chunks.append((first, len(spans), tallest))
    scratch = np.empty(5 * max((stop - first) * tallest for first, stop, tallest in chunks))
    rows = np.arange(max(spans) + 1, dtype=np.float64)[:, None]
    for first, stop, tallest in chunks:
        c = slice(first, stop)
        start_c, hi_c = start[c], hi[c]
        views = scratch[:5 * (stop - first) * tallest].reshape(5, tallest, -1)
        phi, num, den, rise, fall = views[0], views[1], views[2], views[3], views[4]
        np.add(start_c, rows[:tallest], out=phi)
        ratio(phi, data[c], num, den, rise)
        P = _rows_from_mode(phi, hi_c, peak[c], anchors[c], min(offsets[c]) + 1,
                            max(offsets[c]), num, den, rise, fall)
        yield start_c, hi_c, P


def hypergeometric_rows(N: int, data, r: int, floor=0) -> Iterator[tuple]:
    """Return the (start, hi, P) chunks of hypergeometric(N, D, r), one column per D in data.

    The chunks hold consecutive columns of data in order: P[i, c] is the pmf
    of a chunk's column c at phi = start[c] + i, and hi[c] its last row.
    Under the default floor 0 a column runs from its support start lo to its
    support end. A caller that passes one floor per column gets each column
    from max(lo, floor) up, except a column with nothing at or above its
    floor, which is its row lo alone, 0.0, with hi = lo below the floor. A
    column taller than _SHORT rows from its start is then banded (see
    _band): hi is its band's end, and its sums are within 2^-_ABSORB_BITS
    of the full column's plus rounding, not its bits.
    """
    data = np.asarray(data, dtype=np.int64)
    lo = np.maximum(0, (r - N) + data)
    hi = np.minimum(r, data)
    mode = np.minimum(np.maximum((r + 1) * (data + 1) // (N + 2), lo), hi)

    def ratio(phi, D, num, den, spare):  # (D - phi)(r - phi) / ((phi + 1)(N - r - D + phi + 1))
        np.subtract(D, phi, out=num)
        np.subtract(r, phi, out=spare)
        num *= spare
        np.add((N - r + 1) - D, phi, out=den)
        np.add(phi, 1.0, out=spare)
        den *= spare

    return _chunked(data, lo, hi, mode, floor, ratio, N, r, None)


def binomial_rows(data, q: float, floor=0) -> Iterator[tuple]:
    """Return the (start, hi, P) chunks of binomial(D, q), one column per D in data, as above."""
    data = np.asarray(data, dtype=np.int64)
    mode = np.minimum(((data + 1) * q).astype(np.int64), data)  # truncation floors: q >= 0

    def ratio(phi, D, num, den, spare):  # (D - phi) q / ((phi + 1)(1 - q))
        np.subtract(D, phi, out=num)
        num *= q
        np.add(phi, 1.0, out=den)
        den *= 1.0 - q

    return _chunked(data, np.zeros_like(data), data.copy(), mode, floor, ratio, 0, 0, q)
