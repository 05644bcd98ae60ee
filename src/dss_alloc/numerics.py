"""Harmonic numbers, binomial coefficients, and the two access distributions.

Access is hypergeometric for fixed-size requests and binomial for
probabilistic ones, each built as a phi x column pmf matrix, one column per
data-node count (hypergeometric_rows, binomial_rows). Each column takes its
mass at its distribution's mode and fills the rest of the support with the
ratio recurrence P(phi+1)/P(phi), walking away from the mode so that every
partial product stays in (0, 1]. The mode masses of one call come from one
walk over its columns in data order (_walk_anchors): the first column's mass
is exact, and a mantissa of _WIDTH bits is carried from one column's mode to
the next by the exact rational ratio of the two masses and rounded to float
once per column. The builders own the chunking: they yield the matrix in
chunks of consecutive columns of at most _CHUNK_CELLS cells each, which
bounds the expectation kernel's memory at any N.

harmonic(n) returns H_n only as an exact Fraction, summed by binary
splitting. Float harmonic values and gaps H_phi - H_{phi-alpha} come from one
prefix table of H_n kept as a double-double (hi + lo) pair, so a gap carries
no phi*eps cancellation error. The table grows by doubling and is built on
first use, never at import.
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

# Bits of the anchor walk's mantissa. Each column costs one truncating
# division, a relative error below 2^-190, and the binomial start over D
# trials less than D * 2^-190, so a walk over n columns strays less than
# (D + n) * 2^-190 from the exact mass.
_WIDTH = 192

# phi x column cells per pmf chunk (512 KiB per float64 matrix)
_CHUNK_CELLS = 1 << 16

_MIN_TABLE = 1024
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
    i = np.arange(1, size, dtype=np.float64)
    inverse = 1.0 / i
    product = inverse * i
    # 1/i - fl(1/i) = (1 - fl(1/i)*i) / i, with the product fl(1/i)*i taken exactly
    inverse_error = -((product - 1.0) + _two_product_error(inverse, i, product)) / i
    hi = np.zeros(size)
    np.cumsum(inverse, out=hi[1:])
    # the rounding error of each step hi[k] = fl(hi[k-1] + 1/k), by two-sum
    step = hi[1:] - hi[:-1]
    add_error = (hi[:-1] - (hi[1:] - step)) + (inverse - step)
    lo = np.zeros(size)
    np.cumsum(add_error + inverse_error, out=lo[1:])
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


def _truncated_power(base: int, n: int) -> tuple[int, int]:
    """Return (x, ex) with base^n = x * 2^ex to _WIDTH bits, by square-and-multiply.

    Each product is truncated to _WIDTH bits; a squaring doubles the relative
    error so far, so the result is off by less than 4n * 2^-_WIDTH relative.
    """
    x, ex = 1, 0
    for bit in bin(n)[2:]:
        x, ex = x * x, 2 * ex
        if bit == "1":
            x *= base
        drop = max(0, x.bit_length() - _WIDTH)
        x, ex = x >> drop, ex + drop
    return x, ex


def _walk_anchors(data: list, mode: list, N: int, r: int, q: float | None) -> list[float]:
    """Return P(mode[c]) for each column c, walking the columns in data order.

    Column c is hypergeometric(N, data[c], r) when q is None, else
    binomial(data[c], q) with q = a / 2^e at its exact binary value, so
    P(k; D) = C(D, k) a^k b^(D-k) / 2^(eD) with b = 2^e - a. The walk holds
    the current mass as x * 2^ex, x an integer of _WIDTH or _WIDTH + 1 bits.
    It starts from the exact mass of the column with the fewest data nodes,
    C(D, k) C(N-D, r-k) / C(N, r) or C(D, k) a^k b^(D-k) (powers by
    _truncated_power), and visits the columns in ascending data order, writing
    each anchor back to its own column. From (D, k) to the next column's
    (D1, k1), with g = D1 - D, h = k1 - k, d = g - h, u = D - k,
    v = N - r - D + k and (n)_j = n! / (n-j)! (math.perm), the mass changes
    by the exact ratio

        hypergeometric   (D1)_g (r-k)_h (v)_d / ((N-D)_g (k1)_h (u+d)_d)
        binomial         (D1)_g a^h b^d / ((k1)_h (u+d)_d 2^(eg)),

    applied by one floor division that truncates x. A mode rises by at most
    as much as its data count (0 <= h <= g), so in data order the ratio
    always has this form, and it never passes through a (D, k) outside the
    support. x * 2^ex is rounded to float once, when int x converts; ldexp
    is then exact, because a mode mass, at least 1/(D+1), is a normal float.
    """
    if q is not None:
        a, scale = q.as_integer_ratio()
        b, e = scale - a, scale.bit_length() - 1
    order = sorted(range(len(data)), key=data.__getitem__)
    D, k = data[order[0]], mode[order[0]]
    # the first column's exact mass, num / den * 2^ex
    if q is None:
        num, den, ex = math.comb(D, k) * math.comb(N - D, r - k), math.comb(N, r), 0
    else:
        (ax, aex), (bx, bex) = _truncated_power(a, k), _truncated_power(b, D - k)
        num, den, ex = math.comb(D, k) * ax * bx, 1, aex + bex - e * D
    x = 1
    anchors = [0.0] * len(data)
    for c in order:  # the first column steps from itself, by the ratio 1
        D1, k1 = data[c], mode[c]
        g, h = D1 - D, k1 - k
        d = g - h
        if q is None:
            num *= perm(D1, g) * perm(r - k, h) * perm(N - r - D + k, d)
            den *= perm(N - D, g) * perm(k1, h) * perm(D - k + d, d)
        else:
            num *= perm(D1, g) * a**h * b**d
            den *= perm(k1, h) * perm(D - k + d, d)
            ex -= e * g
        D, k = D1, k1
        y = x * num
        shift = _WIDTH + den.bit_length() - y.bit_length()
        x = (y << shift if shift >= 0 else y >> -shift) // den
        ex -= shift
        anchors[c] = math.ldexp(x, ex)
        num = den = 1
    return anchors


def _rows_from_mode(lo, hi, mode, anchors, num, den) -> np.ndarray:
    """Return the (width, columns) pmf matrix, one distribution per column.

    Column c is P(mode_c) = anchors[c] at its mode and is filled outwards by
    P(phi+1)/P(phi) = num[phi, c] / den[phi, c] on lo_c <= phi < hi_c; it is 0
    off [lo_c, hi_c]. Every ratio used points away from the mode, so the
    running products lie in [0, 1] and cannot overflow.
    """
    phi = np.arange(num.shape[0])[:, None]
    rise = np.where(phi > hi, 0.0, 1.0)  # row phi: P(phi) / P(phi - 1)
    fall = np.where(phi < lo, 0.0, 1.0)  # row phi: P(phi) / P(phi + 1)
    with np.errstate(under="ignore"):  # far tails may underflow to 0, as P does
        np.divide(num[:-1], den[:-1], out=rise[1:], where=(phi[:-1] >= mode) & (phi[:-1] < hi))
        np.divide(den, num, out=fall, where=(phi >= lo) & (phi < mode))
        return anchors * np.cumprod(rise, axis=0) * np.cumprod(fall[::-1], axis=0)[::-1]


def _chunked(data, lo, hi, mode, ratio, N: int, r: int, q: float | None) -> Iterator[tuple]:
    """Yield (lo, hi, P) for chunks of consecutive columns of data, in order.

    One _walk_anchors pass over all the columns anchors every chunk, and
    _rows_from_mode fills each one, with ratio(phi, D) the (num, den) arrays
    of P(phi+1)/P(phi) for the chunk's data counts D. A chunk is as tall as
    its tallest column (hi + 1 cells) and holds at most _CHUNK_CELLS cells
    unless it is one column: its width allows every column the D + 1 cells
    of the largest D.
    """
    columns = data.tolist()
    anchors = np.array(_walk_anchors(columns, mode.tolist(), N, r, q))
    heights = hi.tolist()
    step = max(1, _CHUNK_CELLS // (max(columns) + 1))
    if step >= len(columns):  # one chunk: slicing cost an N = 40 call 2% on a 2-CPU Xeon
        phi = np.arange(max(heights) + 1, dtype=np.float64)[:, None]
        yield lo, hi, _rows_from_mode(lo, hi, mode, anchors, *ratio(phi, data))
        return
    for start in range(0, len(columns), step):
        c = slice(start, start + step)
        phi = np.arange(max(heights[c]) + 1, dtype=np.float64)[:, None]
        lo_c, hi_c = lo[c], hi[c]
        yield lo_c, hi_c, _rows_from_mode(lo_c, hi_c, mode[c], anchors[c], *ratio(phi, data[c]))


def hypergeometric_rows(N: int, data, r: int) -> Iterator[tuple]:
    """Return the (lo, hi, P) chunks of hypergeometric(N, D, r), one column per D in data.

    The chunks hold consecutive columns of data in order: P[phi, c] is the
    pmf of a chunk's column c and lo/hi its support ends.
    """
    data = np.asarray(data, dtype=np.int64)
    lo = np.maximum(0, (r - N) + data)
    hi = np.minimum(r, data)
    mode = np.minimum(np.maximum((r + 1) * (data + 1) // (N + 2), lo), hi)
    return _chunked(data, lo, hi, mode,
                    lambda phi, D: ((D - phi) * (r - phi), (phi + 1) * ((N - r) - D + phi + 1)),
                    N, r, None)


def binomial_rows(data, q: float) -> Iterator[tuple]:
    """Return the (lo, hi, P) chunks of binomial(D, q), one column per D in data, as above."""
    data = np.asarray(data, dtype=np.int64)
    mode = np.minimum(((data + 1) * q).astype(np.int64), data)  # truncation floors: q >= 0
    return _chunked(data, np.zeros_like(data), data, mode,
                    lambda phi, D: ((D - phi) * q, (phi + 1) * (1.0 - q)), 0, 0, q)
