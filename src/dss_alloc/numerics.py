"""Harmonic numbers, binomial coefficients, and the two access distributions.

Access is hypergeometric for fixed-size requests and binomial for
probabilistic ones. Scalar probability masses are one exact ratio rounded
once: an integer quotient for the hypergeometric pmf, a 40-digit decimal
product for the binomial pmf. The vectorised forms used by the expectation
kernel take such a mass at each distribution's mode and fill the rest of the
support with the ratio recurrence P(phi+1)/P(phi), walking away from the
mode so that every partial product stays in (0, 1].

harmonic(n) returns H_n only as an exact Fraction, summed by binary
splitting. Float harmonic values and gaps H_phi - H_{phi-alpha} come from one
prefix table of H_n kept as a double-double (hi + lo) pair, so a gap carries
no phi*eps cancellation error. The table grows by doubling and is built on
first use, never at import.
"""

from __future__ import annotations

import decimal
import math
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "binomial",
    "binomial_pmf",
    "binomial_rows",
    "harmonic",
    "harmonic_gap",
    "harmonic_gaps",
    "hypergeometric_pmf",
    "hypergeometric_rows",
]

# 40 significant digits: the binomial mass is exact to well below one ulp
# before its single rounding to float.
_DECIMAL = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

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


def hypergeometric_pmf(phi: int, N: int, D: int, r: int) -> float:
    """Return P(phi) = C(D, phi) C(N-D, r-phi) / C(N, r).

    The chance that a uniform r-subset of N nodes contains exactly phi of the
    D data-holding nodes; 0 outside the support. Integer true division rounds
    the exact ratio once.
    """
    if not 0 <= D <= N:
        raise ConfigurationError(f"hypergeometric_pmf() needs 0 <= D <= N, got D={D}, N={N}")
    if not 0 <= r <= N:
        raise ConfigurationError(f"hypergeometric_pmf() needs 0 <= r <= N, got r={r}, N={N}")
    return binomial(D, phi) * binomial(N - D, r - phi) / math.comb(N, r)


def binomial_pmf(phi: int, n: int, q: float) -> float:
    """Return P(phi) = C(n, phi) q^phi (1-q)^(n-phi); 0 outside [0, n].

    q is taken at its exact binary value and the product is formed to 40
    significant digits, then rounded to float once.
    """
    if n < 0:
        raise ConfigurationError(f"binomial_pmf() needs n >= 0, got {n}")
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"binomial_pmf() needs 0 <= q <= 1, got {q}")
    if phi < 0 or phi > n:
        return 0.0
    # q in {0, 1} would need 0^0, which Decimal rejects; resolve those exactly
    if q == 0.0:
        return 1.0 if phi == 0 else 0.0
    if q == 1.0:
        return 1.0 if phi == n else 0.0
    ctx = _DECIMAL
    exact_q = Decimal(q)
    mass = ctx.multiply(Decimal(math.comb(n, phi)), ctx.power(exact_q, phi))
    return float(ctx.multiply(mass, ctx.power(ctx.subtract(1, exact_q), n - phi)))


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
        return np.asarray(anchors) * np.cumprod(rise, axis=0) * np.cumprod(fall[::-1], axis=0)[::-1]


def hypergeometric_rows(N: int, data, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (lo, hi, P) for hypergeometric(N, D, r) with one column per D in data.

    P[phi, c] is the pmf of column c and lo/hi its support ends.
    """
    data = np.asarray(data, dtype=np.int64)
    lo = np.maximum(0, r - (N - data))
    hi = np.minimum(r, data)
    mode = np.minimum(np.maximum((r + 1) * (data + 1) // (N + 2), lo), hi)
    anchors = [hypergeometric_pmf(k, N, D, r) for k, D in zip(mode.tolist(), data.tolist())]
    phi = np.arange(int(hi.max()) + 1, dtype=np.float64)[:, None]
    num = (data - phi) * (r - phi)
    den = (phi + 1) * (N - data - r + phi + 1)
    return lo, hi, _rows_from_mode(lo, hi, mode, anchors, num, den)


def binomial_rows(data, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (lo, hi, P) for binomial(D, q) with one column per D in data."""
    data = np.asarray(data, dtype=np.int64)
    lo = np.zeros_like(data)
    mode = np.minimum(np.floor((data + 1) * q).astype(np.int64), data)
    anchors = [binomial_pmf(k, D, q) for k, D in zip(mode.tolist(), data.tolist())]
    phi = np.arange(int(data.max()) + 1, dtype=np.float64)[:, None]
    num = (data - phi) * q
    den = (phi + 1) * (1.0 - q)
    return lo, data, _rows_from_mode(lo, data, mode, anchors, num, den)
