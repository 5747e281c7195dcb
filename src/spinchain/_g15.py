"""`'%.15g' % v` for a whole float array at once, byte for byte.

`cells(values)` returns a `(len(values), width)` uint8 matrix: row i holds
the ASCII text of `'%.15g' % values[i]`, its characters in order, with NUL
bytes before, between or after them. Dropping every NUL gives the text.

Fixed notation (`1e-4 <= |v| < 1e15` after rounding to 15 digits) is
computed here. With `X` the decimal exponent of `|v|` and `k = 14 - X` in
[0, 18], `10**k` is an exact double, Dekker's two-product gives
`|v| * 10**k = hi + lo` exactly, and `floor(hi)` with the half-way test on
`hi - floor(hi)` and `lo` is the correctly rounded 15-digit integer `D`,
ties to even as in CPython's dtoa. Every other value (nan, inf, subnormal or
exponent form) is formatted alone with `'%.15g'`; zeros take the vectorized
path as `D = 0`.
"""

from __future__ import annotations

import numpy as np

_POW10 = np.array([float(10**i) for i in range(19)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_DIGIT = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10  # the three digits of 0..999
# row m * 1000 + g: the first m of the three digits of g in ASCII, then NULs
_DIGITS3 = ((_DIGIT + 48) * (np.arange(3) < np.arange(4)[:, None, None])).astype(np.uint8)
_DIGITS3 = _DIGITS3.reshape(4000, 3)
# index (0..2) of the last nonzero digit of g among its three; -99 for g = 0
_LAST3 = np.where(_DIGIT.any(axis=1), 2 - np.argmax(_DIGIT[:, ::-1] != 0, axis=1), -99)
_GROUP_START = np.arange(0, 15, 3)[:, None]  # group g holds digits 3g..3g+2 of the 15
# Printing digits 0..last keeps m = clip(last + 1 - 3g, 0, 3) digits of group g;
# _KEEP[last + 12 - 3g] is 1000 m, the start of those rows of _DIGITS3
_KEEP = 1000 * np.clip(np.arange(27) - 11, 0, 3)
# row X + 4: "0." and the zeros after the point for X = -4..-1, NUL-padded; none for X >= 0
_LEAD = np.array([list(b"0.000"[:1 - x].ljust(5, b"\0")) for x in range(-4, 0)] + [[0] * 5] * 15,
                 dtype=np.uint8)


def _product_error(a: np.ndarray, p: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo with hi + lo == a * p exactly, for hi == fl(a * p) (Dekker's two-product)."""
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * p
    ph = c - (c - p)
    pl = p - ph
    return ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def cells(values: np.ndarray) -> np.ndarray:
    """Each value's `'%.15g'` text as one NUL-padded row of a uint8 matrix."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e15)
    a = np.where(fixed, a, 1.5)  # any value away from the edges below; its row is replaced
    X = np.floor(np.log10(a)).astype(np.intp)
    np.clip(X, -4, 14, out=X)
    hi = a * _POW10[14 - X]
    # log10 can be one off next to a power of ten: bring a * 10**k = hi + lo into [1e14, 1e15)
    odd = np.flatnonzero((hi <= 1e14) | (hi >= 1e15))
    if odd.size:
        h = hi[odd]
        lo = _product_error(a[odd], _POW10[14 - X[odd]], h)
        X[odd] += ((h > 1e15) | ((h == 1e15) & (lo >= 0))).view(np.int8)
        X[odd] -= ((h < 1e14) | ((h == 1e14) & (lo < 0))).view(np.int8)
        hi[odd] = a[odd] * _POW10[14 - X[odd]]
    # hi is a multiple of its ulp (at most 1/8) and |lo| <= ulp / 2, so lo
    # decides the rounding only where the fraction of hi is exactly one half
    D = np.floor(hi)
    rest = hi - D
    up = rest > 0.5
    tie = np.flatnonzero(rest == 0.5)
    if tie.size:
        lo = _product_error(a[tie], _POW10[14 - X[tie]], hi[tie])
        even = np.floor(D[tie] * 0.5) * 2.0 == D[tie]
        up[tie] = (lo > 0) | ((lo == 0) & ~even)
    D += up
    carry = np.flatnonzero(D == 1e15)  # rounded up to the next power of ten
    if carry.size:
        D[carry] = 1e14
        X[carry] += 1
        big = carry[X[carry] > 14]  # 1e15 and above take the exponent form
        fixed[big] = False
        X[big] = 0
    zero = x == 0
    D[zero] = 0.0

    # the 15 digits of D, from five groups of three, group by group
    whole = D.astype(np.uint64)
    top = whole // np.uint64(10**9)
    bottom = whole - top * np.uint64(10**9)
    groups = np.empty((5, n), np.intp)
    for g, part in ((1, top), (4, bottom)):
        high = part // np.uint64(1000)
        groups[g] = part - high * np.uint64(1000)
        groups[g - 1] = high
    groups[2], groups[3] = np.divmod(groups[3], 1000)
    # the last digit printed: none of the fraction's trailing zeros
    last = np.maximum((np.take(_LAST3, groups) + _GROUP_START).max(axis=0), X)
    groups += np.take(_KEEP, last + (12 - _GROUP_START))
    digits = np.take(_DIGITS3, groups.T, axis=0).reshape(n, 15)

    # Layout: sign, "0.000" lead (X < 0), then the digits with a point slot
    # after each digit j in [p_lo, p_hi], the range of integer-part ends
    x_lo, x_hi = (int(X.min()), int(X.max())) if n else (0, 0)
    lead = max(1 - x_lo, 0)
    p_lo, p_hi = max(x_lo, 0), min(x_hi, 13)
    slots = max(p_hi - p_lo + 1, 0)
    width = 1 + lead + 15 + slots
    others = ~(fixed | zero)
    texts = None
    if others.any():
        texts = np.array([("%.15g" % v).encode() for v in x[others].tolist()])
        width = max(width, texts.itemsize)
    out = np.zeros((n, width), np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    if lead:
        out[:, 1:1 + lead] = np.take(_LEAD[:, :lead], X + 4, axis=0)
    c = 1 + lead
    out[:, c:c + p_lo + 1] = digits[:, :p_lo + 1]
    c += p_lo + 1
    if slots:
        point = (np.arange(p_lo, p_lo + slots) == X[:, None]) & (last > X)[:, None]
        out[:, c:c + 2 * slots:2] = point * np.uint8(ord("."))
        out[:, c + 1:c + 2 * slots:2] = digits[:, p_lo + 1:p_lo + 1 + slots]
        c += 2 * slots
    placed = p_lo + slots
    out[:, c:c + 14 - placed] = digits[:, placed + 1:]
    if texts is not None:
        out[others] = 0
        out[others, :texts.itemsize] = texts.view(np.uint8).reshape(-1, texts.itemsize)
    return out
