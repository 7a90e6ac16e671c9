"""Exact ``"%.17g"`` text of float64 arrays, computed in numpy.

``format_rows`` gives the bytes of ``"%.17g" % x`` for every entry of an
array, from one pass over the whole array instead of one Python format call
per entry; ``report`` writes mostly-distinct dumped fields with it. Python's
``%`` still formats zeros and the rare near-ties the pass cannot decide.
The lookup tables are built on first use, and ``report`` imports this module
only when it first writes such a field.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# For finite x != 0 the 17 digits are D = round-half-even(|x| 10^(16-X)),
# 10^16 <= D < 10^17, where X is the decimal exponent of x rounded to 17
# digits. With |x| = f 2^e (frexp, f in [1/2, 1)), X is X0 or X0 + 1, where
# 10^X0 <= 2^(e-1) < 10^(X0+1); which one is decided exactly against the
# least double that rounds up to 10^(X0+1).
# The product f * 2^e 10^(16-X) = hi + lo is Dekker's error-free product with
# the scale held as two doubles made from Python integers, once per binade.
# It is exact when the scale is one double (0 <= 16 - X <= 22); otherwise it
# is within 1e-14 of the true product, and the entries whose lo lies within
# _TIE_EPS of a half-integer go to Python's "%", as do zeros. Each entry's
# text takes 32 bytes, NUL where a character is absent:
#   0-7    sign, "0." and up to three zeros (-4 <= X < 0), first digit, NUL
#   8-24   the other 16 digits, the point among them or after the first
#   25-31  "e", the exponent's sign and 2-3 digits (X < -4 or X > 16), NULs
_E2_OFFSET = 1074  # frexp exponents of finite nonzero doubles run from -1073 to 1024
_N_BINADES = 2099
_TIE_EPS = 2.0**-40
_CHUNK = 16384  # entries per numpy pass; keeps its temporaries in cache
_ROW_END = ";"  # ends a row in the byte buffer; "%.17g" never writes it


def _two_product(a: np.ndarray, b: np.ndarray):
    """hi + lo == a * b exactly (Dekker 1971), given no overflow or underflow."""

    def split(v):  # v == high + low, each half fitting in 26 bits
        t = v * 134217729.0  # 2^27 + 1
        high = t - (t - v)
        return high, v - high

    hi = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _exponent_words(X: int) -> tuple[int, int, int, int]:
    """How "%.17g" lays out a value of decimal exponent X: how many of the
    last 16 digits come before the point, the first row of ``_tail_masks``
    to use, the first word (a leading "0." and zeros, and the "0" that the
    first digit is added to) and the exponent bytes ("e+XX") of the fourth."""
    if -4 <= X < 0:  # 0.000ddd: no point among the 16 digits
        return 0, 17 * 17, int.from_bytes(b"0." + b"0" * (-X - 1), "little") << 8 | 48 << 48, 0
    if 0 <= X <= 16:  # ddd.ddd
        return X, 17 * X, 48 << 48, 0
    # d.ddde+XX
    return 0, 0, 48 << 48, int.from_bytes(b"e%+03d" % X, "little") << 8


def _binade_tables(binades: np.ndarray):
    """Constants of the binades [2^(e-1), 2^e) given by ``e + _E2_OFFSET``.

    thr[i] is the least double that rounds to 17 digits at 10^(X0+1) or
    above; row 2i + up of ``scale`` is 2^e 10^(16-X) as a sum of two
    doubles and row 2i + up of ``layout`` is ``_exponent_words(X)``, for
    X = X0 + up.
    """
    thr = np.full(_N_BINADES, np.inf)
    scale = np.zeros((2 * _N_BINADES, 2))
    layout = np.zeros((2 * _N_BINADES, 4), np.uint64)
    for i in binades.tolist():
        e = i - _E2_OFFSET
        x0 = len(str(2 ** (e - 1))) - 1 if e >= 1 else -len(str(2 ** (1 - e)))
        # (10^17 - 1/2) 10^(X0-16), rounded up to a double
        num = (2 * 10**17 - 1) * 10 ** max(x0 - 16, 0)
        den = 2 * 10 ** max(16 - x0, 0)
        t = num / den
        n, d = t.as_integer_ratio()
        thr[i] = t if n * den >= num * d else math.nextafter(t, math.inf)
        for up in (0, 1):
            p = 16 - x0 - up
            num = 2 ** max(e, 0) * 10 ** max(p, 0)
            den = 2 ** max(-e, 0) * 10 ** max(-p, 0)
            hi = num / den
            n, d = hi.as_integer_ratio()
            scale[2 * i + up] = hi, (num * d - n * den) / (den * d)
            layout[2 * i + up] = _exponent_words(x0 + up)
    return thr, scale, layout


@functools.cache
def _digit_cells() -> np.ndarray:
    """The ASCII text of 0000 ... 9999, four bytes each."""
    g = np.arange(10000, dtype=np.uint32)
    cells = sum((48 + g // 10 ** (3 - k) % 10) << np.uint32(8 * k) for k in range(4))
    cells = cells.astype("<u4")
    cells.setflags(write=False)
    return cells


@functools.cache
def _tail_masks() -> np.ndarray:
    """How the 16 digits after the first are laid out in 17 bytes.

    Row 17 t + K (t, K in 0..16) keeps K digits, the first t of them before
    the point; row 289 + K keeps K digits with no point. The columns, each a
    pair of words: the bytes that stay, the bytes that move up one to make
    room for the point, and the point itself.
    """
    def low(n):  # the lowest n bytes
        return (1 << (8 * n)) - 1

    rows = []
    for t, point in [(t, True) for t in range(17)] + [(0, False)]:
        for keep in range(17):
            dot = ord(".") << (8 * t) if point and keep > t else 0
            for v in (low(t), low(keep) & ~low(t), dot):
                rows.append(v & low(8))
                rows.append(v >> 64)
    masks = np.array(rows, dtype=np.uint64).reshape(-1, 6)
    masks.setflags(write=False)
    return masks


def _value_words(x, thr, scale, layout, out) -> np.ndarray:
    """Write the NUL-padded "%.17g" text of each entry of the 1-d array x
    into ``out[:, :4]``, and return the mask of the entries (zeros and
    near-ties) whose words are not written."""
    a = np.abs(x)
    f, e = np.frexp(a)
    i = e + _E2_OFFSET
    k = 2 * i + (a >= thr.take(i))
    c = scale.take(k, axis=0)
    hi, lo = _two_product(f, c[:, 0])
    lo += f * c[:, 1]
    r = np.rint(lo)
    left = (a == 0) | ((c[:, 1] != 0) & (np.abs(np.abs(lo - r) - 0.5) <= _TIE_EPS))
    # hi >= 10^16 > 2^53 is an even integer, so rounding lo half-even rounds
    # hi + lo half-even
    digits = hi.astype(np.int64) + r.astype(np.int64)
    q = digits // 10**8
    first = q // 10**8
    halves = np.stack([q - first * 10**8, digits - q * 10**8], axis=1).astype(np.int32)
    groups = np.empty((x.size, 4), np.int32)  # the last 16 digits, four at a time
    groups[:, 0::2] = halves // 10000
    groups[:, 1::2] = halves - 10000 * groups[:, 0::2]
    tail = _digit_cells().take(groups).view("<u8")
    # A digit byte XOR "0" is the digit, so the last significant digit is the
    # highest nonzero byte, found from the bit length that frexp gives. The
    # byte below a nonzero byte is at most 9, so the conversion to float
    # never rounds up to the next power of two.
    nbytes = (np.frexp((tail ^ np.uint64(0x3030303030303030)).astype(np.float64))[1] + 7) >> 3
    kept = np.where(nbytes[:, 1] > 0, nbytes[:, 1] + 8, nbytes[:, 0])
    lay = layout.take(k, axis=0)
    t = lay[:, 0].astype(np.intp)
    m = _tail_masks().take(lay[:, 1].astype(np.intp) + np.maximum(kept, t), axis=0)
    moved = tail & m[:, 2:4]
    body = (tail & m[:, 0:2]) | (moved << np.uint64(8)) | m[:, 4:6]
    body[:, 1] |= moved[:, 0] >> np.uint64(56)
    sign = (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-"))
    out[:, 0] = lay[:, 2] | sign | first.astype(np.uint64) << np.uint64(48)
    out[:, 1:3] = body
    out[:, 3] = (moved[:, 1] >> np.uint64(56)) | lay[:, 3]
    return left


def format_rows(a: np.ndarray, sep: str, fmt) -> list[str]:
    """The innermost rows of a nonempty finite float64 array, in C order, each
    its entries' ``"%.17g"`` joined by ``sep``, all from one numpy pass.

    Each entry gets four words of text padded with NUL bytes, then ``sep``
    (or, ending a row, ``_ROW_END``) in as many words as it needs; the NULs
    are deleted at once. ``fmt(x)`` gives ``"%.17g" % x`` for a Python float
    x; the zeros and near-ties are formatted by it, all in one list.
    """
    x = np.ascontiguousarray(a).reshape(-1)
    e = np.frexp(x)[1] + _E2_OFFSET
    thr, scale, layout = _binade_tables(np.flatnonzero(np.bincount(e, minlength=_N_BINADES)))
    nsep = -(-len(sep) // 8)

    def padded(text):
        return np.frombuffer(text.encode().ljust(8 * nsep, b"\0"), "<u8")

    words = np.empty((x.size, 4 + nsep), "<u8")
    words[:, 4:] = padded(sep)
    words[a.shape[-1] - 1::a.shape[-1], 4:] = padded(_ROW_END)
    left = np.concatenate([
        _value_words(x[s:s + _CHUNK], thr, scale, layout, words[s:s + _CHUNK])
        for s in range(0, x.size, _CHUNK)])
    if left.any():
        idx = np.flatnonzero(left)
        text = np.array([fmt(v) for v in x[idx].tolist()], dtype="S32")
        words[idx, :4] = text.view("<u8").reshape(-1, 4)
    return words.tobytes().translate(None, b"\0").decode("ascii").split(_ROW_END)
