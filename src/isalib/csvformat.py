"""The numpy kernel behind `ensemble.write_csv_table`: the CSV text of a
block of doubles, byte for byte Python's '%.17g' of each value.

Each double x is written from its 17 significant digits
D = round(|x| * 10**(16 - X)), 10**16 <= D < 10**17, and its decimal exponent
X.  The kernel settles every finite x but the near-ties, which go to the one
fallback, _percent_g, with NaN and inf.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# floor(log10|x|) of every finite nonzero double, with one to spare each side
_X_MIN, _X_MAX = -325, 309
# |x| * 10**(16 - X) is known within 1e-14; a value whose fraction lies this
# close to 1/2 is left to '%.17g'
_TIE_BAND = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split of a double into halves
# offsets into the 4-digit groups: leading zeros blank, trailing zeros blank
_LEAD, _TRAIL = 10_000, 20_000


class _CsvTables(NamedTuple):
    # rows by k = 16 - X, 10**k = (head + tail) * 2**e: the head (1/2 < head
    # < 2 where 2**e is a double), its two halves, the tail, and 2**e
    powers: np.ndarray
    quads: np.ndarray  # "0000" ... "9999", then with _LEAD and _TRAIL blanks
    exponents: np.ndarray  # "e-324" ... "e+308", then a blank
    # words 3 and 4 before the digit below one: "", "0.", ..., "0.000"; zero's "0"
    prefixes: np.ndarray
    marks: np.ndarray  # "-", ".", then "," and CRLF at the end of a word
    pow10: np.ndarray  # 10**0 ... 10**16 as int64


def _ascii_words(strings, width) -> np.ndarray:
    """Each bytes string NUL-padded to `width` bytes, as rows of uint32 words."""
    joined = b"".join(s.ljust(width, b"\0") for s in strings)
    return np.frombuffer(joined, np.uint32).reshape(len(strings), width // 4)


@functools.cache
def _csv_tables() -> _CsvTables:
    """The kernel's tables, built on its first call; each 10**k is split
    with int arithmetic."""
    # the big tables first, so that the building's temporaries are freed above them
    quads = np.empty((3, 10_000, 4), np.uint8)
    powers = np.empty((5, _X_MAX - _X_MIN + 1))
    for i, k in enumerate(range(16 - _X_MAX, 16 - _X_MIN + 1)):
        e = min(round(k * math.log2(10)), 1000)
        # 10**k = m * 2**s within 2**-119, m an int of 120 bits
        p = 10 ** abs(k)
        if k >= 0:
            s = max(p.bit_length() - 120, 0)
            m = p >> s
        else:
            s = -p.bit_length() - 120
            m = (1 << -s) // p
        head = float(m)  # int to float rounds correctly
        tail = float(m - int(head))
        powers[:, i] = math.ldexp(head, s - e), 0, 0, math.ldexp(tail, s - e), 2.0**e
    head, head_top, head_bottom = powers[:3]  # the halves, filled here
    np.multiply(head, _SPLIT, out=head_top)
    head_top -= head_top - head
    np.subtract(head, head_top, out=head_bottom)
    # the digits of 0 ... 9999, then blank before the first nonzero digit,
    # and blank after the last
    digit = quads[0]
    digit[...] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    lead = np.logical_or.accumulate(digit > 0, axis=1)
    trail = np.logical_or.accumulate(digit[:, ::-1] > 0, axis=1)[:, ::-1]
    digit += ord("0")
    quads[1:] = digit
    quads[1][~lead] = 0
    quads[2][~trail] = 0
    return _CsvTables(
        powers=powers,
        quads=quads.view(np.uint32).ravel(),
        exponents=_ascii_words([b"e%+03d" % e for e in range(_X_MIN + 1, _X_MAX)] + [b""], 8)
        .view(np.uint64)
        .ravel(),
        prefixes=_ascii_words(
            [p.rjust(7, b"\0") + b"\0" for p in (b"", b"0.", b"0.0", b"0.00", b"0.000", b"0")], 8
        ).T,
        marks=_ascii_words([b"-", b".", b"\0\0\0,", b"\0\0\r\n"], 4).ravel(),
        pow10=np.array([10**j for j in range(17)]),
    )


def _scaled(a, k, t: _CsvTables):
    """floor(a * 10**k) as int64 and the fraction left over.  Dekker's exact
    product of a * 2**e with the head of 10**k / 2**e, plus a * 2**e times
    its tail, leaves an error below 1e-14 for 2**53 < a * 10**k < 1e17."""
    i = k - (16 - _X_MAX)
    a = a * t.powers[4][i]  # exact: a * 2**e is a normal double
    head = a * t.powers[0][i]  # an integer, being above 2**53
    a_top = _SPLIT * a
    a_top -= a_top - a
    a_bottom = a - a_top
    head_top, head_bottom = t.powers[1][i], t.powers[2][i]
    rest = (a_top * head_top - head) + a_top * head_bottom + a_bottom * head_top
    rest += a_bottom * head_bottom
    rest += a * t.powers[3][i]
    whole = np.floor(rest)
    rest -= whole
    return head.astype(np.int64) + whole.astype(np.int64), rest


def _digits(x, t: _CsvTables):
    """(D, X, settled) for the doubles x: the 17 significant digits D, the
    decimal exponent X, both 0 where x is zero, and whether the kernel
    settles x."""
    a = np.abs(x)
    zero = a == 0
    settled = np.isfinite(a)
    a[zero | ~settled] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, k, t)
    # log10 may be one off next to a power of ten.  floor(|x| * 10**k) shows
    # it; the rounded D would not: 9.9999999999999997e-61 rounds to 10**16.
    low, high = whole < 10**16, whole >= 10**17
    moved = low | high
    if moved.any():
        k += low
        k -= high
        whole[moved], frac[moved] = _scaled(a[moved], k[moved], t)
    frac -= 0.5
    settled &= np.abs(frac) >= _TIE_BAND
    whole += frac > 0
    exp = 16 - k
    carry = whole == 10**17
    whole[carry] = 10**16
    exp[carry] += 1
    whole[zero] = 0
    return whole, exp, settled


def _groups(v, places):
    """The digits of the int64 array v below 10**places as 4-digit groups,
    most significant first, each with the part of v below it."""
    for p in range(places - 4, -1, -4):
        g = v // 10**p
        v = v - g * 10**p
        yield g, v


def _percent_g(values) -> np.ndarray:
    """'%.17g' of each value, the kernel's fallback, as six uint32 words."""
    return _ascii_words([b"%.17g" % v for v in values.tolist()], 24)


def _fields(x, t: _CsvTables) -> np.ndarray:
    """'%.17g' of each double of x, in a 48-byte field of 12 uint32 words
    whose zero bytes are padding:
      0-4   integer part, 17 digits right-aligned without leading zeros, the
            sign in byte 0, and "0.", "0.0", ... before the digit below one
      5     the point, when a fraction follows
      6-9   fraction, 16 digits left-aligned without trailing zeros
      10-11 exponent, in %e form, and two bytes left for the separator"""
    digits, exp, settled = _digits(x, t)
    # %g: %f form for -4 <= X < 17, else %e; no trailing zeros
    fixed = (exp >= -4) & (exp < 17)
    below_one = fixed & (exp < 0)
    shift = np.where(fixed & (exp > 0), exp, 0)  # integer digits past the first
    scale = t.pow10[16 - shift]
    integer = digits // scale
    fraction = (digits - integer * scale) * t.pow10[shift]  # left-aligned
    del shift, scale
    words = np.empty((x.size, 12), np.uint32)
    # only the groups that the largest integer part needs; the rest are blank
    largest, places = integer.max(), 4
    while places < 20 and largest >= 10**places:
        places += 4
    first = 5 - places // 4
    words[:, :first] = 0
    # a group is blank-led while every group before it is zero
    lead = np.ones(x.size, bool)
    for c, (g, _) in enumerate(_groups(integer, places), first):
        np.add(g, _LEAD, out=g, where=lead)
        lead &= g == _LEAD
        words[:, c] = t.quads[g]
    words[:, 0] |= np.where(np.signbit(x), t.marks[0], 0)
    prefix = np.where(digits == 0, 5, np.where(below_one, -exp, 0))
    words[:, 3] |= t.prefixes[0][prefix]
    words[:, 4] |= t.prefixes[1][prefix]
    for c, (g, rest) in enumerate(_groups(fraction, 16), 6):
        np.add(g, _TRAIL, out=g, where=rest == 0)
        words[:, c] = t.quads[g]
    words[:, 5] = np.where((fraction == 0) | below_one, 0, t.marks[1])
    words.view(np.uint64)[:, 5] = t.exponents[np.where(fixed, -1, exp - (_X_MIN + 1))]
    slow = np.flatnonzero(~settled)
    if slow.size:
        words[slow] = 0
        words[slow, :6] = _percent_g(x[slow])
    return words


def format_block(block) -> bytes:
    """The CSV text of the rows of a 2-d float block."""
    t = _csv_tables()
    rows, cols = block.shape
    words = _fields(block.ravel(), t)
    fields = words.reshape(rows, cols, 12)
    fields[:, :-1, 11] |= t.marks[2]
    fields[:, -1, 11] |= t.marks[3]
    return words.tobytes().translate(None, b"\0")
