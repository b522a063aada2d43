"""Float text: ``repr``'s bytes for float64 arrays, and lines made of them.

``float_text`` is a vectorized shortest round-trip printer (Steele & White,
PLDI 1990; Adams, "Ryu", PLDI 2018): each finite nonzero |x| and its
rounding interval are scaled by 10^(16-k) into [1e16, 1e18] as
double-doubles, and the text is the multiple of the largest power of ten
inside the interval, the one nearest x if there are several.  Where that
choice is not certain, for +-0, inf and nan, and for fewer than ``_FEW``
values, ``repr`` gives the text.  ``rows`` joins texts into lines.
"""

import functools
from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WIDTH = 24  # the longest text: -1.2345678901234567e-308
_ROW = np.dtype((np.void, WIDTH))  # one text as a single item
# Values per block, so that its temporaries stay in cache: on a 2-vCPU Xeon
# (4 MB L2) a float cost 0.29 us in blocks of 4096 and 0.24 us in 8192.
_BLOCK = 8192
_FEW = 256  # repr's time for this many values, ~0.25 ms, is a kernel call's fixed cost
_K_MIN, _K_MAX = -326, 308  # floor(log10 |x|) - 1 of finite nonzero doubles, +-1
# An interval end this close to an integer, where the reader's half-even
# rule would decide, or a tie this close is left to repr.  S is good to 1e-13.
_TOL = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for Dekker's product

_Tables = namedtuple("_Tables", "hi hi_h hi_l lo shift quads exponents powers masks")


@functools.cache
def _tables() -> _Tables:
    """Entry k - _K_MIN: P = 10^(16-k) / 2^s in [1, 2) as hi + lo (hi also
    as 26-bit halves hi_h + hi_l) and s, from integers.  quads[i]: i as four
    digits; exponents[:, e - _K_MIN]: "e%+03d" % e; masks[w]: w bytes set."""
    hi, lo, shift = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        s = num.bit_length() - den.bit_length() - (den > 1)  # 2^s <= num/den
        n = (num << 127 - s) // den if s <= 127 else num >> s - 127
        hi.append((n >> 75) * 2.0 ** -52)
        lo.append(float(n & (1 << 75) - 1) * 2.0 ** -127)
        shift.append(s)
    hi = np.array(hi)
    hi_h = hi * _SPLIT - (hi * _SPLIT - hi)
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), np.uint32)
    exponents = b"".join((b"e%+03d" % e).ljust(5, b"\0") for e in range(_K_MIN, _K_MAX + 2))
    powers = 10 ** np.arange(19, dtype=np.int64)
    masks = np.where(np.arange(WIDTH) < np.arange(WIDTH + 1)[:, None], 255, 0)
    return _Tables(hi, hi_h, hi - hi_h, np.array(lo), np.array(shift), quads,
                   np.frombuffer(exponents, np.uint8).reshape(-1, 5).T, powers,
                   masks.astype(np.uint8).view(_ROW).ravel())


def _int_frac(hi, lo=0.0):
    """hi + lo as an int64 part and a fraction in [0, 1]."""
    whole = np.floor(hi)
    rest = (hi - whole) + lo
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _pow2(j):
    """2.0 ** j for int64 j in [-1022, 1023], made from its bits."""
    return ((j + 1023) << 52).view(np.float64)


def _scaled(ax, k, tables):
    """S = ax 10^(16-k) as an int64 part and a fraction, and s."""
    i = k - _K_MIN
    s = tables.shift[i]
    half = s >> 1
    xs = ax * _pow2(half) * _pow2(s - half)  # exact: S / P, in [2^52, 2^60)
    xh = xs * _SPLIT - (xs * _SPLIT - xs)
    xl = xs - xh
    hi, hi_h, hi_l = tables.hi[i], tables.hi_h[i], tables.hi_l[i]
    p = xs * hi  # p + err is xs * hi exactly (Dekker)
    err = ((xh * hi_h - p) + xh * hi_l + xl * hi_h) + xl * hi_l
    whole, frac = _int_frac(p, err + xs * tables.lo[i])
    return whole, frac, s


def _masks(widths):
    """One WIDTH-byte row per width w, its first w bytes set."""
    return np.take(_tables().masks, widths).view(np.uint8).reshape(-1, WIDTH)


def _format_block(x):
    """The text of each finite nonzero value in ``x``, and the positions
    whose text must come from ``repr`` instead."""
    tables = _tables()
    n = len(x)
    ax = np.abs(x)
    # One below floor(log10 x), which log10 may miss by one: S in [1e16, 1e18].
    k = np.floor(np.log10(ax)).astype(np.int64) - 1
    whole, frac, s = _scaled(ax, k, tables)

    # The half-ulp 2^(e-1) above x, e the exponent of its last bit, scaled
    # like x, and the one below, half as wide at a power of two.
    bits = ax.view(np.int64)
    biased = bits >> 52
    e = np.maximum(biased, 1) - 1076 + s
    i = k - _K_MIN
    h_hi, h_lo = tables.hi[i] * _pow2(e), tables.lo[i] * _pow2(e)
    up_whole, up_frac = _int_frac(h_hi, h_lo)
    halve = np.where(((bits & ((1 << 52) - 1)) == 0) & (biased > 1), 0.5, 1.0)
    down_whole, down_frac = _int_frac(h_hi * halve, h_lo * halve)
    borrow, low_frac = _int_frac(frac - down_frac)
    carry, high_frac = _int_frac(frac + up_frac)
    low, high = whole - down_whole + borrow, whole + up_whole + carry
    unsure = (np.abs(low_frac - 0.5) > 0.5 - _TOL) | (np.abs(high_frac - 0.5) > 0.5 - _TOL)

    # The largest t with a multiple of 10^t in (low, high]: divide by ten.
    t = np.zeros(n, np.int64)
    live, h, l = np.arange(n), high, low
    while live.size:
        h, l = h // 10, l // 10
        more = h > l
        live, h, l = live[more], h[more], l[more]
        t[live] += 1
    # Of the multiples of 10^t next to S, the nearer one that lies inside.
    power = tables.powers[t]
    below = whole // power * power
    gap = 2.0 * (whole - below - power // 2) + 2.0 * frac - (t == 0)
    can_down = below > low
    can_up = below + power <= high
    unsure |= can_down & can_up & (np.abs(gap) < 2 * _TOL)
    c = below + power * (~can_down | (can_up & (gap > 0)))
    size = 17 + (c >= 10 ** 17) + (c >= 10 ** 18)  # c >= 1e16 has this many digits
    digits = size - t  # significant ones
    point = k - 16 + size  # repr's decimal point: x = 0.DIGITS 10^point

    # "0000", then c's digits right-aligned in four-digit groups.
    groups = np.full((n + 2, WIDTH // 4), tables.quads[0])
    for col in range(5, 0, -1):
        rest = c // 10000
        groups[:n, col] = tables.quads[c - rest * 10000]
        c = rest
    chars = sliding_window_view(groups.view(np.uint8).ravel(), WIDTH)

    # Row r of the text is the digits from column start, with "." at
    # column dot and the digits after it one column further right, up to
    # column length; a minus sign shifts all of it by one.
    neg = np.signbit(x)
    fixed = (point >= -3) & (point <= 16)
    first = WIDTH - size  # the column of c's first digit
    start = np.where(fixed, first - 1 + np.minimum(point, 1), first)
    dot = neg + np.where(fixed, np.maximum(point, 1), 1)
    tail = np.where(fixed, np.maximum(digits - point, 1), digits - 1)
    length = dot + np.where(tail > 0, tail + 1, 0)
    text = chars[np.arange(n) * WIDTH + start - neg]
    shifted = np.empty_like(text)  # text one column to the right
    shifted[:, 1:] = text[:, :-1]
    text &= _masks(dot)
    shifted &= _masks(length)
    shifted &= ~_masks(dot + 1)  # dot >= 1: column 0 is cleared
    out = text | shifted
    out.ravel()[np.flatnonzero(tail) * WIDTH + dot[tail > 0]] = ord(".")
    out[neg, 0] = ord("-")
    # The exponent, where there is one, from column length on.
    sci = np.flatnonzero(~fixed)
    at = sci * WIDTH + length[sci]
    for column, char in enumerate(tables.exponents[:, point[sci] - 1 - _K_MIN]):
        out.ravel()[at + column] = char
    return out, np.flatnonzero(unsure)


def float_text(values) -> np.ndarray:
    """``repr`` of every float in ``values``, flattened, as a (n, WIDTH)
    uint8 array of ASCII padded with NUL bytes."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(flat) & (flat != 0) & (flat.size >= _FEW)
    plain = np.flatnonzero(finite)
    out = np.empty((flat.size, WIDTH), np.uint8)
    unsure = [np.flatnonzero(~finite)]
    for at in range(0, plain.size, _BLOCK):
        block = plain[at:at + _BLOCK]
        text, from_repr = _format_block(flat[block])
        out.view(_ROW)[block] = text.view(_ROW)
        unsure.append(block[from_repr])
    unsure = np.concatenate(unsure)  # these take repr, called once per bit pattern
    bits, inverse = np.unique(flat[unsure].view(np.int64), return_inverse=True)
    text = "".join(repr(v).ljust(WIDTH, "\0") for v in bits.view(np.float64).tolist())
    out[unsure] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, WIDTH)[inverse]
    return out


def rows(fields, sep: bytes = b",") -> bytes:
    """Join NUL-padded texts, one (n, w) uint8 array per field, into lines:
    a slot per field one column wider than its longest text ends with
    ``sep`` (a newline for the last field), then every NUL is dropped."""
    widths = []
    for field in fields:
        width = field.shape[1]
        while width and not field[:, width - 1].any():
            width -= 1
        widths.append(width + 1)
    cube = np.zeros((len(fields[0]), sum(widths)), np.uint8)
    at = 0
    for field, width in zip(fields, widths):
        cube[:, at:at + width - 1] = field[:, :width - 1]
        at += width
        cube[:, at - 1] = ord(sep)
    cube[:, -1] = ord("\n")
    return cube[cube != 0].tobytes()
