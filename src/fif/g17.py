"""Rows of float64 cells as text, each cell exactly as ``"%.17g"`` prints it.

17 significant digits read back to the same float64.  The digits are
``x·10^k`` rounded half-even, for the ``k`` that puts it in [1e16, 1e17),
with the product taken as a double-double (Dekker, *A floating-point
technique for extending the available precision*, 1971), exact to about
1e-14.  A product within 1e-6 of a rounding tie needs exact arithmetic to
round (Adams, *Ryū revisited: printf floating point conversion*, OOPSLA
2019), so Python formats it, as it does the other cells this cannot
certify: zero, non-finite values, and magnitudes outside (1e-290, 1e290),
where the product's parts could under- or overflow.  One int64 division by
10^8 splits the 17-digit integer; uint32 arithmetic, which numpy divides by
a constant far faster, splits the rest into d0 and four groups of four.

A cell is four little-endian 64-bit words, and every 0 byte is dropped:

    0       "-"
    1-2     "0."          fixed notation below 1
    3-5     "000"         its zeros before the first significant digit
    6-7     d0 "."        the first significant digit, and the point when
                          all the digits after d0 are fraction digits
    8-24    d1..d16       with the point after the integer digits
    25-29   "e+ddd"       scientific: exponent sign and digits
    30-31                 the delimiter, or the newline

With ``T`` the two words of d1..d16, bytes 8-24 are
``(T & MI) | DOT | (T & MF) << 8``, a one-byte shift across two words, with
masks chosen by the format, the count of significant digits and the sign.
Rows are formatted ``BLOCK_ROWS`` at a time, so the memory a table takes
does not grow with its length.  The lookup tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

# rows formatted at a time: one block's buffers (about 0.4 MB of cells at 6
# columns) stay in cache
BLOCK_ROWS = 2048

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two halves
_E0 = 300  # exp10 + _E0 indexes the tables read by decimal exponent


def write_rows(fh, header, columns, delimiter=","):
    """Write to the text file ``fh`` the line ``header``, then one line per
    row of ``columns``, each joined by ``delimiter`` (at most two ASCII
    characters: the bytes a cell leaves for it)."""
    if len(delimiter) > 2 or not delimiter.isascii():
        raise ValueError(f"delimiter {delimiter!r}: at most two ASCII characters")
    columns = [np.asarray(c, dtype=float) for c in columns]
    fh.write(delimiter.join(header) + "\n")
    # each cell's last word ends in its delimiter, the row's last in "\n"
    ends = np.zeros((len(columns), 8), dtype=np.uint8)
    ends[:-1, 6:6 + len(delimiter)] = np.frombuffer(delimiter.encode(), dtype=np.uint8)
    ends[-1, 6] = ord("\n")
    ends = ends.view("<u8").ravel()
    for start in range(0, columns[0].size, BLOCK_ROWS):
        block = np.column_stack([c[start:start + BLOCK_ROWS] for c in columns])
        cells = np.empty(block.shape + (4,), dtype="<u8")
        cells[..., 3] = ends
        _format_cells(block.ravel(), cells.reshape(-1, 4))
        fh.write(cells.tobytes().translate(None, b"\0").decode("ascii"))


def _format_cells(x, out):
    # each float64 of x into its row of out, in the cell layout above; the
    # delimiter bytes of the last word are kept
    quad, zeros, first, key_of, exp_word, layouts = _tables()
    mag = np.abs(x)
    slow = ~((mag > 1e-290) & (mag < 1e290))
    mag[slow] = 1.0
    exp10 = np.floor(np.log10(mag)).astype(np.int64)
    k0 = 15 - int(exp10.max())
    p_hi, p_a, p_lo = np.array([_pow10(k) for k in range(k0, 18 - int(exp10.min()))]).T
    k = 16 - exp10 - k0
    hi, lo = _times_pow10(mag, p_hi[k], p_a[k], p_lo[k])
    if hi.min() <= 1e16 or hi.max() >= 1e17:
        # log10 may be one off either way near a power of ten
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        fix = np.flatnonzero(low | high)
        step = np.where(low[fix], 1, -1)
        exp10[fix] -= step
        kf = k[fix] + step
        hi[fix], lo[fix] = _times_pow10(mag[fix], p_hi[kf], p_a[kf], p_lo[kf])
    # hi >= 2^53 is an even integer, so rounding lo rounds the sum
    rounded = np.rint(lo)
    lo -= rounded
    slow |= np.abs(lo, out=lo) > 0.5 - 1e-6
    sig = hi.astype(np.int64)
    sig += rounded.astype(np.int64)
    if sig.max() == 10**17:
        carry = sig == 10**17
        sig[carry] = 10**16
        exp10 += carry
    # d0, then d1..d16 in four groups of four
    top = (sig // 10**8).astype(np.uint32)
    bottom = sig.astype(np.uint32)  # modulo 2^32, as is the product below
    bottom -= top * np.uint32(10**8)
    g = np.empty((5, x.size), dtype=np.uint32)
    np.floor_divide(top, np.uint32(10**8), out=g[0])
    top -= g[0] * np.uint32(10**8)
    for i, v in ((1, top), (3, bottom)):
        np.floor_divide(v, np.uint32(10**4), out=g[i])
        np.subtract(v, g[i] * np.uint32(10**4), out=g[i + 1])
    g = g.astype(np.intp)
    tail = zeros[g[4]]  # trailing zero digits
    more = np.flatnonzero(g[4] == 0)
    for j in (3, 2, 1):
        if not more.size:
            break
        tail[more] = 4 * (4 - j) + zeros[g[j, more]]
        more = more[g[j, more] == 0]
    exp10 += _E0
    key = key_of[exp10]
    key -= 2 * tail
    key += np.signbit(x)
    np.bitwise_or(layouts[0][key], first[g[0]], out=out[:, 0])
    spill = 0  # the top fraction digit of word 1, into word 2
    for w in (1, 2):
        t = quad[g[2 * w - 1]]
        t |= quad[g[2 * w]] << 32
        f = layouts[w + 2][key]
        f &= t
        t &= layouts[w][key]
        t |= layouts[w + 4][key]
        t |= spill
        np.bitwise_or(t, f << 8, out=out[:, w])
        spill = f >> 56
    spill |= exp_word[exp10]
    out[:, 3] |= spill
    i = np.flatnonzero(slow)
    if i.size:
        text = np.array(["%.17g" % v for v in x[i].tolist()], dtype="S30")
        out.view(np.uint8)[i, :30] = text.view(np.uint8).reshape(i.size, 30)


def _times_pow10(x, p_hi, p_a, p_lo):
    # x * (p_hi + p_lo) as hi + lo by Dekker's product; p_a and p_hi - p_a
    # are the halves of p_hi.  In place, with the sum taken in the order
    # ((x_a p_a - hi) + x_a p_b + x_b p_a) + x_b p_b + x p_lo
    x_a = x * _SPLIT
    x_b = x_a - x
    x_a -= x_b
    np.subtract(x, x_a, out=x_b)
    hi = x * p_hi
    p_b = np.subtract(p_hi, p_a, out=p_hi)
    lo = x_a * p_a
    lo -= hi
    lo += np.multiply(x_a, p_b, out=x_a)
    lo += np.multiply(x_b, p_a, out=p_a)
    lo += np.multiply(x_b, p_b, out=x_b)
    lo += np.multiply(x, p_lo, out=p_lo)
    return hi, lo


@functools.cache
def _pow10(k):
    # 10^k = hi + lo, and a the upper half of hi (at most 26 bits); integer
    # true division rounds once, so hi and lo are correctly rounded
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    lo = (num * q - p * den) / (den * q)
    # split a copy scaled by 2^-60: 1e307 * _SPLIT overflows
    s = hi * 2.0**-60
    t = s * _SPLIT
    return hi, (t - (t - s)) * 2.0**60, lo


@functools.cache
def _tables():
    # quad[i]: the four ASCII digits of i < 10^4, in the low 32 bits;
    # zeros[i]: how many of them are trailing zeros; first[d]: digit d in
    # byte 6.  key_of[e + _E0] is the key of exponent e with 17 digits and
    # no sign, exp_word[e + _E0] its exponent in word 3.  layouts[w][key]:
    # word 0's characters, then MI, MF and DOT, each for words 1 and 2.  The
    # key holds the format (e + 4 for fixed notation, -4 <= e <= 16, else
    # 21), the count of significant digits and the sign.
    i = np.arange(10**4)
    quad = (i[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    zeros = sum((i % 10**j == 0).astype(np.intp) for j in range(1, 5))
    first = (np.arange(10, dtype=np.uint64) + ord("0")) << 48
    e = np.arange(-_E0, _E0 + 1)
    sci = (e < -4) | (e > 16)
    text = np.zeros((e.size, 8), dtype=np.uint8)
    text[:, 1:3] = np.where(e < 0, ord("-"), ord("+"))[:, None]
    text[:, 1] = ord("e")
    text[:, 3:6] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    text[:, 3] *= np.abs(e) >= 100
    text[~sci] = 0
    key_of = np.where(sci, 21, e + 4) * 34 + 32
    form, sig, neg = (
        v.ravel()[:, None] for v in np.meshgrid(np.arange(22), np.arange(1, 18), [0, 1],
                                                indexing="ij")
    )
    lead = form < 4
    whole = np.where(lead | (form == 21), 1, form - 3)  # integer digits, d0 on
    shift = whole > 1
    r = np.arange(1, 17)
    keep = np.zeros((form.size, 56), dtype=bool)
    keep[:, :1] = neg == 1
    keep[:, 1:3] = lead
    keep[:, 3:6] = r[:3] <= np.where(lead, 3 - form, 0)
    keep[:, 7:8] = ~lead & (whole == 1) & (sig > 1)
    keep[:, 8:24] = r < np.where(shift, whole, sig)
    keep[:, 24:40] = shift & (r >= whole) & (r < sig)
    keep[:, 40:56] = shift & (r == whole) & (sig > whole)
    chars = np.frombuffer(b"-0.000\0." + b"\xff" * 32 + b"." * 16, dtype=np.uint8)
    layouts = np.where(keep, chars, 0).astype(np.uint8).view("<u8").T.copy()
    return (quad.view("<u4").ravel().astype("<u8"), zeros, first, key_of,
            text.view("<u8").ravel(), layouts)
