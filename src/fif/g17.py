"""Rows of float64 cells as text, each cell exactly as ``"%.17g"`` prints it.

17 significant digits read back to the same float64.  The digits are
``x·10^k`` rounded half-even, for the ``k`` that puts it in [1e16, 1e17),
with the product taken as a double-double (Dekker, *A floating-point
technique for extending the available precision*, 1971), exact to about
1e-14.  A product within 1e-6 of a rounding tie needs exact arithmetic to
round (Adams, *Ryū revisited: printf floating point conversion*, OOPSLA
2019), so Python formats it, as it does the other cells this cannot
certify: zero, non-finite values, and magnitudes outside (1e-290, 1e290),
where the product's parts could under- or overflow.

Rows are formatted ``BLOCK_ROWS`` at a time, so the memory a table takes
does not grow with its length.  The lookup tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

# rows formatted at a time: one block's buffers (about 0.7 MB at 6 columns)
# stay in cache
BLOCK_ROWS = 2048

# A cell is seven little-endian 64-bit words, 56 bytes, and every 0 byte is
# dropped on output.  Byte by byte:
#   0       "-"
#   1-2     "0."             fixed notation below 1
#   4-6     "000"            its zeros before the first significant digit
#   7       d0               the first significant digit, always printed
#   8-23    d1..d16          the integer digits after d0, or after "0." all
#   31      "."              fixed notation from 1 up, and scientific
#   32-47   d1..d16          the fraction digits after that point
#   48-52   "e+ddd"          scientific: exponent sign and digits
#   53-55                    the delimiter, or the newline
# Bytes 3 and 24-30 are never printed; they align the digit words.
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two halves


def write_rows(fh, columns, delimiter=","):
    """Write one line per row of ``columns`` to the text file ``fh``, cells
    joined by ``delimiter`` (at most three characters)."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    # each cell's last word ends in its delimiter, the row's last in "\n"
    ends = np.zeros((len(columns), 8), dtype=np.uint8)
    ends[:-1, 5:5 + len(delimiter)] = np.frombuffer(delimiter.encode(), dtype=np.uint8)
    ends[-1, 5] = ord("\n")
    ends = ends.view("<u8").ravel()
    for start in range(0, columns[0].size, BLOCK_ROWS):
        block = np.column_stack([c[start:start + BLOCK_ROWS] for c in columns])
        cells = np.empty(block.shape + (7,), dtype="<u8")
        cells[..., 6] = ends
        _format_cells(block.ravel(), cells.reshape(-1, 7))
        fh.write(cells.tobytes().translate(None, b"\0").decode("ascii"))


def _format_cells(x, out):
    # each float64 of x into its row of out, in the cell layout above; the
    # delimiter bytes of the last word are kept
    quad, zeros, layouts = _tables()
    mag = np.abs(x)
    slow = ~((mag > 1e-290) & (mag < 1e290))
    mag[slow] = 1.0
    exp10 = np.floor(np.log10(mag)).astype(np.int64)
    # log10 may be one off either way near a power of ten
    k0 = 15 - int(exp10.max())
    p_hi, p_a, p_lo = np.array([_pow10(k) for k in range(k0, 18 - int(exp10.min()))]).T
    k = 16 - exp10 - k0
    hi, lo = _times_pow10(mag, p_hi[k], p_a[k], p_lo[k])
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        step = np.where(low[fix], 1, -1)
        exp10[fix] -= step
        kf = k[fix] + step
        hi[fix], lo[fix] = _times_pow10(mag[fix], p_hi[kf], p_a[kf], p_lo[kf])
    # hi >= 2^53 is an even integer, so rounding lo rounds the sum
    rounded = np.rint(lo)
    slow |= np.abs(lo - rounded) > 0.5 - 1e-6
    sig = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = sig == 10**17
    sig[carry] = 10**16
    exp10 += carry
    # the 17 digits in groups of 1, 4, 4, 4 and 4
    sig, g4 = np.divmod(sig, 10**4)
    sig, g3 = np.divmod(sig, 10**4)
    g0, sig = np.divmod(sig, 10**8)
    g1, g2 = np.divmod(sig, 10**4)
    tail = zeros[g4]  # trailing zero digits
    more = g4 == 0
    for j, g in enumerate((g3, g2, g1), start=1):
        tail[more] = 4 * j + zeros[g[more]]
        more &= g == 0
    sci = (exp10 < -4) | (exp10 > 16)
    form = np.where(sci, 21 + (np.abs(exp10) >= 100), exp10 + 4)
    key = (form * 17 + 16 - tail) * 2 + np.signbit(x)
    head = quad[g1] | quad[g2] << 32
    rest = quad[g3] | quad[g4] << 32
    out[:, 0] = layouts[0][key] & (quad[g0] << 32 | 0xFFFFFFFF)
    out[:, 1] = layouts[1][key] & head
    out[:, 2] = layouts[2][key] & rest
    out[:, 3] = layouts[3][key]
    out[:, 4] = layouts[4][key] & head
    out[:, 5] = layouts[5][key] & rest
    i = np.flatnonzero(sci & ~slow)
    if i.size:
        e = exp10[i]
        sign = (ord("+") + 2 * (e < 0)).astype(np.uint64)  # "+" or "-"
        out[i, 6] |= layouts[6][key[i]] & (0xFF | sign << 8 | quad[np.abs(e)] >> 8 << 16)
    i = np.flatnonzero(slow)
    if i.size:
        text = np.array(["%.17g" % v for v in x[i].tolist()], dtype="S48")
        out.view(np.uint8)[i, :48] = text.view(np.uint8).reshape(i.size, 48)


def _times_pow10(x, p_hi, p_a, p_lo):
    # x * (p_hi + p_lo) as hi + lo by Dekker's product; p_a and p_hi - p_a
    # are the halves of p_hi
    p_b = p_hi - p_a
    t = x * _SPLIT
    x_a = t - (t - x)
    x_b = x - x_a
    hi = x * p_hi
    lo = ((x_a * p_a - hi) + x_a * p_b + x_b * p_a) + x_b * p_b + x * p_lo
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
    # zeros[i]: how many of them are trailing zeros; layouts[w][key]: word w
    # of a cell, with the fixed characters it prints, 0xFF on the digit and
    # exponent bytes it prints and 0 elsewhere.  The key holds the format
    # (e + 4 for fixed notation, -4 <= e <= 16; 21 and 22 for scientific with
    # two and three exponent digits), the significant digits and the sign.
    i = np.arange(10**4)
    quad = (i[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    zeros = sum((i % 10**j == 0).astype(np.int64) for j in range(1, 5))
    form, sig, neg = (
        v.ravel() for v in np.meshgrid(np.arange(23), np.arange(1, 18), [0, 1],
                                       indexing="ij")
    )
    sci = form > 20
    lead = form < 4
    whole = np.where(sci, 1, np.where(lead, 0, form - 3))  # integer-part digits
    r = np.arange(1, 17)
    keep = np.zeros((form.size, 56), dtype=bool)
    keep[:, 0] = neg == 1
    keep[:, 1:3] = lead[:, None]
    keep[:, 4:7] = r[:3] <= np.where(lead, 3 - form, 0)[:, None]
    keep[:, 7] = True
    keep[:, 8:24] = r < np.where(lead, sig, whole)[:, None]
    keep[:, 31] = ~lead & (sig > whole)
    keep[:, 32:48] = ~lead[:, None] & (r >= whole[:, None]) & (r < sig[:, None])
    keep[:, 48:53] = sci[:, None]
    keep[:, 50] &= form == 22
    text = np.frombuffer(b"-0.\x00000" + b"\xff" * 17 + b"\x00" * 7 + b"." + b"\xff" * 16
                         + b"e" + b"\xff" * 4 + b"\x00" * 3, dtype=np.uint8)
    layouts = np.where(keep, text, 0).astype(np.uint8).view("<u8").T.copy()
    return quad.view("<u4").ravel().astype("<u8"), zeros, layouts
