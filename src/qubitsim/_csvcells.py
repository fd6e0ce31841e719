"""Float text formatted by numpy: the CLI's CSV cells and its JSON columns.

cli._render_csv sends format_rows every table, whatever its size, for
'%#.9g' text. cli._document_pieces sends format_column every block of a
JSON data column, for repr text: Python's shortest digits that read back as
the same float; short blocks and what numpy cannot write take the C encoder.

Both writers find each cell's digits and its decimal exponent e in numpy,
then look the text up in word tables: a prefix (the sign, then "0." and
zeros where the layout needs them), 3-digit chunks (one of them holds the
"." where the layout puts it), and a suffix (the exponent, then the
separator). Each word is its text padded with NUL to 4 bytes (a chunk) or
8 or 16 (the others) and read as one integer; the NULs are dropped from the
joined cells. The chunk table has two axes of layout, the digits of the chunk
kept and the position of its "."; CSV keeps all three digits. Both writers
splice the cells that numpy does not write into its text, one at a time.
"""

import json

import numpy as np

# Decimal exponents e that the CSV tables cover: format_rows passes
# 1e-289 <= |x| < 1e290 to numpy, and e stays in range through both corrections.
_EXP = 290

# Decimal exponents e of the JSON tables: format_column writes 1e-6 < |x| < 1e16
# in numpy, where 10**(16 - e) is an exact double.
_LOW, _HIGH = -6, 15

# Veltkamp's constant 2**27 + 1: it splits a double into two halves of 26 bits,
# whose products are exact, for Dekker's exact product of two doubles.
_SPLIT = 134217729.0

# json.dumps(indent=2)'s separator between the floats of a data column.
ITEM_SEPARATOR = ",\n      "

_ENCODER = json.JSONEncoder(separators=(ITEM_SEPARATOR, ": "))

# Floats in a block from which format_column writes it faster than the C
# encoder. Its fixed cost is about 0.1 ms; the two break even near 300 floats
# of 17 digits, and later for floats with fewer digits.
_NUMPY_FLOATS = 500

# One CSV cell: prefix word, three chunk words, suffix word.
_CELL = np.dtype([("prefix", np.uint64), ("chunks", np.uint32, (3,)), ("suffix", np.uint64)])
# One JSON cell: prefix word, six chunk words (17 digits and a padding zero), suffix words.
_ITEM = np.dtype([("prefix", np.uint64), ("chunks", np.uint32, (6,)),
                  ("suffix", np.uint64, (2,))])


def _chunks():
    """chunks[1000 (4 kept + point) + v]: v's first kept digits, "." after point of them."""
    v = np.arange(1000)
    # Per v: its three digits, ".", NUL; per (kept, point, byte): which of the five it writes.
    letters = np.zeros((5, 1000), np.uint8)
    letters[:3] = [v // 100, v // 10 % 10, v % 10]
    letters[:3] += ord("0")
    letters[3] = ord(".")
    kept, point, byte = np.ogrid[:4, :4, :4]
    digit = byte - ((point > 0) & (byte > point))
    source = np.where((point > 0) & (byte == point), 3, np.where(digit < kept, digit, 4))
    words = letters[source]  # (kept, point, byte, v)
    return words.transpose(0, 1, 3, 2).reshape(16000, 4).view(np.uint32).ravel()


def _csv_tables():
    """p10, points, prefixes and suffixes; row i is e = i - _EXP."""
    e = np.arange(-_EXP, _EXP + 1)
    fixed = (e >= -4) & (e < 9)  # where %#.9g writes no exponent
    p10 = np.array([float(f"1e{8 - k}") for k in range(-_EXP, _EXP + 1)])  # correctly rounded
    # The "." follows digit e + 1 in fixed notation and digit 1 in exponential;
    # for e < 0 it is in the prefix. points[i, k] is chunk k's offset in _CHUNKS.
    before = np.where(fixed, np.maximum(e + 1, 0), 1)[:, None] - np.array([0, 3, 6])
    points = (12 + np.where((before >= 1) & (before <= 3), before, 0)) * 1000
    # prefixes[2 i + negative]: the sign, then "0." and its zeros for -4 <= e < 0.
    leads = np.array([sign + ("0." + "0" * (n - 1) if n else "") for n in range(5)
                      for sign in ("", "-")], "S8").view(np.uint64).reshape(5, 2)
    prefixes = leads[np.where(fixed & (e < 0), -e, 0)].ravel()
    # suffixes[2 i + last]: the exponent outside fixed notation, then "," or, ending a row, "\n".
    # A NUL in place of a zero hundreds digit drops out with the padding.
    k = np.abs(e)
    words = np.zeros((e.size, 2, 8), np.uint8)
    words[:, :, :5] = (~fixed[:, None] * np.stack([
        np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
        np.where(k >= 100, k // 100 + ord("0"), 0), k // 10 % 10 + ord("0"), k % 10 + ord("0"),
    ], axis=1))[:, None]
    words[:, :, 5] = [ord(","), ord("\n")]
    suffixes = words.view(np.uint64).ravel()
    return p10, points, prefixes, suffixes


def _json_tables():
    """Splits of 10**(16 - e), layouts, last digits and suffixes; row i is e = i + _LOW."""
    e = np.arange(_LOW, _HIGH + 1)
    p10 = np.array([float(f"1e{16 - k}") for k in e.tolist()])  # 10**1 to 10**22: exact
    c = p10 * _SPLIT
    p10_hi = c - (c - p10)
    # The last row scales 2**(E - 1) to half an ulp, in units of y = x * 10**(16 - e).
    splits = np.stack([p10, p10_hi, p10 - p10_hi, p10 * 2.0**-53])
    # repr writes digits 1 to L of the 17, with "." after digit point (none if 0):
    # e < -4 as d.ddde-05, the rest positional, at least one digit after the ".".
    p = np.arange(18)[:, None]  # significant digits
    positional = e >= -4
    length = np.where(e >= 0, np.maximum(p, e + 2), p)
    point = np.where(positional, np.maximum(e + 1, 0), np.where(p > 1, 1, 0))
    start = 3 * np.arange(6)
    kept = np.clip(length[..., None] - start, 0, 3)
    at = point[..., None] - start
    layouts = (4 * kept + np.where((at >= 1) & (at <= 3), at, 0)) * 1000  # (p, e, chunk)
    # last[1000 k + v]: the position among the 18 digits of v's last nonzero digit, in chunk k.
    v = np.arange(1000)
    zeros = (v % 10 == 0).astype(int) + (v % 100 == 0) + (v == 0)
    last = np.where(v > 0, start[:, None] + 3 - zeros, 0).ravel()
    suffixes = np.array([[f"e{k:03d}" * (k < -4) + end for end in (ITEM_SEPARATOR, "")]
                         for k in e.tolist()], "S16")
    return (splits, layouts.reshape(-1, 6).T.astype(np.int32), last.astype(np.int32),
            suffixes.view(np.uint64).reshape(-1, 2))


_CHUNKS = _chunks()
_P10, _POINTS, _PREFIXES, _SUFFIXES = _csv_tables()
_SPLITS, _LAYOUTS, _LAST, _ITEM_SUFFIXES = _json_tables()
for _table in (_CHUNKS, _P10, _POINTS, _PREFIXES, _SUFFIXES, _SPLITS, _LAYOUTS, _LAST,
               _ITEM_SUFFIXES):
    _table.flags.writeable = False  # every call shares them
del _table
_ROWS = 1000 * np.arange(6)[:, None]  # chunk k's rows of _LAST
# A spliced cell's prefix: "\1", which _joined replaces with the cell's text.
_GAP = np.array(b"\1", "S8").view(np.uint64)


def _joined(cells, rest, texts) -> str:
    """Text of cells, texts in order in place of the cells at rest, whose suffix is a separator."""
    if not rest.size:
        return cells.tobytes().translate(None, b"\0").decode("ascii")
    cells["prefix"][rest], cells["chunks"][rest] = _GAP, 0
    items = [""] * (2 * rest.size + 1)
    items[::2] = cells.tobytes().translate(None, b"\0").decode("ascii").split("\1")
    items[1::2] = texts
    return "".join(items)


def format_rows(columns) -> str:
    """Lines of a table's columns, each newline-ended: '%#.9g' % (x + 0.0) per number, str as is.

    Each column is a float array or a list of str, all of one length. numpy
    writes every number that it rounds as % does, -0.0 as 0.00000000; the
    other cells (text, NaN, inf, 0 < |x| < 1e-289, |x| >= 1e290, or within
    1e-5 of a tie) are written one at a time and spliced in.
    """
    text = [np.asarray(values).dtype.kind == "U" for values in columns]
    # NaN holds a text cell's place: numpy writes no NaN.
    table = np.column_stack([np.full(len(values), np.nan) if is_text else values
                             for values, is_text in zip(columns, text)])
    rows, cols = table.shape
    x = table.ravel()
    a = np.abs(x)
    normal = (a >= 1e-289) & (a < 1e290)  # NaN compares false
    safe = np.where(normal, a, 1.0)
    e = np.floor(np.log10(safe)).astype(np.intp)
    scaled = safe * _P10.take(e + _EXP)  # a * 10**(8 - e) to two roundings: within 1e-6
    # log10 can land on the wrong side of a power of ten; move e so that 1e8 <= scaled < 1e9.
    off = np.flatnonzero((scaled < 1e8) | (scaled >= 1e9))
    if off.size:
        e[off] += np.where(scaled[off] < 1e8, -1, 1)
        scaled[off] = safe[off] * _P10.take(e[off] + _EXP)
    nine = np.rint(scaled)
    # Away from a tie, rint of scaled rounds as % rounds the exact value. Decide
    # this before the carry below, which would move scaled off its digits.
    decided = (normal & (np.abs(scaled - nine) < 0.5 - 1e-5)) | (a == 0.0)
    nine *= normal  # zero: nine zero digits at e = 0
    carry = np.flatnonzero(nine == 1e9)
    if carry.size:
        nine[carry] = 1e8
        e[carry] += 1
    rest = np.flatnonzero(~decided)
    e[rest] = 0  # at e = 0 the suffix is the separator alone
    high = np.floor(nine / 1e3)
    top = np.floor(high / 1e3)
    e += _EXP
    digits = np.stack([top, high - top * 1e3, nine - high * 1e3], axis=1).astype(np.intp)
    cells = np.empty(x.size, _CELL)
    cells["chunks"] = _CHUNKS.take(_POINTS.take(e, axis=0) + digits)
    e *= 2
    cells["suffix"] = _SUFFIXES.take(e.reshape(rows, cols) + (np.arange(cols) == cols - 1)).ravel()
    e += x < 0
    cells["prefix"] = _PREFIXES.take(e)
    return _joined(cells, rest, [columns[k % cols][k // cols] if text[k % cols] else "%#.9g" % x[k]
                                 for k in rest.tolist()])


def _times_power_of_ten(a, i):
    """a * 10**(16 - e) exactly as hi + lo, e = i + _LOW: Dekker's product of Veltkamp splits."""
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * _SPLITS[0].take(i)
    p_hi, p_lo = _SPLITS[1].take(i), _SPLITS[2].take(i)
    return hi, a_hi * p_hi - hi + a_hi * p_lo + a_lo * p_hi + a_lo * p_lo


def _encoded(values) -> str:
    """The C encoder's text of the floats of a numpy array, joined by ITEM_SEPARATOR."""
    return _ENCODER.encode(values.tolist())[1:-1]


def format_column(x) -> str:
    """ITEM_SEPARATOR.join(map(repr, x)) for a 1-D float64 array, NaN and inf as json writes them.

    A block of _NUMPY_FLOATS floats or more with a cell in numpy's band is
    written in numpy; any other block is the C encoder's text. numpy writes
    0.0, -0.0 and 1e-6 < |x| < 1e16 apart from powers of two; the encoder
    writes the other cells (NaN, inf, the rest), each put in its place.

    Each in-band x has y = x * 10**(16 - e) in [1e16, 1e17), made exact as
    n + f. The 17-, 16- and 15-digit candidates round y half-even to a
    multiple of 1, 10 or 100. One reads back as x if it lies within half an
    ulp of x, which in units of y is H = 2**(E - 54) * 10**(16 - e), between
    0.55 and 11.2, for 2**(E - 1) <= |x| < 2**E; the ulp below |x| is as wide
    except at a power of two. A candidate at exactly H would be a binary
    midpoint, which has 17 digits or more below 2**53 and is odd above it, so
    none is. Two multiples of 100 never both read back, so a shorter candidate
    that reads back is the 15-digit one, its trailing zeros stripped. The
    17-digit one always reads back. y never rounds up to 1e17: 10**(e + 1)
    would then read back as x, and fl(10**k) < 10**k only for k = -6.
    """
    if len(x) < _NUMPY_FLOATS:
        return _encoded(x)
    a = np.abs(x)
    # fl(1e-6) is below 1e-6, so the band starts above it. NaN compares false.
    band = (a > 1e-6) & (a < 1e16) & (a.view(np.int64) & (2**52 - 1) != 0)
    if not band.any():
        return _encoded(x)
    safe = np.where(band, a, 1.5)
    i = np.clip(np.floor(np.log10(safe)).astype(np.intp), _LOW, _HIGH) - _LOW  # e - _LOW
    hi, lo = _times_power_of_ten(safe, i)
    # log10 can land on the wrong side of a power of ten; move e so that 1e16 <= y < 1e17.
    off = np.flatnonzero((hi < 1e16) | ((hi == 1e16) & (lo < 0))
                         | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if off.size:
        i[off] += np.where(hi[off] <= 1e16, -1, 1)
        hi[off], lo[off] = _times_power_of_ten(safe[off], i[off])
    # y = n + f, 0 <= f < 1, exactly: hi is an even integer, and lo a multiple of
    # 2**-50 with |lo| <= 8. So are H = h_whole + h_part and the sums below.
    below = np.floor(lo)
    f = lo - below
    whole = hi.astype(np.int64)
    n = whole + below.astype(np.int64)
    digits = whole + np.rint(lo).astype(np.int64)  # 17 digits: rint rounds lo half-even
    half = (safe.view(np.int64) & 0x7FF << 52).view(np.float64) * _SPLITS[3].take(i)
    h_whole = np.floor(half)
    ahead, behind = half - h_whole - f, half - h_whole + f
    tens = n // 10
    r10 = n - 10 * tens
    # 16 digits: n - r10 reads back if r10 + f < H, n - r10 + 10 if 10 - r10 - f < H.
    # Both may; then the nearer, half-even at a tie. One alone is the nearer.
    r = r10.astype(np.float64)
    down = r - h_whole < ahead
    up = 10.0 - h_whole - r < behind
    up &= (5.0 - r < f) | ((5.0 - r == f) & (tens & 1 == 1))
    digits = np.where(down | up, n - r10 + 10 * up, digits)
    # 15 digits: only one multiple of 100 can read back.
    r100 = n - 100 * (tens // 10)
    r = r100.astype(np.float64)
    down = r - h_whole < ahead
    up = 100.0 - h_whole - r < behind
    digits = np.where(down | up, n - r100 + 100 * up, digits)
    digits *= band  # zero and the cells that the encoder writes: 0.0
    # Chunks of three digits from 18: the 17 and a padding zero.
    top = digits // 10**8
    nines = np.array([top, (digits - top * 10**8) * 10], np.int32)
    high = nines // 1000
    chunks = np.empty((2, 3, x.size), np.int32)
    np.floor_divide(high, 1000, out=chunks[:, 0])
    np.subtract(high, 1000 * chunks[:, 0], out=chunks[:, 1])
    np.subtract(nines, 1000 * high, out=chunks[:, 2])
    chunks = chunks.reshape(6, -1)
    p = _LAST.take(chunks + _ROWS).max(axis=0)  # significant digits; 0 for 0.0
    cells = np.empty(x.size, _ITEM)
    cells["chunks"] = _CHUNKS.take(_LAYOUTS.take(p * (_HIGH - _LOW + 1) + i, axis=1) + chunks).T
    i *= 2
    cells["prefix"] = _PREFIXES.take(i + 2 * (_LOW + _EXP) + np.signbit(x))  # CSV row of e
    i[-1:] += 1
    cells["suffix"] = _ITEM_SUFFIXES.take(i, axis=0)
    rest = np.flatnonzero(~band & (a != 0.0))
    return _joined(cells, rest, _encoded(x[rest]).split(ITEM_SEPARATOR))
