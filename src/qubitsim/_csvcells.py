"""'%#.9g' text of a float table, formatted by numpy: the CLI's CSV cell writer.

cli._render_csv sends it every table of numbers, whatever its size.

numpy finds each cell's nine digits and its decimal exponent e. The text of
the cell is five words looked up in tables indexed by e: a prefix (the sign,
then "0." and zeros for -4 <= e < 0), three 3-digit chunks (one of them
holds the "." where the layout of e puts it), and a suffix (the exponent
outside -4 <= e < 9, then "," or a newline). Each word is its text padded with
NUL to 8 bytes (4 for a chunk) and read as one integer; the NULs are dropped
from the joined cells.
"""

import numpy as np

# Decimal exponents e that the tables cover: format_rows passes
# 1e-289 <= |x| < 1e290 to numpy, and e stays in range through both corrections.
_EXP = 290

# One cell: prefix word, three chunk words, suffix word.
_CELL = np.dtype([("prefix", np.uint64), ("chunks", np.uint32, (3,)), ("suffix", np.uint64)])


def _tables():
    """p10, chunks, points, prefixes and suffixes; row i of all but chunks is e = i - _EXP."""
    e = np.arange(-_EXP, _EXP + 1)
    fixed = (e >= -4) & (e < 9)  # where %#.9g writes no exponent
    p10 = np.array([float(f"1e{8 - k}") for k in range(-_EXP, _EXP + 1)])  # correctly rounded
    # chunks[1000 p + v]: the three digits of v, with "." after the first p of them if p > 0.
    v = np.arange(1000)
    digits = np.stack([v // 100, v // 10 % 10, v % 10], axis=1) + ord("0")
    chunks = np.zeros((4, 1000, 4), np.uint8)
    chunks[0, :, :3] = digits
    for p in (1, 2, 3):
        chunks[p, :, :p], chunks[p, :, p] = digits[:, :p], ord(".")
        chunks[p, :, p + 1:] = digits[:, p:]
    # The "." follows digit e + 1 in fixed notation and digit 1 in exponential;
    # for e < 0 it is in the prefix. points[i, k] is chunk k's p, times 1000.
    before = np.where(fixed, np.maximum(e + 1, 0), 1)[:, None] - np.array([0, 3, 6])
    points = np.where((before >= 1) & (before <= 3), before, 0) * 1000
    # prefixes[2 i + negative]: the sign, then "0." and its zeros for -4 <= e < 0.
    lead = [sign + ("0." + "0" * (n - 1) if n else "") for n in range(5) for sign in ("", "-")]
    words = np.array(lead, "S8").view(np.uint64).reshape(5, 2)
    prefixes = words[np.where(fixed & (e < 0), -e, 0)].ravel()
    # suffixes[2 i + last]: the exponent outside fixed notation, then "," or, ending a row, "\n".
    suffixes = np.array([("" if f else f"e{k:+03d}") + end
                         for k, f in zip(e.tolist(), fixed.tolist()) for end in (",", "\n")],
                        "S8").view(np.uint64)
    tables = p10, chunks.reshape(4000, 4).view(np.uint32).ravel(), points, prefixes, suffixes
    for table in tables:  # every call shares them
        table.flags.writeable = False
    return tables


_P10, _CHUNKS, _POINTS, _PREFIXES, _SUFFIXES = _tables()


def format_rows(table, row) -> str:
    """Lines of row % cells for each row of a 2-D float table holding no -0.0, each newline-ended.

    row is the table's '%#.9g,...' format. A row with a cell that numpy
    cannot round as % does (NaN, inf, 0 < |x| < 1e-289, |x| >= 1e290, or
    within 1e-5 of a tie) goes through row % instead.
    """
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
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    if not decided.all():
        lines = text.split("\n")
        for r in np.flatnonzero(~decided.reshape(rows, cols).all(axis=1)).tolist():
            lines[r] = row % tuple(table[r])
        text = "\n".join(lines)
    return text
