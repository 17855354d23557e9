"""Batch CLI: verification suites, sweeps, state evolution and oscillation
tables with deterministic CSV/JSON output.

Numeric serialization is decimal with 17 significant digits ('%.17g'), so
every value round-trips bit-exactly through the emitted files.  A table
command computes its table as one (N, k) float array, and write_table writes
it KERNEL_CELLS // k rows at a time, one fmt call per block, straight to the
stream: the header, the blocks with the row separator ('\n' in CSV, '], ['
in JSON) between them, and the closer.  fmt's numpy kernel writes a block's
'%.17g' text byte for byte, separators only between cells, as a (words,
cells) grid of ASCII from which the words NUL in every cell are dropped
before it is transposed to text a slice at a time.  A cell's column
starts with the separator before it, whose last byte shares word 0 with the
sign, the first digit and the point: a cell 0.ddd of an oscillate table
takes 6 words (24 bytes) of the grid for its 20 bytes of text.  A constant
column, with the bits of its first row on every row of the block (6 of
evolve's 10 from a basis state, which mixes with one partner only), is
formatted once and skipped by the kernel: its text joins the separators
around it, and a separator longer than '\n' or '], [' goes through the grid
as one code byte, replaced in the joined text, so that no column of the
grid grows.  A block is 10,240 cells: the kernel works in place where it
can and frees each temporary once it is dead, so a block peaks at about
90 B a cell, and a table pays the kernel's fixed cost (about 0.1 ms, some
100 numpy calls) once per 10,240 cells.  Only verify's report, whose rows
start with a name, is written cell by cell, as one block.  main first has
glibc's malloc keep freed memory for reuse, so that the temporaries of one
block or command do not page-fault in fresh memory for the next.

Exit codes: 0 success, 1 verification failure, 2 configuration/validation error
or an OSError on output, 130 interrupted (Ctrl-C), 141 stdout closed by its
reader (as in `| head`).  --out leaves a regular file whole or as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import stat
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, braid, dynamics, oscillation, states, verify
from .braid import BraidSpec
from .errors import KaonbraidError
from .linalg import norm4

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C
EXIT_PIPE_CLOSED = 141  # 128 + SIGPIPE: stdout's reader went away (`| head`)


# cells per block of a table (per fmt call): the most, in multiples of 1,024,
# whose kernel call stays under 1 MB.  The kernel works in place and frees
# each temporary once it is dead, so a block peaks at about 90 B a cell
# (traced on random bits at 10,240 cells: 0.89 MB with CSV's separators and
# 0.93 MB with JSON's; 1.02 MB at 11,264 with JSON's); the text held at once
# stays the same however long the table is.
# Each block pays the kernel's fixed cost (about 0.1 ms) once: the text of
# oscillate's 12,000 × 4 table took 6.4 ms in blocks of 2,048 cells, 5.4 ms
# in 4,096 and 5.1 ms in 8,192 or 16,384 (min of 100 interleaved calls,
# 2-vCPU Xeon), and evolve --steps 1000, 10,000 cells, is one block
KERNEL_CELLS = 10240


def fmt(x, sep=",", end="\n") -> str:
    """'%.17g' text: of a lone float, or of an (n, k) float array as n lines of
    k cells, with `sep` between the cells of a line and `end` between lines,
    and none after the last.  A numpy kernel (_cells) writes an array's text,
    the same bytes as '%.17g' per cell, but for its constant columns, whose
    cells all have the bits of the first row (as uint64, so that -0.0, +0.0
    and nan payloads stay apart): _fold writes those."""
    if not isinstance(x, np.ndarray):
        return format(float(x), ".17g")
    x = np.ascontiguousarray(x, dtype=np.float64)
    bits = x.view(np.uint64)
    # the first row against the second (not the last, which sweep-phi's
    # periodic columns repeat), nearly free where no column is constant,
    # then the columns left against the first row, by their bytes; each
    # column the kernel writes may take a code
    if len(x) and any(same := (bits[0] == bits[1 % len(x)]).tolist()):
        cols = [j for j, c in enumerate(same)
                if not c or bits[:, j].tobytes() != bits[0, j].tobytes() * len(x)]
        if len(cols) <= len(_CODES):
            return _fold(x, cols, sep, end)
    seps = [end.encode()] + [sep.encode()] * (x.shape[1] - 1)
    return _cells(x.ravel(), seps).decode("ascii")


def _fold(x, cols, sep, end) -> str:
    """fmt's text of the (n, k) array x, whose columns but `cols` are
    constant, with ASCII separators.  A constant is formatted once by
    '%.17g', and its text joins the separators of the kernel's columns; one
    that is then longer than `sep` and `end` goes through the kernel as a
    code, a byte of _CODES, and is put in its place after, so that no column
    of the grid grows.  With no column left, the text is the first row's
    repeated."""
    sep, end = sep.encode(), end.encode()
    row = [b"%.17g" % v for v in x[0].tolist()]
    if not cols:
        return end.join([sep.join(row)] * len(x)).decode("ascii")
    # the row's text around the kernel's cells, each marked by a byte that
    # no ASCII text holds: before the first, between two, and after the last
    for j in cols:
        row[j] = b"\x80"
    lead, *between, tail = sep.join(row).split(b"\x80")
    seps = [tail + end + lead, *between]
    wide = dict.fromkeys(s for s in seps if len(s) > max(len(sep), len(end)))
    codes = {s: bytes([c]) for s, c in zip(wide, _CODES)}
    text = _cells(x[:, cols].ravel(), [codes.get(s, s) for s in seps])
    for s, code in codes.items():
        text = text.replace(code, s)
    return (lead + text + tail).decode("ascii")


# the codes of _fold's separators: bytes that no ASCII text holds
_CODES = range(0x80, 0x100)


@functools.cache
def _powers():
    """HI, LO (float64) and EX (int32), index s + 310 for s = -310 … 345,
    with 10**s = (HI + LO)·2**EX to about 2**-106 and HI in [0.5, 1); built on
    first use from exact integers (int / int rounds correctly)."""
    table = []
    for s in range(-310, 346):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        ex = num.bit_length() - den.bit_length()
        num, den = (num, den << ex) if ex >= 0 else (num << -ex, den)
        if num >= den:
            den, ex = den << 1, ex + 1
        hi = num / den
        table.append((hi, ((num << 53) - int(hi * 2**53) * den) / (den << 53), ex))
    hi, lo, ex = np.array(table).T
    return hi, lo, ex.astype(np.int32)


@functools.cache
def _quads():
    """uint32 whose 4 bytes are the ASCII of '%04d' % i, for i < 10,000."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    return digits.astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _ends():
    """(40,000,): at 10,000·j + i, for a 17-digit n whose quad j + 1 is i,
    the digits up to the last nonzero one (4j + 1 + the digits of '%04d' % i
    up to its last nonzero one) where i ≠ 0, and 0 where i = 0; but 1 at
    index 0, as n = d·10**16, whose quads 1…4 are all 0, has one digit."""
    i = np.arange(10000)
    last = 5 - (i % 10 == 0) - (i % 100 == 0) - (i % 1000 == 0)
    ends = np.where(i > 0, np.arange(0, 16, 4)[:, None] + last, 0).astype(np.uint8).ravel()
    ends[0] = 1
    return ends


@functools.cache
def _masks():
    """(11, 391) uint32 masks of grid words 0…10 (bytes 0…43), column
    17·L + nd - 1 for layout L and nd digits up to the last nonzero one: 0xFF
    keeps a byte, 0 drops it, and '0' or '.' writes itself ('0' & any digit
    is '0'; word 5, which holds only the point, is not ANDed).  L = 0 is
    exponent form, L = 1 … 21 fixed form with X = L - 5 and L = 22 a zero."""
    ff, rows = b"\xff", []
    for L in range(23):
        X = L - 5
        if L == 0:
            head, first = ff, 1  # d.ddd
        elif L == 22:
            head, first = b"0", 17
        elif X < 0:
            head, first = b"0", 0  # 0.000ddd
        else:
            head, first = ff, X + 1  # ddd.ddd
        ints = ff * X if 5 < L < 22 else b""
        zeros = ff * (-1 - X) if 0 < L < 5 else b""
        for nd in range(1, 18):
            point = b"." if nd > first else b"\0"
            frac = b"\0" * first + ff * (nd - first)
            # the point follows the first digit, or the integer digits
            lead, point = (b"\0", point) if ints else (point, b"\0")
            rows.append(ff + b"\0" + head + lead + ints.ljust(16, b"\0") + point + b"\0" * 3
                        + zeros.rjust(3, b"\0") + frac.ljust(17, b"\0"))
    return np.frombuffer(b"".join(rows), np.uint32).reshape(-1, 11).T.copy()


@functools.cache
def _exponents():
    """(2, 633) uint32: in column X + 324, the ASCII of 'e%+03d' % X where X
    takes exponent form (X < -4 or X > 16), NUL-padded to 8 bytes; NUL
    elsewhere."""
    text = [b"e%+03d" % X if X < -4 or X > 16 else b"" for X in range(-324, 309)]
    return np.array(text, "S8").view(np.uint32).reshape(-1, 2).T.copy()


@functools.cache
def _bases():
    """(633,) intp: at X + 324, the column 17·L - 1 of _masks for
    exponent X (L = 0 in exponent form), to which a cell adds its nd."""
    X = np.arange(-324, 309)
    return np.where((X < -4) | (X > 16), 0, 17 * (X + 5)).astype(np.intp) - 1


def _scaled(f, k, s):
    """Nearest integer to f·2**k·10**s, and the fraction it drops, from a
    double-double product (error below 1e-13 for results under 1e17).  Each
    product goes into a buffer whose value is dead by then."""
    HI, LO, EX = _powers()
    s = np.add(s, 310, dtype=np.intp)
    # Dekker splits hi = hh + hl and f = fh + fl, each half of 26 bits
    hi = np.take(HI, s)
    hl = np.multiply(hi, 134217729.0)
    hh = np.subtract(hl, hi)
    np.subtract(hl, hh, out=hh)
    np.subtract(hi, hh, out=hl)
    fl = np.multiply(f, 134217729.0)
    fh = np.subtract(fl, f)
    np.subtract(fl, fh, out=fh)
    np.subtract(f, fh, out=fl)
    p = np.multiply(f, hi, out=hi)
    # err = ((fh·hh - p) + fh·hl + fl·hh) + fl·hl
    err = np.multiply(fh, hh)
    err -= p
    err += np.multiply(fh, hl, out=fh)
    err += np.multiply(fl, hh, out=hh)
    err += np.multiply(fl, hl, out=hl)
    del fh, hh, hl
    # p·2**q is at least 9e15 > 2**53, so it is already an integer; a power
    # of two this small scales exactly.  q stays int32: with an int64 q,
    # ldexp casts, at about 15 times the cost
    q = np.take(EX, s) + k
    err += np.multiply(f, np.take(LO, s, out=fl, mode="clip"), out=fl)
    del s
    tail = np.ldexp(err, q, out=err)
    r = np.rint(tail, out=fl)
    n = np.ldexp(p, q, out=p).astype(np.int64)
    del p
    n += r.astype(np.int64)
    tail -= r
    return n, tail


def _digits(x):
    """n, frac, X and the indices of the cells that are 0, inf or nan, with
    |x| = (n + frac)·10**(X - 16), n an integer of 17 digits and |frac| <= 1/2
    (n = 10**16 and X = 0 at those indices).  |x| becomes log10 |x| in place,
    and each temporary is freed once it is dead."""
    v = np.abs(x)
    special = np.flatnonzero(~((v > 0) & (v < np.inf)))
    v[special] = 1.0
    f, k = np.frexp(v)
    e = np.floor(np.log10(v, out=v), out=v).astype(np.int32)
    del v
    n, frac = _scaled(f, k, 16 - e)
    # log10 can be off by one next to a power of ten: n then has 16 or 18
    # digits (n = 10**16 has 17 unless frac < 0)
    fix = np.flatnonzero((n <= 10**16) | (n > 10**17))
    fix = fix[(n[fix] != 10**16) | (frac[fix] < 0)]
    if fix.size:
        e[fix] += np.where(n[fix] > 10**17, 1, -1)
        n[fix], frac[fix] = _scaled(f[fix], k[fix], 16 - e[fix])
    del f, k
    carry = n == 10**17  # rounding reached the next power of ten
    n[carry] = 10**16
    e += carry
    return n, frac, e, special


# cells per slice where _cells would otherwise hold a copy of the whole block
# next to its grid: the transposed text, and the Python objects of the cells
# that '%.17g' writes itself
_SLICE = 1024


def _cells(x, seps) -> bytes:
    """'%.17g' text of the flat cells x, in rows of len(seps) cells, with the
    bytes seps[j] before each cell of column j but the block's first, and
    none after the last: [end, sep, …, sep] writes `sep` within a row and
    `end` between rows.

    A cell x = ±n·10**(X-16), with n of 17 digits, is one column of a
    (words, cells) uint32 grid, NUL wherever a character is absent.  It
    starts with the separator before it (none before the block's first
    cell): all but its last byte in words of their own, as many as the
    longest separator needs (none for 1 byte), then word 0: that last byte
    (byte 0), the sign (1), the first digit or '0' (2) and the point after
    a lone integer digit (3).  The other integer digits follow (bytes
    4…19), then their point (20), the leading zeros of 0.000ddd (24…26),
    the fraction digits (27…43), and 'e', the exponent's sign and digits
    (44…48).  Bytes 4…19 are n's last 16 digits and bytes 24…43 '000' and
    n's 17 digits, ANDed with a mask for the cell's layout, so deleting the
    NULs shifts each into place.  Words NUL in every cell are left out, and
    the grid is transposed to text _SLICE cells at a time.  Cells within
    1e-6 of a rounding tie, inf and nan take '%.17g' itself in the 6 rows
    after word 0, also _SLICE at a time."""
    if not len(x):
        return b""
    n, frac, X, special = _digits(x)
    zero = x[special] == 0
    back = np.concatenate([special[~zero], np.flatnonzero(np.abs(frac, out=frac) > 0.5 - 1e-6)])
    zero = special[zero]
    del frac, special
    # n's first digit and its four quads, in int32, whose division is the
    # faster: n // 10**8 and n % 10**8 (both fit), each then split by 10**4
    q = np.empty((5, len(x)), np.int32)
    top = n // 10**8
    np.subtract(n, 10**8 * top, out=q[4])
    q[2] = top
    del n, top
    np.floor_divide(q[2], 10**4, out=q[1])
    np.floor_divide(q[1], 10**4, out=q[0])
    np.floor_divide(q[4], 10**4, out=q[3])
    q[1:3] -= 10**4 * q[:2]
    q[4] -= 10**4 * q[3]
    # the last nonzero quad gives nd: the last one, unless it is 0.  (Every
    # index is in range; take's default mode would check each and copy `out`)
    ends = _ends()
    nd = np.take(ends[30000:], q[4], mode="clip")
    z = np.flatnonzero(nd == 0)
    if z.size:
        # take, not q[1:4, z], whose fancy index along the last axis is slow
        qz = np.take(q[1:4], z, axis=1)
        qz += np.array([[0], [10000], [20000]], np.int32)
        nd[z] = np.take(ends, qz, mode="clip").max(axis=0)
        del qz
    del z
    # the digit rows, one take each: a take of all five would copy q to intp
    # at once
    quads = _quads()
    digits = np.empty((5, len(x)), np.uint32)
    for i in range(5):
        np.take(quads, q[i], out=digits[i], mode="clip")
    del q
    # column 17·layout + nd - 1 of the masks; a zero has nd = 1.  X stays
    # int32, half the bytes of m while both are held
    X += 324
    m = np.take(_bases(), X, mode="clip")
    m += nd
    m[zero] = 17 * 22
    del nd, zero
    # the exponent's words: 'e-05' fills the first, and only a 3-digit
    # exponent needs the second.  A column of either that some cell needs
    # lies between the least and the greatest X, which need it too
    exponents = _exponents()
    exponents = exponents[exponents[:, X.min():X.max() + 1].any(axis=1)]
    # a word whose mask is NUL for every cell's layout is left out, so that
    # translate scans fewer bytes; every cell has a word 0
    masks = _masks()
    keep = masks[:, np.bincount(m, minlength=masks.shape[1]) > 0].any(axis=1)
    if back.size:
        # '%.17g' writes at most 24 bytes, into the 6 rows after word 0: where
        # fewer follow it, the first words left out are kept too
        short = 6 - np.count_nonzero(keep[1:]) - len(exponents)
        keep[np.flatnonzero(~keep)[:max(short, 0)]] = True
    words = np.flatnonzero(keep)
    # all but the last byte of a separator go in words ahead of word 0
    p, r = (max(map(len, seps)) + 2) // 4, len(words)
    g = np.empty((p + r + len(exponents), len(x)), np.uint32)
    np.take(masks[words], m, axis=1, out=g[p:p + r], mode="clip")
    del m
    np.take(exponents, X, axis=1, out=g[p + r:], mode="clip")
    del X
    # words 1…4 take digit rows 1…4 and words 6…10 rows 0…4, one word at a
    # time, so that no row is copied; then row 0, '000' and the first digit,
    # becomes word 0's [separator's last byte]['0'][first digit]['.'] in place,
    # with the last column's separator
    for i, word in enumerate(words.tolist()):
        if word not in (0, 5):
            g[p + i] &= digits[word % 6]
    cols, base = len(seps), seps[-1]
    byte = (base[-1:] or b"\0")[0]
    head = np.right_shift(digits[0], 8, out=digits[0])
    head ^= np.uint32((byte ^ ord("0")) | ord(".") << 24)
    g[p] &= head
    del digits, head
    g[p] |= np.signbit(x) * np.uint32(ord("-") << 8)
    # then each other column's own separator, and none before the block's
    # first cell: its last byte XORed over the last column's in word 0, and
    # the rest in the p words ahead
    others = [(slice(j, None, cols), sep) for j, sep in enumerate(seps) if sep != base]
    for column, sep in others:
        g[p, column] ^= byte ^ (sep[-1:] or b"\0")[0]
    g[p, 0] &= 0xFFFFFF00
    if p:
        for column, sep in [(slice(None), base), *others]:
            g[:p, column] = np.frombuffer(sep[:-1].ljust(4 * p, b"\0"), np.uint32)[:, None]
        g[:p, 0] = 0
    for i in range(0, back.size, _SLICE):
        part = back[i:i + _SLICE]
        text = [b"%.17g" % c for c in x[part].tolist()]
        g[p, part] &= 0xFF
        g[p + 1:p + 7, part] = np.array(text, "S24").view(np.uint32).reshape(-1, 6).T
        g[p + 7:, part] = 0
    pieces = [g[:, i:i + _SLICE].T.tobytes().translate(None, b"\0")
              for i in range(0, len(x), _SLICE)]
    del g
    return b"".join(pieces)


def _json_value(v) -> str:
    """JSON text of a meta value or a cell of verify's report (booleans 1/0)."""
    import json

    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt(v)
    raise TypeError(f"unserializable value {v!r}")


def write_table(stream, columns, rows, meta, fmt_name):
    """Write a table in CSV or JSON: the header, the text of each block of rows
    with the row separator `end` between blocks, and the closer; a table of
    no rows is its header and the closer.  `rows` is an (N, k) float array,
    whose blocks of KERNEL_CELLS // k rows fmt writes, or, for verify's
    report, whose rows start with the check's name, a list of rows written
    cell by cell as one block: a number's CSV text is its JSON text."""
    csv = fmt_name == "csv"
    sep, end = (",", "\n") if csv else (", ", "], [")
    if isinstance(rows, np.ndarray):
        step = max(1, KERNEL_CELLS // rows.shape[1])
        blocks = (fmt(rows[i:i + step], sep, end) for i in range(0, len(rows), step))
    else:
        blocks = [end.join(sep.join([name if csv else _json_value(name), *map(_json_value, cells)])
                           for name, *cells in rows)]
    # a JSON row opens with '[' and ends with ']', a CSV row with '\n': in
    # the header and the closer, where there are rows
    framed = len(rows) > 0
    if csv:
        stream.write(",".join(columns) + "\n")
    else:
        items = ", ".join(f"{_json_value(k)}: {_json_value(v)}" for k, v in meta.items())
        stream.write(f'{{"meta": {{{items}}}, "columns": [{", ".join(map(_json_value, columns))}], '
                     '"rows": [' + "[" * framed)
    for i, block in enumerate(blocks):
        if i:
            stream.write(end)
        stream.write(block)
    stream.write("\n" * framed if csv else "]" * framed + "]}\n")


def load_config_file(path) -> dict:
    """Flat key = value file; keys mirror long flag names (dashes or underscores)."""
    values = {}
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KaonbraidError(f"{path}: not UTF-8 text: byte {data[exc.start]:#04x} at offset "
                             f"{exc.start}") from None
    # a leading BOM goes after decoding, so that the offset above counts the
    # file's own bytes; newline=None reads \r\n and \r line ends as text-mode
    # open() does
    text = text.removeprefix("\ufeff")
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise KaonbraidError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_finite = math.isfinite


class Flag(NamedTuple):
    """A CLI flag and config key; default False makes it a switch.  `parse` maps
    text to a value or raises ValueError/KeyError; `check` (None: any) is `rule`."""

    default: object
    parse: Callable[[str], object]
    check: Callable[[object], bool] | None
    rule: str
    help: str


FLAGS = {
    "sign": Flag("plus", str, braid.SIGNS.__contains__, "one of plus, minus", "braid matrix b±"),
    "phi": Flag(0.0, float, _finite, "a finite number", "braid angle φ, q = e^(iφ)"),
    "t0": Flag(0.0, float, _finite, "a finite number", "first time (rho-report: 0.5 if <= 0)"),
    "t1": Flag(12.0, float, _finite, "a finite number", "last time"),
    "steps": Flag(100, int, lambda v: 2 <= v <= 2**53, "an integer from 2 to 2**53",
                  "points on the time grid"),
    "grid": Flag(41, int, lambda v: 2 <= v <= 2**53, "an integer from 2 to 2**53",
                 "points on the φ grid"),
    "gamma_s": Flag(1.0, float, lambda v: _finite(v) and v >= 0, "a finite number >= 0", "γ_S"),
    "gamma_l": Flag(0.00175, float, lambda v: _finite(v) and v >= 0, "a finite number >= 0",
                    "γ_L"),
    "dm": Flag(0.474, float, _finite, "a finite number", "mass difference Δm = m_L - m_S"),
    "format": Flag("csv", str, ("csv", "json").__contains__, "one of csv, json", "table format"),
    "out": Flag(None, str, None, "a path", "file for the table (None: stdout)"),
    "seed": Flag(0, int, lambda v: v >= 0, "an integer >= 0", "seed of the verify inputs"),
    "tol": Flag(None, float, lambda v: _finite(v) and v > 0, "a finite number > 0",
                "one tolerance for every verify check (None: each check's own)"),
    "state": Flag("KK", str, None, "text", "evolve: basis label, 4 real or 8 re,im amplitudes"),
    "uncorrected_b": Flag(False, lambda s: _BOOLEANS[s.lower()], None,
                          "one of 1, 0, true, false, yes, no", "use the misprinted braid matrix"),
}


def flag_value(key, raw, where):
    """Parse the text `raw` of flag `key` and check its rule; otherwise raise
    KaonbraidError naming `where` the text came from and the text itself."""
    flag = FLAGS[key]
    try:
        value = flag.parse(raw)
        if flag.check is None or flag.check(value):
            return value
    except (ValueError, KeyError):
        pass
    raise KaonbraidError(f"{where}: {raw!r} is not {flag.rule}")


def resolve(args) -> dict:
    """Merge defaults < config file < explicit flags, each text through flag_value."""
    cfg = {key: flag.default for key, flag in FLAGS.items()}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in FLAGS:
                raise KaonbraidError(f"unknown config key {key!r}")
            cfg[key] = flag_value(key, raw, f"config key {key!r}")
    for key in FLAGS:
        raw = getattr(args, key)
        if raw == []:  # argparse drops the text of "--flag=--" and hands over []
            raw = "--"
        if raw is not None:
            cfg[key] = flag_value(key, raw, "--" + key.replace("_", "-"))
    return cfg


def linear_grid(lo, hi, n, lo_is_t0=False) -> np.ndarray:
    """n evenly spaced points from lo to hi, the last one hi itself, as
    np.linspace sets it (lo + (hi - lo)·(n - 1)/(n - 1) can be an ulp off); only
    a time range can overflow hi - lo, or (hi - lo)·(n - 1) on the way to the
    last point.  The error names hi as --t1, and lo as --t0 only where the
    user's --t0 is the start (`lo_is_t0`): elsewhere the command fixed the
    start itself."""
    width = hi - lo
    if math.isfinite(width * (n - 1)):
        grid = lo + width * np.arange(n) / (n - 1)
        grid[-1] = hi
        return grid
    if lo_is_t0:
        ends, start = f"--t0 {lo!r} and --t1 {hi!r} are too far apart", "t0"
    else:
        ends, start = f"--t1 {hi!r} is too far from the grid's start {lo!r}", "start"
    if not math.isfinite(width):
        raise KaonbraidError(f"{ends}: t1 - {start} overflows")
    raise KaonbraidError(f"{ends} for {n} steps: (t1 - {start})·(steps - 1) overflows")


@contextlib.contextmanager
def _replacing(path):
    """A text stream to the file `path` that leaves it whole or as it was.  A
    regular or missing file (a symlink followed, as open() follows it) is
    written to a new file beside it, which keeps its mode (0o666 less the
    umask if new), replaces it at the end and is deleted on any exception.
    A device or FIFO, such as /dev/full, is written in place."""
    target = os.path.realpath(path)
    mode = os.stat(target).st_mode if os.path.exists(target) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named by the path the user gave
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(cfg, command, columns, rows, extra_meta=None):
    """Write the table to --out or stdout.  Its meta is the command, the
    version and every resolved flag but `out`, so the file says how it was
    made, then extra_meta."""
    meta = {"command": command, "version": __version__,
            **{k: cfg[k] for k in FLAGS if k != "out"}, **(extra_meta or {})}
    with _replacing(cfg["out"]) if cfg["out"] else contextlib.nullcontext(sys.stdout) as fh:
        write_table(fh, columns, rows, meta, cfg["format"])


def cmd_verify(cfg) -> int:
    results = verify.run_suite(seed=cfg["seed"], uncorrected=cfg["uncorrected_b"])
    override = cfg["tol"]
    all_pass = True
    rows = []
    for r in results:
        tol = override if override is not None else r.tol
        ok = r.metric <= tol
        all_pass = all_pass and ok
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {r.name:<28} metric={fmt(r.metric)}  tol={fmt(tol)}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
        rows.append((r.name, r.metric, tol, int(ok)))
    print(f"{'OK' if all_pass else 'FAILED'}: {sum(r[3] for r in rows)}/{len(rows)} checks passed")
    if cfg["out"]:
        _emit(cfg, "verify", ("check", "metric", "tol", "passed"), rows)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_bell(cfg) -> int:
    quartet = states.bell_quartet()
    columns = ["index", "re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2",
               "re_a3", "im_a3", "concurrence", "s_eigenvalue", "cp_eigenvalue"]
    # a complex (4, 4) array read as float is (4, 8): re_a0, im_a0, re_a1, ...
    table = np.column_stack([np.arange(1.0, 5.0), quartet.view(float),
                             states.concurrence(quartet), states.cp_s_eigentable()])
    _emit(cfg, "bell", columns, table)
    return EXIT_OK


def parse_state(text) -> states.TwoKaonState:
    if text in states.BASIS_LABELS:
        return states.TwoKaonState(np.eye(4)[states.BASIS_LABELS.index(text)])
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise KaonbraidError(f"state: {exc}") from None
    if len(parts) == 4:
        return states.TwoKaonState(parts)
    if len(parts) == 8:
        return states.TwoKaonState([complex(re, im) for re, im in zip(parts[::2], parts[1::2])])
    raise KaonbraidError("state must be a basis label, 4 real amplitudes, or 8 re,im values")


def cmd_evolve(cfg) -> int:
    spec = BraidSpec(cfg["sign"], cfg["phi"])
    psi0 = parse_state(cfg["state"]).vector
    t0, t1, steps = cfg["t0"], cfg["t1"], cfg["steps"]
    columns = ["t", "re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2",
               "re_a3", "im_a3", "norm"]
    t = linear_grid(t0, t1, steps, lo_is_t0=True)
    psi = dynamics.evolve_state(psi0, spec, t0, t)
    # a complex (N, 4) array read as float is (N, 8): re_a0, im_a0, re_a1, ...
    table = np.column_stack([t, psi.view(float), norm4(psi)])
    # the grid ends at t1 itself, and a row has the bits of its time taken alone
    final = psi[-1]
    round_trip = dynamics.evolve_state(final, spec, t1, t0)
    extra = {
        "norm_drift": abs(float(norm4(final)) - 1.0),
        "round_trip_error": float(norm4(round_trip - psi0)),
        "schrodinger_residual": float(dynamics.schrodinger_residual(
            psi0, spec, (t0 + t1) / 2.0 if t0 != t1 else t0
        )[0]),
    }
    _emit(cfg, "evolve", columns, table, extra)
    return EXIT_OK


def cmd_sweep_phi(cfg) -> int:
    phi = linear_grid(0.0, 2.0 * math.pi, cfg["grid"])
    # row i of b̃(φ) is the image of basis state i
    images = braid.unitary_braid(BraidSpec(cfg["sign"], phi)).reshape(-1, 4)
    deformed = states.deformed_bell(phi)
    ops = np.stack([states.cp_op(), states.strangeness_op()])
    table = np.column_stack([
        phi,
        states.concurrence(images).reshape(-1, 4),
        states.correlation(deformed, ops, ops).T,
    ])
    columns = ["phi", "c1", "c2", "c3", "c4", "corr_cp", "corr_s"]
    _emit(cfg, "sweep-phi", columns, table)
    return EXIT_OK


def cmd_oscillate(cfg) -> int:
    params = oscillation.KaonParams(
        gamma_s=cfg["gamma_s"], gamma_l=cfg["gamma_l"], m_s=0.0, m_l=cfg["dm"]
    )
    if not cfg["t1"] > 0:
        raise KaonbraidError(f"--t1 {cfg['t1']!r}: oscillate's table runs over [0, t1], "
                             "so t1 must be > 0")
    curve = oscillation.oscillation_curve(params, linear_grid(0.0, cfg["t1"], cfg["steps"]))
    _emit(cfg, "oscillate", ["t", "p_k_to_k", "p_k_to_kbar", "asymmetry"], curve)
    return EXIT_OK


def cmd_rho_report(cfg) -> int:
    spec = BraidSpec(cfg["sign"], cfg["phi"])
    t0_read = cfg["t0"] > 0
    start = cfg["t0"] if t0_read else 0.5
    t = linear_grid(start, cfg["t1"], cfg["steps"], lo_is_t0=t0_read)
    # the grid is monotone from a start > 0, so its last point is its least
    if not t[-1] > 0:
        named = f"--t0 {start!r}" if t0_read else f"the grid's start {start!r}"
        raise KaonbraidError(f"--t1 {cfg['t1']!r}: rho-report's t runs from {named} to t1 "
                             f"and must stay > 0, but its last point is {float(t[-1])!r}")
    # scalar_inv is of R(1/t)·R(1/(1/t)), not R(1/t)·R(t): 1/(1/t) != t at
    # some grid points
    ok, scalar, _, scalar_inv = braid.rho_check(spec, t)
    printed = braid.rho_printed_formula(spec, t)
    gap, inversion = scalar - printed, scalar - scalar_inv
    # np.hypot is Python's abs() of a complex bit for bit; np.abs is not
    table = np.column_stack([
        t, ok, scalar.real, 2.0 * (t + 1.0 / t), printed,
        np.hypot(gap.real, gap.imag), np.hypot(inversion.real, inversion.imag),
    ])
    columns = ["t", "is_scalar", "scalar", "closed_form", "printed_formula",
               "discrepancy", "inversion_symmetry"]
    _emit(cfg, "rho-report", columns, table)
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "bell": cmd_bell,
    "evolve": cmd_evolve,
    "sweep-phi": cmd_sweep_phi,
    "oscillate": cmd_oscillate,
    "rho-report": cmd_rho_report,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaonbraid",
        description="Two-kaon braid dynamics: verification suites and tables.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat key = value file; explicit flags take precedence")
    for key, flag in FLAGS.items():
        switch = {"action": "store_const", "const": "true"} if flag.default is False else {}
        parser.add_argument("--" + key.replace("_", "-"), **switch,
                            help=f"{flag.help}; {flag.rule}; default {flag.default}")
    return parser


# each long option of build_parser's parser -> whether it takes a value
_VALUED = {"--" + k.replace("_", "-"): flag.default is not False for k, flag in FLAGS.items()}
_VALUED.update({"--config": True, "--help": False})


def _join_values(argv) -> list:
    """argv with each valued flag and the token after it joined as
    '--flag=text', so that the flag takes that token whatever it is.  argparse
    would read a token such as -1e-3 or -0.6,0,0,0.8 as a flag of its own (it
    reads only -5 and -.5 as numbers) and reject the flag before it.  A flag
    may be a unique prefix, as argparse allows."""
    argv, i = list(argv), 0
    while i < len(argv) - 1:
        if argv[i].startswith("--") and "=" not in argv[i]:
            names = [o for o in _VALUED if o.startswith(argv[i])]
            if len(names) == 1 and _VALUED[names[0]]:
                argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        i += 1
    return argv


@functools.cache
def _keep_freed_memory():
    """Have glibc's malloc keep freed memory for reuse: blocks under 32 MB come
    from the heap, not from mmap, and up to 64 MB of free heap top stays
    mapped.  A table command's temporaries, allocated and freed block after
    block, then stop page-faulting fresh memory in on every use.  Does nothing
    off Linux or where the C library has no mallopt."""
    if sys.platform != "linux":
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = resolve(args)
        code = COMMANDS[args.command](cfg)
        if sys.stdout is not None:  # None where the process began with no stdout
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # nothing reads stdout any more.  Python's recipe: point it at
        # devnull, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (KaonbraidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's text names the array's size and shape
        print(f"error: the table does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
