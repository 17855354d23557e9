import contextlib
import errno
import io
import json
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from kaonbraid import cli
from kaonbraid.cli import (
    COMMANDS,
    FLAGS,
    KERNEL_CELLS,
    build_parser,
    fmt,
    load_config_file,
    main,
    parse_state,
    resolve,
    write_table,
)
from kaonbraid.errors import KaonbraidError


# argv the CLI must reject with exit code 2, and the texts its error line
# must name (tests/test_reach.py runs them too)
BOUNDARY_INPUTS = [
    (["verify", "--seed", "-1"], ["--seed", "'-1'"]),
    (["verify", "--tol", "nan"], ["--tol", "'nan'"]),
    (["verify", "--tol", "inf"], ["--tol", "'inf'"]),
    (["evolve", "--t1", "inf"], ["--t1", "'inf'"]),
    (["rho-report", "--t1", "inf"], ["--t1", "'inf'"]),
    # the grid 0.5, -1.33, -3.17, -5 has non-positive t: the error names --t1 and the start
    (["rho-report", "--t1", "-5", "--steps", "4"],
     ["--t1 -5.0", "grid's start 0.5", "last point is -5.0"]),
    (["rho-report", "--t1", "0"], ["--t1 0.0", "grid's start 0.5", "> 0"]),
    (["rho-report", "--t0", "3", "--t1", "-2"], ["--t1 -2.0", "--t0 3.0", "> 0"]),
    # the grid ends at --t1 itself, whose 1/t overflows
    (["rho-report", "--t1", "1e-310"], ["t = 1e-310", "1/t overflows"]),
    # 1/t overflows: the message names t, not the spectral parameter 1/t
    (["rho-report", "--t0", "5e-324", "--t1", "1", "--steps", "3"],
     ["t = 5e-324", "1/t overflows"]),
    (["evolve", "--t0=-1e308", "--t1=1e308"], ["--t0 -1e+308", "--t1 1e+308"]),
    (["oscillate", "--dm", "1e300", "--t1", "1e10"], ["delta_m", "1e+300"]),
    # oscillate's table runs over [0, t1]
    (["oscillate", "--t1", "-5e-1"], ["--t1 -0.5", "> 0"]),
    (["oscillate", "--t1", "0"], ["--t1 0.0", "> 0"]),
    (["bell", "--dm=--"], ["--dm", "'--'"]),
    # (t1 - t0)·(steps - 1) overflows though t1 - t0 does not
    (["evolve", "--t0", "1e300", "--t1", "1e308", "--steps", "3"],
     ["--t0 1e+300", "--t1 1e+308", "overflows"]),
    (["oscillate", "--t1", "1e308", "--steps", "3"],
     ["--t1 1e+308", "grid's start 0.0", "overflows"]),
    # t0 <= 0: the grid starts at 0.5, which is not the user's --t0
    (["rho-report", "--t0", "-5", "--t1", "1e308", "--steps", "3"],
     ["--t1 1e+308", "grid's start 0.5", "overflows"]),
    (["rho-report", "--t0", "1e300", "--t1", "1e308", "--steps", "3"],
     ["--t0 1e+300", "--t1 1e+308", "overflows"]),
    # the trace of ϱ = 2(t + 1/t)·I overflows, at t and at 1/t
    (["rho-report", "--t0", "4e307", "--t1", "4e307", "--steps", "2"],
     ["t = 4e+307", "overflows"]),
    (["rho-report", "--t0", "1e-308", "--t1", "1", "--steps", "2"],
     ["t = 1e-308", "overflows"]),
    # np.arange(2**63 - 1) is an empty array, not an error
    (["oscillate", f"--steps={2**63 - 1}"], ["--steps", "2 to 2**53"]),
    # --state: 3 amplitudes, an unnormalized state and a NaN amplitude
    (["evolve", "--state", "1,0,0"],
     ["state must be a basis label, 4 real amplitudes, or 8 re,im values"]),
    (["evolve", "--state", "1,1,0,0"], ["not normalized", "1.41421356237"]),
    (["evolve", "--state", "nan,0,0,0"], ["amplitudes must be finite"]),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormatting:
    def test_round_trip_17_digits(self):
        rng = np.random.default_rng(3)
        for x in rng.normal(scale=1e3, size=200):
            assert float(fmt(x)) == x

    def test_int_and_bool(self):
        # meta values and verify's report cells: integers and booleans as digits
        for value, text in [(True, "1"), (False, "0"), (7, "7"), (np.bool_(True), "1"),
                            (np.int64(-3), "-3")]:
            assert cli._json_value(value) == text


def per_cell(block, sep=",", end="\n") -> str:
    """The '%.17g'-per-cell text that fmt's array kernel must reproduce: `sep`
    between the cells of a row and `end` between rows."""
    return end.join(sep.join(format(v, ".17g") for v in row) for row in block.tolist())


# exact ties of the 17th digit, which the kernel leaves to '%.17g': the exact
# decimals of (2**17 + j)·2**-17 and m·2**-24 (odd j, m) have 18 digits, ending in 5
TIES = np.array([*((2**17 + j) * 2.0**-17 for j in range(1, 200, 2)),
                 *(m * 2.0**-24 for m in range(3, 17, 2))])
_POWERS = [float(f"1e{p}") for p in range(-323, 309)]
KERNEL_CASES = np.array([
    *TIES,
    # integer-valued floats near 1e20: the digits after the 17th are exact
    *(1e20 + j * 16384.0 for j in range(-64, 64)),
    # every power of ten with its neighbours: log10 is off by one here
    *_POWERS, *np.nextafter(_POWERS, 0.0), *np.nextafter(_POWERS, math.inf),
    # where %g switches between fixed and exponent form
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e17, 0.0), 1e17,
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
    # 17 nines round up to the next power of ten
    9.9999999999999999e22, 0.99999999999999999, 99999999999999999.0,
])

# 17-digit n that end in zeros, so that fewer than 17 digits are written: a
# last quad of 0 after nonzero ones, only the first digit nonzero (n = 10**16,
# 0.5, 1e5) or the first two, and a nonzero last quad that ends in 0
TRAILING_ZEROS = np.array([1.234567890123, 123456789.0, 1.23456789012e-7, 9.87e250, 1e16,
                           1e5, 0.5, 3.0, 0.25, 6.5e-300, 1.234567890123456])
_rng = np.random.default_rng(19)
_signs = np.where(_rng.random((512, 4)) < 0.5, -1.0, 1.0)
# blocks of one kind only: every cell in exponent form, none, only zeros, and
# only ties (which '%.17g' itself writes)
HOMOGENEOUS = {
    "exponent form": _signs * _rng.uniform(1, 10, (512, 4))
    * 10.0 ** _rng.choice([-300, -8, 20, 300], (512, 4)),
    "fixed form": _signs * 10.0 ** _rng.uniform(-4, 17, (512, 4)),
    "zeros": _signs * 0.0,
    "ties": np.concatenate([TIES, -TIES]).reshape(-1, 2),
}


class TestKernel:
    # fmt formats a block in one kernel call (write_table hands it KERNEL_CELLS
    # // k whole rows): blocks of 1 to 16,385 cells, and the widths the
    # commands emit, 7 (sweep-phi, rho-report), 10 (evolve) and 12 (bell)
    @pytest.mark.parametrize("n, k", [(1, 1), (4095, 1), (4097, 1), (8191, 1), (2048, 4),
                                      (2731, 3), (3277, 5), (1171, 7), (819, 10), (683, 12)])
    def test_matches_per_cell(self, n, k):
        cells = np.concatenate([KERNEL_CASES, -KERNEL_CASES])
        rng = np.random.default_rng(n)
        block = rng.normal(size=n * k) * 10.0 ** rng.integers(-30, 30, size=n * k)
        block[rng.permutation(n * k)[:len(cells)]] = cells[:n * k]
        block = block.reshape(n, k)
        assert fmt(block) == per_cell(block)
        assert fmt(block, ", ", "], [") == per_cell(block, ", ", "], [")

    def test_ties_take_the_per_cell_rounding(self, monkeypatch):
        # a digit stage whose error flips an exact tie must not change the text
        scaled = cli._scaled

        def flipped(f, k, s):
            n, frac = scaled(f, k, s)
            step = np.sign(frac).astype(np.int64) * (np.abs(frac) == 0.5)
            return n + step, frac - step

        monkeypatch.setattr(cli, "_scaled", flipped)
        block = np.concatenate([TIES, -TIES]).reshape(-1, 1)
        assert fmt(block) == per_cell(block)

    def test_digits_ending_in_zeros(self):
        rng = np.random.default_rng(8)
        cells = np.concatenate([TRAILING_ZEROS, -TRAILING_ZEROS])
        # alone, and scattered over cells of 17 digits
        mixed = rng.normal(size=(64, 4))
        mixed.ravel()[rng.permutation(mixed.size)[:len(cells)]] = cells
        for block in (cells.reshape(-1, 2), mixed):
            assert fmt(block) == per_cell(block)

    @pytest.mark.parametrize("kind", sorted(HOMOGENEOUS))
    def test_homogeneous_blocks(self, kind):
        block = HOMOGENEOUS[kind]
        if kind.endswith("form"):
            exponents = {"e" in format(v, ".17g") for v in block.ravel().tolist()}
            assert exponents == {kind == "exponent form"}
        assert fmt(block) == per_cell(block)
        assert fmt(block, ", ", "], [") == per_cell(block, ", ", "], [")

    @pytest.mark.parametrize("k", [4, 7, 10])
    @pytest.mark.parametrize("cells", [KERNEL_CELLS, KERNEL_CELLS + 1])
    def test_block_of_kernel_cells(self, cells, k):
        # the most cells write_table hands the kernel at once, and one more;
        # a row of k cells may end inside the block, or not at its end
        rng = np.random.default_rng(cells * k)
        x = rng.normal(size=cells) * 10.0 ** rng.integers(-30, 30, size=cells)
        x[rng.permutation(cells)[:len(KERNEL_CASES)]] = KERNEL_CASES
        expected = "".join(format(v, ".17g") + ("\n" if i % k == k - 1 else ",")
                           for i, v in enumerate(x.tolist()))[:-1]
        assert cli._cells(x, [b"\n"] + [b","] * (k - 1)).decode() == expected

    def test_random_bit_patterns(self):
        # every exponent, subnormals and nan payloads
        rng = np.random.default_rng(2024)
        block = np.frombuffer(rng.bytes(8 * 200_000), np.float64).reshape(-1, 8)
        assert fmt(block) == per_cell(block)


# cells that '%.17g' itself writes: exact ties of the 17th digit in exponent
# form and with one or two integer digits ((2**17 + j)·2**-18 in [0.5, 1) and
# odd a·2**-16 in [10, 16) have 18 digits, ending in 5), inf and nan
BACK_CELLS = np.concatenate([TIES, TIES / 2, np.arange(655361, 2**20, 2**13 + 2) * 2.0**-16])
BACK_CELLS = np.concatenate([BACK_CELLS, -BACK_CELLS, [math.inf, -math.inf, math.nan]])
# the kinds of cell a drawn block mixes: fixed form with X from X[0] to
# X[1], exponent form, ±0, subnormals and the cells above
BLOCK_KINDS = ("fixed", "exponent", "zero", "subnormal", "back")


@settings(max_examples=60, deadline=None)
# a block of oscillate's kind, 0.000ddd to d.ddd, leaves 5 words after word 0
# for its two back-path cells to write in
@example(cols=4, cells=KERNEL_CELLS, kinds={"fixed"}, X=[-4, 0], seed=0,
         first=float(TIES[0] / 2), row_start=5, row_cell=float(-TIES[1]))
@given(cols=st.integers(1, 12), cells=st.integers(1, KERNEL_CELLS + 1),
       kinds=st.sets(st.sampled_from(BLOCK_KINDS), min_size=1),
       X=st.tuples(st.integers(-4, 16), st.integers(-4, 16)).map(sorted),
       seed=st.integers(0, 2**32 - 1), first=st.sampled_from(BACK_CELLS.tolist()),
       row_start=st.integers(0), row_cell=st.sampled_from(BACK_CELLS.tolist()))
def test_kernel_matches_per_cell_on_drawn_blocks(cols, cells, kinds, X, seed, first, row_start,
                                                row_cell):
    # a block of some kinds only leaves words out; the back path's cells
    # must then still find their rows, as the block's first cell and at a
    # row start
    rng = np.random.default_rng(seed)
    size = rng.uniform(1, 10, cells) * rng.choice([-1.0, 1.0], cells)
    exponents = np.r_[-320:-4, 17:308]
    cases = {
        "fixed": size * 10.0 ** rng.integers(X[0], X[1] + 1, cells),
        "exponent": size * 10.0 ** rng.choice(exponents, cells),
        "zero": np.copysign(0.0, size),
        "subnormal": np.sign(size) * rng.integers(1, 2**52, cells) * 5e-324,
        "back": rng.choice(BACK_CELLS, cells),
    }
    block = np.choose(rng.integers(len(kinds), size=cells),
                      [cases[kind] for kind in sorted(kinds)])
    block[0] = first
    if cells > cols:
        block[cols * (1 + row_start % ((cells - 1) // cols))] = row_cell
    # whole rows, as write_table hands the kernel, and a block that ends
    # inside a row
    rows = block[:cells - cells % cols].reshape(-1, cols)
    for sep, end in ((",", "\n"), (", ", "], [")):
        assert fmt(rows, sep, end) == per_cell(rows, sep, end)
        expected = "".join(format(v, ".17g") + (end if i % cols == cols - 1 else sep)
                           for i, v in enumerate(block.tolist()))
        expected = expected.removesuffix(end if cells % cols == 0 else sep)
        assert cli._cells(block, [end.encode()] + [sep.encode()] * (cols - 1)).decode() == expected


# the constants a column of a drawn block holds on every row: ±0, 1, the
# 0.99999999999999978 of sweep-phi's concurrences, nan, ±inf, a subnormal and
# a tie that '%.17g' itself writes
CONSTANTS = [0.0, -0.0, 1.0, 0.99999999999999978, math.nan, math.inf, -math.inf, 5e-324,
             float(TIES[0])]


@settings(max_examples=100, deadline=None)
# no constant column, the first, a middle one, the last, adjacent runs (as in
# evolve from a basis state), all of them, and a block of one row
@example(cols=5, rows=40, const=[False] * 12, values=[0.0] * 12, spoil=[False] * 12, seed=0)
@example(cols=5, rows=40, const=[True] + [False] * 11, values=[1.0] * 12, spoil=[False] * 12,
         seed=0)
@example(cols=5, rows=40, const=[False, False, True] + [False] * 9, values=[math.nan] * 12,
         spoil=[False] * 12, seed=0)
@example(cols=5, rows=40, const=[False] * 4 + [True] * 8, values=[-0.0] * 12, spoil=[False] * 12,
         seed=0)
@example(cols=10, rows=40, const=[False, False, *[True] * 5, False, True, False, False, False],
         values=[0.0] * 12, spoil=[False] * 12, seed=0)
@example(cols=12, rows=40, const=[True] * 12, values=CONSTANTS + CONSTANTS[:3],
         spoil=[False] * 12, seed=0)
@example(cols=7, rows=1, const=[False] * 12, values=[0.0] * 12, spoil=[False] * 12, seed=0)
@given(cols=st.integers(1, 12), rows=st.integers(1, 300),
       const=st.lists(st.booleans(), min_size=12, max_size=12),
       values=st.lists(st.sampled_from(CONSTANTS), min_size=12, max_size=12),
       spoil=st.lists(st.booleans(), min_size=12, max_size=12), seed=st.integers(0, 2**32 - 1))
def test_fmt_folds_constant_columns(cols, rows, const, values, spoil, seed):
    # a column with the bits of its first row on every row is formatted once;
    # a spoiled one differs only in the sign bit of a middle row (-0.0 for
    # 0.0, nan of another sign), so its first and last rows agree, but it is
    # not constant
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-30, 30, size=(rows, cols))
    for j in np.flatnonzero(const[:cols]):
        block[:, j] = values[j]
        if spoil[j]:
            block[rows // 2, j] = -block[rows // 2, j]
    for sep, end in ((",", "\n"), (", ", "], [")):
        assert fmt(block, sep, end) == per_cell(block, sep, end)


@pytest.mark.parametrize("kernel_cols", [len(cli._CODES), len(cli._CODES) + 1])
def test_fmt_folds_while_it_has_codes(monkeypatch, kernel_cols):
    # between two constants of their own, each column the kernel writes has a
    # separator of its own, longer than `sep` and `end`, which takes a code:
    # with more such columns than codes, no column folds
    rng = np.random.default_rng(kernel_cols)
    block = np.empty((3, 2 * kernel_cols))
    block[:, ::2] = rng.normal(size=(3, kernel_cols))
    block[:, 1::2] = np.arange(kernel_cols) + 0.5
    written = []

    def counting(x, seps):
        written.append(len(seps))
        return cells(x, seps)

    cells = cli._cells
    monkeypatch.setattr(cli, "_cells", counting)
    for sep, end in ((",", "\n"), (", ", "], [")):
        assert fmt(block, sep, end) == per_cell(block, sep, end)
    folds = kernel_cols <= len(cli._CODES)
    assert written == [kernel_cols if folds else 2 * kernel_cols] * 2


def test_block_memory_stays_bounded():
    # the block size rests on the kernel's footprint, which works in place and
    # frees each temporary once it is dead: one KERNEL_CELLS-cell fmt call on
    # random bits peaked at 889,100 traced bytes with CSV's separators and
    # 932,400 with JSON's (87-91 B per cell, numpy 2.4.6).  A block of nan is
    # constant in every column and never reaches the kernel (267,000 and
    # 282,500: its text); back path cells drawn cell by cell ('%.17g' writes
    # them) reach it in every column (797,300 and 837,300).  A constant
    # column's text takes a code, and so widens no column of the grid
    rng = np.random.default_rng(0)
    bits = np.frombuffer(rng.bytes(8 * KERNEL_CELLS), np.float64).reshape(-1, 4)
    back = rng.choice(BACK_CELLS, bits.shape)
    assert not (back.view(np.uint64) == back.view(np.uint64)[0]).all(axis=0).any()
    blocks = {"random bits": bits, "nan": np.full(bits.shape, math.nan), "back": back}
    # the kernel's tables are built on first use, by a block that reaches
    # it: one of two rows whose cells differ (one row is constant)
    fmt(bits[:2])
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    peaks = {}
    for name, block in blocks.items():
        for sep, end in ((",", "\n"), (", ", "], [")):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            fmt(block, sep, end)
            peaks[name, sep] = tracemalloc.get_traced_memory()[1] - held
    if not tracing:
        tracemalloc.stop()
    assert max(peaks.values()) <= 1_000_000, peaks


def reference_json_value(v) -> str:
    """The per-cell JSON writer that the chunked one replaced."""
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, (bool, int)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(reference_json_value(x) for x in v) + "]"
    items = (f"{reference_json_value(str(k))}: {reference_json_value(x)}" for k, x in v.items())
    return "{" + ", ".join(items) + "}"


def reference_write_table(stream, columns, rows, meta, fmt_name):
    """The per-cell table writer that the chunked one replaced."""
    if fmt_name == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(format(v, ".17g") for v in row) + "\n")
    else:
        doc = {"meta": meta, "columns": list(columns), "rows": [list(r) for r in rows]}
        stream.write(reference_json_value(doc) + "\n")


SPECIAL_CELLS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 1.2345678901234567e300, -9.87654321e-300, 1.7976931348623157e308]


class TestWriteTable:
    # one row, both sides of the first block boundary, and two boundaries
    # crossed: n1 rows of a one-column table, whose blocks are KERNEL_CELLS
    # rows, and the rows at the same place before or after a boundary of
    # blocks of KERNEL_CELLS // k rows for k columns; below KERNEL_CELLS - 1,
    # n1 rows of every width (both sides of the first boundary for two columns)
    @pytest.mark.parametrize("n1", [1, 4095, 4096, 4097, KERNEL_CELLS - 1, KERNEL_CELLS,
                                    KERNEL_CELLS + 1, 2 * KERNEL_CELLS + 1])
    # no shrinking: the bits come from a seed, so a smaller seed is no simpler
    # table, and each attempt would rewrite up to 41,000 cells twice
    @settings(max_examples=4, deadline=None, phases=[Phase.explicit, Phase.generate])
    @given(k=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           cells=st.lists(st.floats() | st.sampled_from(SPECIAL_CELLS), min_size=1, max_size=40))
    def test_chunked_matches_per_cell(self, n1, k, seed, cells):
        blocks = (n1 + 1) // KERNEL_CELLS
        n = blocks * (KERNEL_CELLS // k) + n1 - blocks * KERNEL_CELLS
        # arbitrary float64 bit patterns (every exponent, subnormals, nan
        # payloads), with the drawn cells scattered over them
        rng = np.random.default_rng(seed)
        table = np.frombuffer(rng.bytes(8 * n * k), dtype=np.float64).reshape(n, k).copy()
        table.ravel()[rng.integers(n * k, size=len(cells))] = cells
        columns = [f"c{j}" for j in range(k)]
        meta = {"command": "x", "tol": None, "switch": False, "steps": n, "phi": -0.0}
        for fmt_name in ("csv", "json"):
            chunked, per_cell = io.StringIO(), io.StringIO()
            write_table(chunked, columns, table, meta, fmt_name)
            reference_write_table(per_cell, columns, table.tolist(), meta, fmt_name)
            assert chunked.getvalue() == per_cell.getvalue()

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    @pytest.mark.parametrize("rows", [np.empty((0, 2)), []])
    def test_table_of_no_rows(self, fmt_name, rows):
        # the header and the closer: no empty row
        table, per_cell = io.StringIO(), io.StringIO()
        write_table(table, ["a", "b"], rows, {"x": 1}, fmt_name)
        reference_write_table(per_cell, ["a", "b"], [], {"x": 1}, fmt_name)
        assert table.getvalue() == per_cell.getvalue()

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    @pytest.mark.parametrize("argv, constant", [
        (["evolve", "--state", "KK"], 6),
        (["evolve", "--state", "KKbar"], 6),
        (["evolve", "--t0", "2", "--t1", "2", "--steps", "5"], 10),
    ])
    def test_constant_columns_match_per_cell(self, monkeypatch, capsys, argv, constant,
                                             fmt_name):
        # a basis state mixes with one partner only, so 6 of evolve's 10
        # columns hold 0.0 on every row; at t0 = t1 every column is constant
        tables = []

        def recording(stream, columns, rows, meta, name):
            tables.append((columns, rows, meta))
            write_table(stream, columns, rows, meta, name)

        monkeypatch.setattr(cli, "write_table", recording)
        code, out, _ = run_cli(capsys, *argv, f"--format={fmt_name}")
        assert code == 0
        [(columns, rows, meta)] = tables
        bits = rows.view(np.uint64)
        assert np.count_nonzero((bits == bits[0]).all(axis=0)) == constant
        per_cell = io.StringIO()
        reference_write_table(per_cell, columns, rows.tolist(), meta, fmt_name)
        assert out == per_cell.getvalue()

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    def test_every_block_goes_through_fmt(self, monkeypatch, capsys, fmt_name):
        # evolve --steps 2500 is 25,000 cells of 10 columns: blocks of 1,024,
        # 1,024 and 452 rows, each one fmt call in either format
        blocks = []

        def counting(x, *args):
            if isinstance(x, np.ndarray):
                blocks.append(len(x))
            return fmt(x, *args)

        monkeypatch.setattr(cli, "fmt", counting)
        assert run_cli(capsys, "evolve", "--steps", "2500", f"--format={fmt_name}")[0] == 0
        assert blocks == [1024, 1024, 452]


# each valued flag with a value that starts with '-' but that argparse does not
# read as a number (only -5 and -.5 forms), and the exit code it gives
DASHED_VALUES = [
    ("evolve", "--t0", "-1e-3", 0), ("evolve", "--t1", "-5e-1", 0),
    ("evolve", "--phi", "-2E1", 0), ("oscillate", "--dm", "-4.7e-1", 0),
    ("evolve", "--state", "-0.6,0,0,0.8", 0), ("oscillate", "--steps", "-1e3", 2),
    ("sweep-phi", "--grid", "-4e1", 2), ("oscillate", "--gamma-s", "-1e-3", 2),
    ("oscillate", "--gamma-l", "-1e-3", 2), ("bell", "--format", "-json", 2),
    ("verify", "--seed", "-1e0", 2), ("verify", "--tol", "-1e-3", 2),
    ("bell", "--sign", "-plus", 2), ("bell", "--out", "-table.csv", 0),
    ("bell", "--config", "-run.cfg", 0),
]


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv), argparse's own exit included."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


class TestValueAfterASpace:
    def test_every_valued_flag_is_listed(self):
        valued = {"--" + k.replace("_", "-") for k, f in FLAGS.items() if f.default is not False}
        assert {flag for _, flag, _, _ in DASHED_VALUES} == valued | {"--config"}

    @pytest.mark.parametrize("command, flag, value, code", DASHED_VALUES)
    def test_space_form_is_the_equals_form(self, tmp_path, monkeypatch, command, flag, value,
                                           code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-run.cfg").write_text("steps = 3\n")
        report = tmp_path / "-table.csv"
        outcomes = []
        for argv in ([command, flag, value], [command, f"{flag}={value}"]):
            outcomes.append((*run_main(argv), report.exists() and report.read_bytes()))
            report.unlink(missing_ok=True)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code, outcomes[0]
        assert "usage:" not in outcomes[0][2]

    def test_abbreviated_flag_takes_the_next_token(self):
        assert run_main(["evolve", "--ph", "-2E1"]) == run_main(["evolve", "--phi=-2E1"])


class TestConfig:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phi = 1.5\nsign = minus\n# comment\nsteps = 7\n")
        assert load_config_file(cfg) == {"phi": "1.5", "sign": "minus", "steps": "7"}

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 3\ngamma-s = 0\ngamma-l = 0\n")
        code, out, _ = run_cli(
            capsys, "oscillate", "--config", str(cfg), "--steps", "2", "--t1", "1"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + 2 rows

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "oscillate", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_bad_flag_value(self, capsys):
        code, _, _ = run_cli(capsys, "oscillate", "--steps", "1")
        assert code == 2

    @pytest.mark.parametrize("text, value", [("yes", True), ("No", False), ("1", True),
                                             ("FALSE", False), ("maybe", None)])
    def test_boolean_spellings(self, tmp_path, text, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"uncorrected_b = {text}\n")
        args = build_parser().parse_args(["verify", "--config", str(cfg)])
        if value is None:
            with pytest.raises(KaonbraidError, match=f"'uncorrected_b'.*'{text}'"):
                resolve(args)
        else:
            assert resolve(args)["uncorrected_b"] is value

    def test_not_utf8_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"steps = 3\n\xff\xfe = 2\n")
        code, out, err = run_cli(capsys, "oscillate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(cfg) in err
        assert "0xff" in err and "offset 10" in err

    def test_leading_bom_is_skipped(self, tmp_path):
        # an editor's UTF-8 byte order mark is not part of the first key
        text = b"sign = minus\nsteps = 7\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_config_file(bom) == load_config_file(plain) == {"sign": "minus", "steps": "7"}
        args = build_parser().parse_args(["oscillate", "--config", str(bom)])
        assert resolve(args)["sign"] == "minus"

    def test_bom_file_not_utf8_names_its_own_byte(self, tmp_path, capsys):
        # the offset counts the BOM's 3 bytes, as the file holds them
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfab\xff")
        code, out, err = run_cli(capsys, "oscillate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "byte 0xff at offset 5" in err

    def test_malformed_number_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = abc\n")
        code, _, err = run_cli(capsys, "oscillate", "--config", str(cfg))
        assert code == 2
        assert "'steps'" in err and "'abc'" in err


class TestParseState:
    def test_label(self):
        assert parse_state("KK").amplitudes == (1, 0, 0, 0)

    def test_real_amplitudes(self):
        psi = parse_state("0.5,0.5,0.5,0.5")
        assert psi.amplitudes == (0.5, 0.5, 0.5, 0.5)

    def test_complex_pairs(self):
        s = 1 / math.sqrt(2)
        psi = parse_state(f"{s},0,0,0,0,0,0,{s}")
        assert psi.amplitudes[1] == 0 and abs(psi.amplitudes[3] - 1j * s) < 1e-15

    def test_malformed_amplitude_rejected(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--state", "1,x,0,0")
        assert code == 2
        assert err.startswith("error:") and "'x'" in err


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 0
        assert "OK:" in out and "FAIL" not in out

    def test_uncorrected_fails_on_braid_relation(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--uncorrected-b")
        assert code == 1
        assert any(
            line.startswith("FAIL") and "braid_relation" in line
            for line in out.splitlines()
        )

    def test_deterministic_report(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--seed", "17")
        _, out2, _ = run_cli(capsys, "verify", "--seed", "17")
        assert out1 == out2

    def test_csv_out(self, tmp_path, capsys):
        out_path = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "verify", "--seed", "0", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "check,metric,tol,passed"
        assert len(lines) == 18
        assert lines[1].startswith("braid_relation,")

    def test_json_out_meta_echoes_every_flag(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "verify", "--format", "json", "--out", str(out_path))
        assert code == 0
        meta = json.loads(out_path.read_text())["meta"]
        assert list(meta) == ["command", "version", *(k for k in FLAGS if k != "out")]
        assert meta["tol"] is None and meta["uncorrected_b"] == 0


class TestTables:
    def test_oscillate_csv_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "osc.csv"
        code, _, _ = run_cli(
            capsys, "oscillate", "--steps", "50", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().split("\n")
        header = lines[0].split(",")
        assert header == ["t", "p_k_to_k", "p_k_to_kbar", "asymmetry"]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
        assert len(rows) == 50
        assert all(0.0 <= r[1] <= 1.0 and 0.0 <= r[2] <= 1.0 for r in rows)
        # byte-identical on a second run
        out2 = tmp_path / "osc2.csv"
        run_cli(capsys, "oscillate", "--steps", "50", "--out", str(out2))
        assert out_path.read_bytes() == out2.read_bytes()

    def test_oscillate_pure_matches_closed_form(self, tmp_path, capsys):
        out_path = tmp_path / "pure.csv"
        run_cli(
            capsys, "oscillate", "--gamma-s", "0", "--gamma-l", "0",
            "--steps", "100", "--out", str(out_path),
        )
        for line in out_path.read_text().splitlines()[1:]:
            t, _, p_flip, _ = (float(v) for v in line.split(","))
            assert abs(p_flip - math.sin(0.474 * t / 2.0) ** 2) < 1e-12

    def test_sweep_phi_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-phi", "--grid", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,c1,c2,c3,c4,corr_cp,corr_s"
        for line in lines[1:]:
            phi, c1, c2, c3, c4, corr_cp, corr_s = (float(v) for v in line.split(","))
            assert abs(corr_cp - math.cos(phi)) < 1e-12
            assert abs(corr_s - 1.0) < 1e-12
            for c in (c1, c2, c3, c4):
                assert abs(c - 1.0) < 1e-12

    def test_bell_json(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "bell"
        assert len(doc["rows"]) == 4
        eigs = [(r[-2], r[-1]) for r in doc["rows"]]
        assert eigs == [[1, 1], [1, -1], [-1, 1], [-1, -1]] or eigs == [
            (1, 1), (1, -1), (-1, 1), (-1, -1)
        ]

    def test_evolve_norm_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--t1", "2", "--steps", "20", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        norms = [row[-1] for row in doc["rows"]]
        assert all(abs(n - 1.0) < 1e-12 for n in norms)
        assert doc["meta"]["round_trip_error"] < 1e-12

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        # two grids on which the parts c·x - s·y alone give -0.0 cells
        "--steps 4 --state KK --phi 0.7 --t0 -1 --t1 2 --sign minus",
        "--steps 3 --state KbarK --t0 3 --t1 -2",
        # cos α < 0 late in the first grid and sin α < 0 all along the second
        *(f"--steps 9 --state {state} --sign {sign} --phi 1.3 --t0 {t0} --t1 {t1}"
          for state in ("KK", "KKbar", "KbarK", "KbarKbar", "0.5,-0.5,0.5,-0.5",
                        "0.1,-0.2,0.3,0.4,-0.5,0.1,0.2,0.6324555320336758")
          for sign in ("plus", "minus") for t0, t1 in (("-3", "3"), ("3", "-3"))),
    ])
    def test_evolve_prints_no_negative_zero(self, capsys, argv, fmt_name):
        code, out, _ = run_cli(capsys, "evolve", *argv.split(), "--format", fmt_name)
        assert code == 0
        if fmt_name == "csv":
            cells = [c for line in out.splitlines()[1:] for c in line.split(",")]
        else:
            rows = json.loads(out, parse_int=str, parse_float=str)["rows"]
            cells = [c for row in rows for c in row]
        assert len(cells) == 10 * int(argv.split()[1])
        assert "-0" not in cells

    def test_evolve_equal_times_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--t0", "1", "--t1", "1", "--steps", "2",
            "--state", "KKbar", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            assert row[1:9] == [0, 0, 1, 0, 0, 0, 0, 0]

    def test_evolve_meta_names_the_state(self, capsys):
        metas = [json.loads(run_cli(capsys, "evolve", "--steps", "2", "--state", label,
                                    "--format", "json")[1])["meta"] for label in ("KK", "KKbar")]
        assert [m["state"] for m in metas] == ["KK", "KKbar"]

    def test_evolve_huge_time_is_quiet(self, capsys):
        # the midpoint residual evaluates f(5e199), whose t² overflows
        code, out, err = run_cli(capsys, "evolve", "--t1", "1e200", "--steps", "3")
        assert code == 0
        assert out.startswith("t,re_a0") and err == ""

    def test_evolve_last_t_is_t1(self, capsys):
        # lo + (hi - lo)·(n - 1)/(n - 1) is 4.4373428174895055 here
        code, out, _ = run_cli(capsys, "evolve", "--t0", "-7.074863082399303",
                               "--t1", "4.437342817489506", "--steps", "3")
        assert code == 0
        assert float(out.splitlines()[-1].split(",")[0]) == 4.437342817489506

    def test_rho_report_huge_time_is_quiet(self, capsys):
        # ϱ's entries near 4e307: nothing overflows, and the table is written
        code, out, err = run_cli(capsys, "rho-report", "--phi", "0.3", "--t0", "1e200",
                                 "--t1", "2e307", "--steps", "3")
        assert code == 0
        assert len(out.splitlines()) == 4 and err == ""

    @pytest.mark.parametrize("phi, t", [("0.3", "1e4"), ("0", "1e6"), ("0.3", "1e100"),
                                        ("0.3", "1e200")])
    def test_rho_report_scalar_at_large_time(self, capsys, phi, t):
        code, out, _ = run_cli(capsys, "rho-report", "--phi", phi, "--t0", t, "--t1", t,
                               "--steps", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["1", "1"]

    def test_evolve_rejects_nan_time(self, capsys):
        code, out, err = run_cli(capsys, "evolve", "--t1", "nan")
        assert code == 2
        assert out == ""
        assert "--t1" in err and "'nan'" in err

    @pytest.mark.parametrize("argv, named", BOUNDARY_INPUTS)
    def test_boundary_input_rejected(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert all(text in err for text in named), err

    def test_evolve_where_t0_times_t1_overflows(self, capsys):
        # t0·t1 = 1e500 overflows, so the angle is atan((t1 - t0)/t1/t0), about
        # 1e-200: atan((t1 - t0)/(1 + t0·t1)) would give 0 and no motion at all
        code, out, err = run_cli(capsys, "evolve", "--t0", "1e200", "--t1", "1e300",
                                 "--steps", "2", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["meta"]["round_trip_error"] < 1e-15
        assert [row[0] for row in doc["rows"]] == [1e200, 1e300]
        assert doc["rows"][-1][7] == pytest.approx(1e-200, rel=1e-12)
        assert [row[-1] for row in doc["rows"]] == [1.0, 1.0]

    @pytest.mark.parametrize("argv", [["oscillate", "--t1", "1e308", "--steps", "3"],
                                      ["rho-report", "--t0", "-5", "--t1", "1e308",
                                       "--steps", "3"]])
    def test_grid_overflow_names_no_unread_t0(self, capsys, argv):
        # oscillate reads no --t0, and rho-report replaces a --t0 <= 0 by 0.5
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "--t0" not in err and "t1 - start" in err

    # a table this large fails to allocate at once, touching no memory
    @pytest.mark.parametrize("argv", [["oscillate", "--steps", str(10**15)],
                                      ["sweep-phi", "--grid", str(10**15)]])
    def test_table_too_large_for_memory(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "memory" in err and str(10**15) in err

    def test_tiny_negative_phi_is_phi_zero(self, capsys):
        # -1e-20 mod 2π rounds to 2π; it must give the bytes of φ = 0
        tiny = run_cli(capsys, "evolve", "--phi=-1e-20", "--steps", "3")
        assert tiny == run_cli(capsys, "evolve", "--phi", "0", "--steps", "3")
        assert tiny[0] == 0

    def test_oscillate_asymmetry_survives_underflow(self, capsys):
        code, out, _ = run_cli(capsys, "oscillate", "--gamma-l", "1", "--t1", "2000")
        assert code == 0
        assert all(math.isfinite(float(line.split(",")[3]))
                   for line in out.splitlines()[1:])

    def test_rho_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "rho-report", "--t0", "0.5", "--t1", "5", "--steps", "10"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,is_scalar,scalar,closed_form,printed_formula")
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            t, is_scalar, scalar, closed, _, discrepancy, symmetry = vals
            assert is_scalar == 1.0
            assert abs(scalar - closed) < 1e-12
            assert abs(scalar - 2.0 * (t + 1.0 / t)) < 1e-12
            assert discrepancy > 0.0  # printed formula disagrees; reported
            assert symmetry < 1e-12


def ulps_away(x, k):
    """The float k representable steps above x (below it for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(deadline=None)
@given(lo=st.floats(-1e300, 1e300), n=st.integers(2, 60), far=st.floats(-1e300, 1e300),
       ulps=st.none() | st.integers(-8, 8))
@example(lo=-7.074863082399303, n=3, far=4.437342817489506, ulps=None)
def test_linear_grid_runs_from_lo_to_hi(lo, n, far, ulps):
    # hi anywhere, or a few ulp from lo, where the spacing is below one ulp
    hi = far if ulps is None else ulps_away(lo, ulps)
    grid = cli.linear_grid(lo, hi, n)
    assert len(grid) == n and grid[0] == lo and grid[-1] == hi
    steps = np.diff(grid)
    assert (steps >= 0).all() if hi >= lo else (steps <= 0).all()


def test_json_numbers_round_trip(capsys):
    code, out, _ = run_cli(capsys, "oscillate", "--steps", "20", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    reparsed = json.loads(json.dumps(doc))
    assert reparsed == doc


def test_closed_stdout_exits_quietly():
    # `kaonbraid oscillate ... | head -1`: the reader closes the pipe after
    # the first line, while the table (some 15 MB) is still being written
    proc = subprocess.Popen([sys.executable, "-m", "kaonbraid.cli", "oscillate",
                             "--steps", "200000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"t,p_k_to_k,p_k_to_kbar,asymmetry\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE_CLOSED == 141, err
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_no_stdout_at_all(tmp_path):
    # started with stdout closed (`>&-`), Python has sys.stdout None; a table
    # written to --out needs no stdout
    out = tmp_path / "f.csv"
    script = 'exec "$0" -m kaonbraid.cli oscillate --steps 10 --out "$1" >&-'
    proc = subprocess.run(["sh", "-c", script, sys.executable, str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(out.read_text().splitlines()) == 11


def test_interrupt_exits_quietly(tmp_path, monkeypatch, capsys):
    # Ctrl-C while the table is written: one line on stderr, no traceback
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_table", interrupted)
    code, out, err = run_cli(capsys, "oscillate", "--steps", "2000",
                             "--out", str(tmp_path / "f.csv"))
    assert code == cli.EXIT_INTERRUPTED == 130
    assert out == "" and err == "error: interrupted\n"


class TestOut:
    """--out leaves its file whole or as it was."""

    @pytest.mark.parametrize("exc, code", [
        (OSError(errno.ENOSPC, "No space left on device"), cli.EXIT_CONFIG),
        (KeyboardInterrupt(), cli.EXIT_INTERRUPTED),
    ], ids=["oserror", "interrupt"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, capsys, exc, code):
        out = tmp_path / "f.csv"
        out.write_bytes(b"old table\n")
        real, writes = cli.write_table, []

        class Failing:
            """A stream that fails once the header and the first block are written."""

            def __init__(self, stream):
                self.stream = stream

            def write(self, text):
                writes.append(len(text))
                if len(writes) > 2:
                    raise exc
                self.stream.write(text)

        monkeypatch.setattr(cli, "write_table", lambda stream, *args: real(Failing(stream), *args))
        # 24,000 cells: three blocks
        assert run_cli(capsys, "oscillate", "--steps", "6000", "--out", str(out))[0] == code
        assert len(writes) == 3 and writes[1] > 100_000
        assert out.read_bytes() == b"old table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    def test_modes_and_symlinks(self, tmp_path, capsys):
        umask = os.umask(0o027)
        try:
            run_cli(capsys, "oscillate", "--steps", "3", "--out", str(tmp_path / "new.csv"))
        finally:
            os.umask(umask)
        assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o640
        old = tmp_path / "old.csv"
        old.write_text("old table\n")
        old.chmod(0o604)
        (tmp_path / "link.csv").symlink_to("old.csv")
        (tmp_path / "dangling.csv").symlink_to("target.csv")
        for name in ("link.csv", "dangling.csv"):
            assert run_cli(capsys, "oscillate", "--steps", "3", "--out", str(tmp_path / name))[0] == 0
            assert (tmp_path / name).is_symlink()
        assert old.stat().st_mode & 0o777 == 0o604
        assert old.read_bytes() == (tmp_path / "target.csv").read_bytes() == \
            (tmp_path / "new.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["dangling.csv", "link.csv", "new.csv", "old.csv", "target.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_device_is_written_in_place(self, capsys):
        assert run_cli(capsys, "oscillate", "--steps", "3", "--out", os.devnull)[0] == 0
        code, _, err = run_cli(capsys, "oscillate", "--steps", "3", "--out", "/dev/full")
        assert code == cli.EXIT_CONFIG and err == "error: [Errno 28] No space left on device\n"

    def test_unwritable_place_is_named_as_given(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "oscillate", "--out", str(tmp_path / "no" / "f.csv"))
        assert code == cli.EXIT_CONFIG
        assert err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'no' / 'f.csv'}'\n"


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; a fresh interpreter must not pull it in
    code = "import sys, kaonbraid.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_builds_no_format_table():
    # the formatting kernel's tables are built on first use, and the heap is
    # set up by main, not at import: no cached function of cli has run yet
    code = ("import json, kaonbraid.cli as c; print(json.dumps({n: f.cache_info().currsize "
            "for n, f in vars(c).items() if hasattr(f, 'cache_info')}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert {"_powers", "_quads", "_ends", "_masks", "_exponents",
            "_keep_freed_memory"} <= set(sizes)
    assert not any(sizes.values()), sizes


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="needs glibc's malloc")
def test_table_command_reuses_freed_memory():
    # with freed memory kept for reuse, a warm table command faults in almost
    # no fresh pages; handed back to the OS, its temporaries fault in again on
    # every call (about 145 pages).  A fresh interpreter, as malloc's state
    # depends on what the process freed before.
    code = textwrap.dedent("""
        import contextlib, io, resource
        from kaonbraid.cli import main
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["evolve", "--steps", "1000", "--format", "json"]) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 16


# Flag text for the CLI fuzz: the edges of float parsing and random junk
JUNK = st.text(max_size=10)
NUMBER = st.one_of(st.floats().map(repr), st.sampled_from(["1e308", "-1e308", "5e-324"]), JUNK)
FUZZ_VALUES = {
    "sign": st.sampled_from(["plus", "minus"]) | JUNK,
    "phi": NUMBER, "t0": NUMBER, "t1": NUMBER, "gamma_s": NUMBER, "gamma_l": NUMBER,
    "dm": NUMBER, "tol": NUMBER,
    # 10**15 rows fail to allocate at once; a size that could be allocated is never drawn
    "steps": st.integers(2, 64).map(str) | st.just(str(10**15)) | JUNK,
    "grid": st.integers(2, 64).map(str) | st.just(str(10**15)) | JUNK,
    "format": st.sampled_from(["csv", "json"]) | JUNK,
    "seed": st.integers(0, 2**32).map(str) | JUNK,
    "state": st.sampled_from(["KK", "KKbar", "KbarK", "KbarKbar"])
    | st.lists(NUMBER, min_size=4, max_size=8).map(",".join) | JUNK,
    "uncorrected_b": st.sampled_from(["1", "0", "yes", "no"]) | JUNK,
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(COMMANDS)),
       flags=st.dictionaries(st.sampled_from(sorted(FUZZ_VALUES)), st.none(), max_size=5).flatmap(
           lambda keys: st.fixed_dictionaries({k: FUZZ_VALUES[k] for k in keys})),
       config=st.none() | st.binary(max_size=40) | st.dictionaries(
           st.sampled_from(sorted(FUZZ_VALUES)), st.none(), max_size=3).flatmap(
           lambda keys: st.fixed_dictionaries({k: FUZZ_VALUES[k] for k in keys})),
       out=st.sampled_from([None, "table.csv", "table.json"]),
       spaced=st.sets(st.sampled_from(sorted(FUZZ_VALUES))))
def test_cli_fuzz_exits_0_1_or_2(tmp_path, command, flags, config, out, spaced):
    argv = [command]
    for key, text in flags.items():
        option = f"--{key.replace('_', '-')}"
        if key == "uncorrected_b":
            argv.append(option)
        elif key in spaced:  # '--flag text': the flag takes the next token whatever it is
            argv += [option, text]
        else:
            argv.append(f"{option}={text}")
    if config is not None:
        path = tmp_path / "fuzz.cfg"
        if isinstance(config, bytes):
            path.write_bytes(config)
        else:
            path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), "utf-8")
        argv.append(f"--config={path}")
    if out is not None:
        argv.append(f"--out={tmp_path / out}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    assert code != 1 or command == "verify", argv
    assert code != 2 or stderr.getvalue().startswith("error:"), (argv, stderr.getvalue())
