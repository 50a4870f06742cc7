"""Masked integer elevation rasters: data model, ingestion, geometry.

A :class:`Dem` is an immutable raster of non-negative integer elevations
over a possibly non-rectangular domain. Cells outside the domain are
"absent" (masked). Freshly ingested rasters always carry elevations
``>= 1``; morphological operators may lower present cells to ``0``,
which is why the type itself only requires non-negative values.

Both parsers read their cells in bulk. ``parse_esri_ascii`` has two
readers. The block reader takes the lines of a grid, of a regular file
(as the CLI gives every ``.asc`` input) or of a text: the header line by
line, then the data in blocks of about 64 rows of cells through
``np.loadtxt``, each block quantized straight into the raster's int64
levels and mask, so a float grid, and a file's text, are never held
whole. A file it refuses (a byte other than printable ASCII, a tab or a
line end, a lone ``\\r``, or any fault below), and a path that is not a
regular file (a pipe, ``/dev/stdin``, a FIFO), is read as text from the
handle already open, and the block reader takes that text's lines. A
text it refuses (a header fault, a token ``np.loadtxt`` refuses, ragged
lines, other than nrows*ncols cells, no data cell, a level out of range)
is read again one token at a time. Only that pass raises for a bad
grid, so every :class:`DemParseError` names the line and column it
always did, and tokens Python's ``float`` accepts but ``np.loadtxt``
refuses (``1_0``, Arabic-Indic digits) still parse.

``parse_fixture_csv`` reads a text of ASCII digits, commas and
blanks with one ``np.loadtxt`` call, its empty fields written as -1;
any other text, or one ``np.loadtxt`` refuses, is read in one pass, each
cell once by ``int`` and each line written into the grid as one row; the
first bad cell raises, naming its line and column. ``quantize`` and
both ESRI readers hand the levels they build to the :class:`Dem`
without a copy. The writers render a raster a row at a time
from the row's Python lists of values and mask.
"""

from __future__ import annotations

import io
import math
import operator
import os
import stat
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

# defined numpy-free in _base, and part of this module's interface
from ._base import (DIRECTION_STEPS, DIRECTIONS, SE_FOR_DIRECTION,  # noqa: F401
                    DemError, DemParseError, _check_step_and_datum)

_ESRI_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
_I64_MAX = 2**63 - 1


@dataclass(frozen=True, eq=False)
class Dem:
    """Masked integer raster. ``values`` is int64 with 0 at absent cells.

    A raster holds its two read-only arrays and nothing else: no spectrum
    or curve derived from it is kept on it. The constructor copies both.
    It takes values of any dtype, but a present value must be a finite
    integer: ``1.5`` is refused, not truncated, and absent cells are
    never read, so they may hold NaN.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        # a copy: the caller's own mask stays writeable and its own
        mask = np.array(self.mask, dtype=bool, order="C")
        if values.ndim != 2 or mask.shape != values.shape:
            raise DemError("values and mask must be 2-D arrays of equal shape")
        if values.dtype.kind not in "biu":
            values = _integer_levels(values, mask)
        values = np.ascontiguousarray(values, dtype=np.int64)
        if (values[mask] < 0).any():
            raise DemError("present elevations must be non-negative")
        self._seal(np.where(mask, values, 0), mask)

    @classmethod
    def _adopt(cls, values: np.ndarray, mask: np.ndarray) -> "Dem":
        """A Dem over arrays the package has just built, without a copy.

        ``values`` must be C-contiguous int64, non-negative and 0 at the
        absent cells, and ``mask`` a C-contiguous bool array of its shape.
        Both become read-only, so no other holder may write to them.
        """
        dem = cls.__new__(cls)
        dem._seal(values, mask)
        return dem

    def _seal(self, values: np.ndarray, mask: np.ndarray) -> None:
        """Store ``values`` and ``mask`` read-only once the domain holds a
        cell and the volume fits int64."""
        if not mask.any():
            raise DemError("domain is empty (all cells masked)")
        # bounds the volume, and with it every slab and loss sum
        if int(values.max()) * int(np.count_nonzero(mask)) > _I64_MAX:
            raise DemError("elevations too large: the volume would overflow int64")
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    # -- geometry -----------------------------------------------------------

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def zmin(self) -> int:
        return int(self.values[self.mask].min())

    @property
    def zmax(self) -> int:
        return int(self.values[self.mask].max())

    def __eq__(self, other):
        if not isinstance(other, Dem):
            return NotImplemented
        return (self.values.shape == other.values.shape
                and bool((self.mask == other.mask).all())
                and bool((self.values == other.values).all()))

    def __repr__(self):
        return f"Dem({self.height}x{self.width}, {self.cell_count} cells)"

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | None]]) -> "Dem":
        """Build from nested lists where ``None`` marks an absent cell."""
        height = len(rows)
        width = max((len(r) for r in rows), default=0)
        # objects, so the constructor sees each value as given: 1.5 is
        # refused there rather than truncated here
        values = np.zeros((height, width), dtype=object)
        mask = np.zeros((height, width), dtype=bool)
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v is not None:
                    values[r, c] = v
                    mask[r, c] = True
        return cls(values, mask)

    # -- serialization ------------------------------------------------------

    def to_esri_ascii(self, nodata: int = -9999) -> str:
        """Render as an ESRI ASCII grid, elevations written verbatim.

        Re-parsing with ``step=1, datum=1`` reproduces the raster
        bit-exactly; the default ingestion datum of 0 maps an integer
        grid one level up (see :func:`quantize`).
        """
        header = [
            f"ncols {self.width}",
            f"nrows {self.height}",
            "xllcorner 0.0",
            "yllcorner 0.0",
            "cellsize 1.0",
            f"NODATA_value {nodata}",
        ]
        return "\n".join(header + self._text_rows(" ", str(nodata))) + "\n"

    def to_fixture_csv(self) -> str:
        """Render as the internal fixture CSV: empty fields mean masked."""
        return "\n".join(self._text_rows(",", "")) + "\n"

    def _text_rows(self, sep: str, absent: str) -> list[str]:
        """One line of text per row, ``absent`` at masked cells; each row
        becomes Python lists on its own, not the whole raster at once."""
        return [sep.join([str(v) if p else absent
                          for v, p in zip(vals.tolist(), present.tolist())])
                for vals, present in zip(self.values, self.mask)]


def _integer_levels(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """A grid of floats, complex numbers or objects as int64, 0 at the
    absent cells.

    Comparing the cast grid with the given one refuses a present value
    the cast changed (1.5, NaN, 2**70, 1j); a float the cast is undefined
    for becomes 0.5 first, so it fails that comparison without a warning.
    """
    try:
        values = np.where(mask, values, 0)
        if values.dtype.kind == "c":  # the cast would drop the imaginary part
            values = np.where(values.imag == 0, values.real, 0.5)
        if values.dtype.kind == "f":
            values = np.where((values >= -2.0**63) & (values < 2.0**63), values, 0.5)
        levels = values.astype(np.int64)
    except (TypeError, ValueError, OverflowError):
        levels = None
    if levels is None or not (levels == values).all():
        raise DemError("present elevations must be finite integers that int64 holds")
    return levels


@dataclass(frozen=True)
class Segment:
    """Maximal contiguous run of domain cells on one scan line."""

    row0: int
    col0: int
    values: tuple[int, ...]

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class ScanLine:
    """One lattice line of the raster in a given direction.

    ``segments`` are ordered by increasing lattice coordinate along the
    direction; concatenating them reproduces exactly the domain cells on
    the line. Lines whose cells are all masked carry no segments.
    """

    direction: str
    index: int
    segments: tuple[Segment, ...]

    @property
    def cell_count(self):
        return sum(len(s) for s in self.segments)


def _line_starts(height: int, width: int, direction: str):
    """Yield (index, r0, c0, length) for every lattice line."""
    if direction == "row":
        for r in range(height):
            yield r, r, 0, width
    elif direction == "column":
        for c in range(width):
            yield c, 0, c, height
    elif direction == "diag-down":
        for i in range(height + width - 1):
            d = i - (height - 1)
            r0 = max(0, -d)
            c0 = max(0, d)
            yield i, r0, c0, min(height - 1 - r0, width - 1 - c0) + 1
    elif direction == "diag-up":
        for s in range(height + width - 1):
            r0 = max(0, s - (width - 1))
            yield s, r0, s - r0, min(s, height - 1) - r0 + 1
    else:
        raise ValueError(f"unknown direction {direction!r}")


def scan_lines(dem: Dem, direction: str) -> list[ScanLine]:
    """Decompose the domain into 1-D scans along ``direction``.

    Every domain cell lands in exactly one segment of exactly one line;
    gaps in the mask split a lattice line into several segments.
    """
    dr, dc = DIRECTION_STEPS[direction]
    lines = []
    for index, r0, c0, length in _line_starts(dem.height, dem.width, direction):
        segments = []
        run_vals: list[int] = []
        run_start = 0
        for i in range(length):
            r, c = r0 + i * dr, c0 + i * dc
            if dem.mask[r, c]:
                if not run_vals:
                    run_start = i
                run_vals.append(int(dem.values[r, c]))
            elif run_vals:
                segments.append(Segment(r0 + run_start * dr, c0 + run_start * dc,
                                        tuple(run_vals)))
                run_vals = []
        if run_vals:
            segments.append(Segment(r0 + run_start * dr, c0 + run_start * dc,
                                    tuple(run_vals)))
        lines.append(ScanLine(direction, index, tuple(segments)))
    return lines


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def quantize(raw, mask=None, *, step: float = 1.0, datum: float = 0.0) -> Dem:
    """Quantize a real-valued grid into integer elevation levels.

    Each unmasked finite value z maps to ``floor((z - datum) / step) + 1``,
    clamped below at 1, so every present cell lands in a positive level
    and the level of ``z == datum`` is exactly 1. Indices are not
    shift-invariant, so the datum is an explicit configuration value that
    callers should record alongside results.

    Args:
        raw: 2-D array of elevations; non-finite entries are masked.
        mask: optional boolean array, True where the cell is present.
        step: level width, must be positive and finite.
        datum: elevation mapped to the bottom of level 1, must be finite.

    Returns:
        The quantized Dem.
    """
    _check_step_and_datum(step, datum)
    # the levels are built in a C-ordered copy, never in the caller's grid
    levels = np.array(raw, dtype=np.float64, order="C")
    if levels.ndim != 2:
        raise DemError("expected a 2-D grid")
    present = np.isfinite(levels)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != levels.shape:
            raise DemError("mask must have the grid's shape")
        present &= mask
    if not present.any():
        raise DemError("no unmasked finite values to quantize")
    return _quantize_in_place(levels, present, step, datum)


def _quantize_in_place(levels: np.ndarray, present: np.ndarray,
                       step: float, datum: float) -> Dem:
    """:func:`quantize` of a C-ordered float64 grid the caller owns and
    gives up, with its C-ordered ``present`` mask holding a cell.

    The levels are built in the grid's own buffer (:func:`_levels_in_place`),
    so the int64 levels, which the Dem adopts, are the only numeric grid
    allocated.
    """
    _levels_in_place(levels, present, step, datum)
    return Dem._adopt(levels.astype(np.int64), present)


def _levels_in_place(levels: np.ndarray, present: np.ndarray,
                     step: float, datum: float) -> None:
    """Turn the float64 elevations ``levels`` into their quantized levels,
    in their own buffer: 0 where ``present`` is False.

    floor((z - datum) / step) + 1 is computed step by step and clamped at
    1, so no float outside int64 reaches the caller's conversion to int64;
    a level of 2**62 or more raises :class:`DemError`.
    """
    # a level that overflows to -inf clamps to 1, and one at +inf is refused
    with np.errstate(over="ignore"):
        np.subtract(levels, datum, out=levels)
        np.divide(levels, step, out=levels)
    np.floor(levels, out=levels)
    levels += 1.0
    np.maximum(levels, 1.0, out=levels)
    levels[~present] = 0.0
    if np.nanmax(levels) >= 2**62:
        raise DemError("quantized levels overflow the elevation type")


def parse_esri_ascii(source: str | os.PathLike, *, step: float = 1.0,
                     datum: float = 0.0) -> Dem:
    """Parse an ESRI ASCII grid, given as its text or as the path of a
    UTF-8 file, and quantize it into a Dem.

    The header must provide ncols, nrows, xllcorner and yllcorner (or
    xllcenter and yllcenter) and cellsize (any case), optionally
    NODATA_value; data rows follow, top row first. Cells equal to the
    declared NODATA value, or non-finite, are masked out.

    Two readers share the work. The block reader (:func:`_esri_blocks`)
    takes the lines of a regular file (a path, an ``os.PathLike``, not a
    ``str``) or of a text, and reads their cells in bulk; a file it
    refuses is read as text from the one open handle, as is any other
    file (a pipe, a FIFO), and that text's lines go to the block reader.
    A text it refuses is read one token at a time (:func:`_esri_by_token`),
    which gives every error, with its line and column, and also takes
    tokens ``float`` accepts and ``np.loadtxt`` does not (``1_0``,
    Arabic-Indic digits).
    """
    if isinstance(source, os.PathLike):
        # the file is opened once: a pipe or FIFO can be read only once
        with open(source, "rb") as f:
            info = os.fstat(f.fileno())
            if stat.S_ISREG(info.st_mode):
                dem = _esri_blocks(map(_plain_line, f), info.st_size, step, datum)
                if dem is not None:
                    return dem
                f.seek(0)
            with io.TextIOWrapper(f, encoding="utf-8") as text:
                source = text.read()
    dem = _esri_blocks(source.splitlines(), len(source), step, datum)
    return _esri_by_token(source, step, datum) if dem is None else dem


def _esri_header(lines: Iterable[str]) -> tuple[int, int, float | None, int]:
    """Read an ESRI grid's header from its ``lines``, up to the first data line.

    Returns nrows, ncols, the NODATA value (None when the header has
    none) and the number of lines before the data. A line whose first
    token is not a number (nan and inf are) is a header entry, a key and
    a value; blank lines are skipped. A missing key, a malformed entry,
    or a count that is not a positive integer raises
    :class:`DemParseError`.
    """
    header: dict[str, float] = {}
    data_start = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            data_start = lineno
            continue
        try:
            float(tokens[0])
        except ValueError:  # not a number (nan and inf are): a header key
            if len(tokens) != 2:
                raise DemParseError(f"malformed header entry {tokens[0]!r}", line=lineno)
            try:
                header[tokens[0].lower()] = float(tokens[1])
            except ValueError:
                raise DemParseError(
                    f"non-numeric header value {tokens[1]!r}", line=lineno, column=2)
            data_start = lineno
            continue
        data_start = lineno - 1
        break
    # the origin is the lower-left cell's corner or its centre, a full pair
    centred = "xllcenter" in header or "yllcenter" in header
    for key in _ESRI_HEADER_KEYS:
        key = key.replace("corner", "center") if centred else key
        if key in header:
            continue
        if key == "xllcorner" and "yllcorner" not in header:
            key = "xllcorner/yllcorner or xllcenter/yllcenter"
        raise DemParseError(f"header missing {key}", line=data_start or 1)
    ncols, nrows = header["ncols"], header["nrows"]
    # int() refuses nan and the infinities, so they are ruled out first
    finite = math.isfinite(ncols) and math.isfinite(nrows)
    if not finite or ncols != int(ncols) or nrows != int(nrows) or ncols < 1 or nrows < 1:
        raise DemParseError("ncols/nrows must be positive integers", line=1)
    return int(nrows), int(ncols), header.get("nodata_value"), data_start


# rows of an ESRI grid that one np.loadtxt call of the block reader takes
_ESRI_BLOCK_LINES = 64
# the bytes of a file line the block reader takes, besides its line end:
# str.splitlines() and str.split(), which the token pass reads by, break
# at no other ASCII byte, and a lone \r ends a line in a file read as text
_ESRI_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t"


def _plain_line(raw: bytes) -> str:
    """The file line ``raw`` without its ``\\n`` or ``\\r\\n``; a ValueError
    unless the rest is printable ASCII and tabs."""
    raw = raw.removesuffix(b"\n").removesuffix(b"\r")
    if raw.translate(None, _ESRI_PLAIN_BYTES):
        raise ValueError("not a plain ASCII line")
    return raw.decode("ascii")


def _esri_blocks(lines: Iterable[str], size: int, step: float, datum: float) -> Dem | None:
    """The Dem of the ESRI grid in ``lines``, read from a source of
    ``size`` bytes or characters, or None where :func:`_esri_by_token`
    must read it.

    The header is read by the token pass's rules (:func:`_esri_header`),
    and the first data line, which the header reader has taken, is put
    back before the rest. The data are parsed by ``np.loadtxt`` a block
    of lines at a time, about _ESRI_BLOCK_LINES rows of cells, and each
    block's cells are placed by count, so a row may wrap across lines,
    and quantized in their own float buffer straight into the raster's
    int64 levels and mask: no float grid, nor the text of a file, is
    held whole. Any fault gives None: a file line that is not plain ASCII
    (:func:`_plain_line`), a header fault, a block ``np.loadtxt`` refuses
    (ragged lines, ``1_0``), other than nrows*ncols cells, no data cell,
    a bad step or datum, a level or volume out of range. The token pass
    then gives the result or the error, with its line, column and order.
    """
    lines = iter(lines)
    head = []  # the lines the header reader takes, the first data line last

    def taken():
        for line in lines:
            head.append(line)
            yield line

    try:
        _check_step_and_datum(step, datum)
        nrows, ncols, nodata, data_start = _esri_header(taken())
        # the token pass's guard on the text's length, taken on a size no
        # smaller (a grid it lets through may still be short), and a
        # header with no data line after it
        if nrows * ncols > (size + 1) // 2 or len(head) == data_start:
            return None
        first = head[data_start]
        block = _ESRI_BLOCK_LINES * -(-ncols // len(first.split()))
        data = chain([first], lines)
        levels = np.empty((nrows, ncols), dtype=np.int64)
        present = np.empty((nrows, ncols), dtype=bool)
        cell = 0
        while chunk := list(islice(data, block)):
            # np.loadtxt warns on a block without data
            chunk = [line for line in chunk if line and not line.isspace()]
            if not chunk:
                continue
            cells = np.loadtxt(chunk, comments=None).reshape(-1)
            del chunk
            end = cell + cells.size
            if end > levels.size:
                return None
            mask = np.isfinite(cells)
            if nodata is not None:
                mask &= cells != nodata
            _levels_in_place(cells, mask, step, datum)
            levels.reshape(-1)[cell:end] = cells
            present.reshape(-1)[cell:end] = mask
            cell = end
            del cells, mask  # not held while the next block is read
        if cell < levels.size:
            return None
        return Dem._adopt(levels, present)
    except (DemError, ValueError):
        return None


def _last_data_line(lines: list[str], data_start: int) -> int:
    """1-based number of the last line holding a token (data_start if none)."""
    for lineno in range(len(lines), data_start, -1):
        if lines[lineno - 1].split():
            return lineno
    return data_start


def _esri_by_token(text: str, step: float, datum: float) -> Dem:
    """The Dem of the ESRI grid ``text``, its data read one token at a
    time with ``float``; the first fault raises :class:`DemParseError`,
    naming its line and column, and a bad step or datum is refused after
    every fault of the grid."""
    lines = text.splitlines()
    nrows, ncols, nodata, data_start = _esri_header(lines)
    count = nrows * ncols
    # every cell needs a token and a separator: a header that claims more
    # cells than the text can hold is short before the grid is allocated
    if count > (len(text) + 1) // 2:
        cells = sum(len(line.split()) for line in lines[data_start:])
        raise DemParseError(f"grid ended after {cells} of {count} cells",
                            line=_last_data_line(lines, data_start))
    grid = np.empty(count, dtype=np.float64)
    filled = 0
    for lineno in range(data_start + 1, len(lines) + 1):
        for colno, tok in enumerate(lines[lineno - 1].split(), start=1):
            if filled >= count:
                raise DemParseError("grid has more cells than nrows*ncols",
                                    line=lineno, column=colno)
            try:
                grid[filled] = float(tok)
            except ValueError:
                raise DemParseError(f"non-numeric token {tok!r}",
                                    line=lineno, column=colno)
            filled += 1
    if filled < count:
        raise DemParseError(f"grid ended after {filled} of {count} cells",
                            line=_last_data_line(lines, data_start))
    grid = grid.reshape(nrows, ncols)
    present = np.isfinite(grid)
    if nodata is not None:
        present &= grid != nodata
    if not present.any():
        raise DemParseError("grid contains no data cells",
                            line=_last_data_line(lines, data_start))
    _check_step_and_datum(step, datum)
    return _quantize_in_place(grid, present, step, datum)


def parse_fixture_csv(text: str) -> Dem:
    """Parse the internal fixture CSV (integer cells, empty = masked).

    Rows shorter than the longest are padded with masked cells. A text
    made only of ASCII digits, commas, spaces, tabs and line breaks is
    read by one ``np.loadtxt`` call (:func:`_fixture_grid`) into an int64
    grid with -1 at the empty fields, whose mask is ``grid >= 0``. Any
    other text, and any text ``np.loadtxt`` refuses (a cell past int64,
    ``1 2``, a field of blanks only), is read by
    :func:`_fixture_cells_by_line`, each cell once with ``int``, which
    also takes ``+5``, ``1_0`` and Arabic-Indic digits. The first cell
    that is not an integer, or lies outside the int64 range, raises a
    :class:`DemParseError` naming its line and column.
    """
    lines = text.splitlines()
    if not lines:
        raise DemParseError("empty fixture", line=1)
    width = max(line.count(",") for line in lines) + 1
    grid = None if text.translate(_CSV_BULK_CHARS) else _fixture_grid(lines, width)
    if grid is None:
        values, mask = _fixture_cells_by_line(lines, width)
    else:
        values, mask = grid, grid >= 0  # the Dem zeroes the -1 of empty fields
    try:
        # copied like a caller's arrays: handing the grid over uncopied
        # (Dem._adopt) raised oracle-check's peak RSS by 1.2 %, a glibc
        # heap-layout effect (with MALLOC_MMAP_THRESHOLD_ fixed, within 0.3 %)
        return Dem(values, mask)
    except DemError as exc:
        raise DemParseError(str(exc), line=1)


# the characters of a text the bulk CSV path reads: with no sign, point,
# exponent or non-ASCII digit, np.loadtxt and int agree on every integer
# field, and a -1 in the padded text can only stand for an empty field
_CSV_BULK_CHARS = dict.fromkeys(map(ord, "0123456789, \t\r\n"))


def _fixture_grid(lines: list[str], width: int) -> np.ndarray | None:
    """The fixture's cells as one int64 grid with -1 at empty fields, or
    None when ``np.loadtxt`` refuses them."""
    # every line becomes ",f1,...,fw," (padded to width fields, then
    # wrapped in commas), so each empty field lies between two commas and
    # two passes fill every run of them: ",,," -> ",-1,," -> ",-1,-1,".
    # Padded one line at a time as np.loadtxt reads them, so no padded
    # copy of the text or raster-sized list is held beside the grid.
    padded = (f",{line}{',' * (width - line.count(','))}"
              .replace(",,", ",-1,").replace(",,", ",-1,") for line in lines)
    try:
        return np.loadtxt(padded, delimiter=",", dtype=np.int64, comments=None,
                          ndmin=2, usecols=range(1, width + 1))
    except (ValueError, OverflowError):
        return None


def _fixture_cells_by_line(lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixture's (values, mask) grids, each cell read once by ``int``
    and each line written as one row; the first cell that is not an int64
    raises, naming its line and column."""
    values = np.zeros((len(lines), width), dtype=np.int64)
    mask = np.zeros((len(lines), width), dtype=bool)
    for lineno, line in enumerate(lines, start=1):
        row = list(map(str.strip, line.split(",")))
        cells = []  # the line's cells up to the first one int refuses
        try:
            for tok in row:
                cells.append(int(tok) if tok else 0)
        except ValueError:
            pass
        if len(cells) < len(row) or max(cells) > _I64_MAX or min(cells) < -_I64_MAX:
            # every converted cell precedes the refused one: a cell past
            # int64 among them is the first bad cell
            colno = next((c for c, v in enumerate(cells, start=1) if abs(v) > _I64_MAX),
                         len(cells) + 1)
            tok = row[colno - 1]
            raise DemParseError(f"cell {tok!r} outside the int64 range"
                                if colno <= len(cells) else f"non-integer cell {tok!r}",
                                line=lineno, column=colno)
        values[lineno - 1, :len(row)] = cells
        mask[lineno - 1, :len(row)] = list(map(bool, row))
    return values, mask


# ---------------------------------------------------------------------------
# Whole-raster operations
# ---------------------------------------------------------------------------


def volume(dem: Dem) -> int:
    """Sum of all present elevations (masked cells store 0)."""
    return int(dem.values.sum(dtype=np.int64))


def row_interval(dem: Dem, r: int) -> tuple[int, int] | None:
    """(first, last) column of row ``r`` if it is one unbroken interval.

    Returns None for an empty row; raises for a row with gaps.
    """
    cols = np.flatnonzero(dem.mask[r])
    if cols.size == 0:
        return None
    lo, hi = int(cols[0]), int(cols[-1])
    if cols.size != hi - lo + 1:
        raise DemError(f"row {r} is not a single interval")
    return lo, hi


def reflect_rows(dem: Dem, subset: Iterable[int]) -> Dem:
    """Mirror the selected rows within their own column interval.

    Every selected row must be an integer in ``0..height-1`` (a negative
    index is refused, not counted from the end) and a single unbroken
    interval; the cell at column j moves to column (hi - j + lo). Other
    rows are untouched.
    """
    values = np.array(dem.values)
    for r in sorted({operator.index(r) for r in subset}):
        if not 0 <= r < dem.height:
            raise ValueError(f"row {r} is outside 0..{dem.height - 1}")
        interval = row_interval(dem, r)
        if interval is None:
            continue
        lo, hi = interval
        values[r, lo:hi + 1] = values[r, lo:hi + 1][::-1]
    return Dem(values, dem.mask)


def scale_heights(dem: Dem, k: int) -> Dem:
    """Multiply every present elevation by the integer factor ``k >= 1``
    (an int or numpy integer: a float raises ``TypeError``, not truncated)."""
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"scale factor must be >= 1, got {k}")
    if dem.zmax > _I64_MAX // k:
        raise OverflowError("scaled elevations overflow the elevation type")
    return Dem(dem.values * np.int64(k), dem.mask)
