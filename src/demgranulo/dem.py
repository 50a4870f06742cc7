"""Masked integer elevation rasters: data model, ingestion, geometry.

A :class:`Dem` is an immutable raster of non-negative integer elevations
over a possibly non-rectangular domain. Cells outside the domain are
"absent" (masked). Freshly ingested rasters always carry elevations
``>= 1``; morphological operators may lower present cells to ``0``,
which is why the type itself only requires non-negative values.
``scan_lines`` splits each lattice line of ``_kernels.line_layout``, the
kernels' one definition of the lines, into its mask's segments.

Both parsers read their cells in bulk. ``parse_esri_ascii`` has one
reader, which takes the lines of a grid: those of a text, or of a
regular file (as the CLI gives every ``.asc`` input), decoded and split
one file line at a time. It reads the header line by line, then the
data in blocks of whole lines, about 64K characters each, through
``np.loadtxt``, each block quantized straight into the raster's levels
and mask, so a float grid, and a file's text, are never held whole. The
levels are built in the narrowest dtype that holds the top level seen so
far, widened when a block's top level needs it. A block ``np.loadtxt``
refuses (ragged lines, a bad token, or one Python's ``float`` accepts
and it does not: ``1_0``, Arabic-Indic digits), or one that would
overfill the grid, is read where it stands one token at a time, and a
bad token raises there, naming its line and column. A file the
reader refuses is read again as text from the handle already open, and
that text goes through the same reader, so its error is the text's. A
path that is not a regular file (a pipe, ``/dev/stdin``, a FIFO) can be
read only once, so its text is read first and goes to the reader once.

``parse_fixture_csv`` reads a text of ASCII digits, commas and
blanks with one ``np.loadtxt`` call, its empty fields written as -1;
any other text, or one ``np.loadtxt`` refuses, is read in one pass, each
cell once by ``int`` and each line written into the grid as one row; the
first bad cell raises, naming its line and column. ``quantize`` and
the ESRI reader hand the levels they build, in the dtype the raster
keeps, to the :class:`Dem` without a copy. The writers render a raster a
row at a time from the row's Python lists of values and mask.
"""

from __future__ import annotations

import io
import math
import operator
import os
import stat
from itertools import chain, groupby
from typing import Iterable, Iterator, Sequence

import numpy as np

# defined numpy-free in _base, and part of this module's interface
from ._base import (DIRECTION_STEPS, DIRECTIONS, SE_FOR_DIRECTION,  # noqa: F401
                    DemError, DemParseError, FrozenRecord, _check_step_and_datum)
from ._kernels import line_layout

_ESRI_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
_I64_MAX = 2**63 - 1


class Dem(FrozenRecord):
    """Masked integer raster. ``values`` holds 0 at absent cells.

    ``values`` comes in the narrowest signed dtype that holds the top
    level (int8 up to 127 levels, int16 up to 32767), so arithmetic that
    can leave that range must widen first, to int64 as the volume sums
    do. A raster holds its two read-only arrays and nothing else: no spectrum
    or curve derived from it is kept on it. The constructor copies both.
    It takes values of any dtype, but a present value must be a finite
    integer: ``1.5`` is refused, not truncated, and absent cells are
    never read, so they may hold NaN. Frozen and unhashable; two rasters
    are equal when their masks and values are.
    """

    _fields = ("values", "mask")

    def __init__(self, values: np.ndarray, mask: np.ndarray):
        values = np.asarray(values)
        # a copy: the caller's own mask stays writeable and its own
        mask = np.array(mask, dtype=bool, order="C")
        if values.ndim != 2 or mask.shape != values.shape:
            raise DemError("values and mask must be 2-D arrays of equal shape")
        if values.dtype.kind not in "biu":
            values = _integer_levels(values, mask)
        # reduced over the present cells only: the absent ones are never read
        if values.min(initial=0, where=mask) < 0:
            raise DemError("present elevations must be non-negative")
        top = int(values.max(initial=0, where=mask))
        if top > _I64_MAX:
            raise DemError("elevations too large: the volume would overflow int64")
        levels = np.zeros(values.shape, dtype=_level_dtype(top))
        np.copyto(levels, values, casting="unsafe", where=mask)
        self._seal(levels, mask)

    @classmethod
    def _adopt(cls, values: np.ndarray, mask: np.ndarray) -> "Dem":
        """A Dem over arrays the package has just built, without a copy.

        ``values`` must be a C-contiguous signed integer array, non-negative
        and 0 at the absent cells, and ``mask`` a C-contiguous bool array of
        its shape. Both become read-only, so no other holder may write to
        them; values in a dtype wider than the raster needs are narrowed.
        """
        dem = cls.__new__(cls)
        dem._seal(values, mask)
        return dem

    def _seal(self, values: np.ndarray, mask: np.ndarray) -> None:
        """Store ``values``, in the narrowest signed dtype that holds the top
        level, and ``mask`` read-only once the domain holds a cell and the
        volume fits int64."""
        if not mask.any():
            raise DemError("domain is empty (all cells masked)")
        top = int(values.max())
        # bounds the volume, and with it every slab and loss sum
        if top * int(np.count_nonzero(mask)) > _I64_MAX:
            raise DemError("elevations too large: the volume would overflow int64")
        values = values.astype(_level_dtype(top), copy=False)
        values.flags.writeable = False
        mask.flags.writeable = False
        vars(self).update(values=values, mask=mask)

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
        return int(self.values.min(initial=np.iinfo(self.values.dtype).max, where=self.mask))

    @property
    def zmax(self) -> int:
        # absent cells hold 0, which no present level is below
        return int(self.values.max())

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
        grid one level up (see :func:`quantize`). A present cell equal to
        ``nodata``, which the parser would mask, raises ``ValueError``.
        """
        # compared as the parser reads the header's value
        if (self.mask & (self.values == float(str(nodata)))).any():
            raise ValueError(f"a present cell holds the NODATA value {nodata}")
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


def _level_dtype(top: int) -> np.dtype:
    """The narrowest signed dtype that holds the levels 0..``top``."""
    return np.min_scalar_type(-1 - top)


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


class Segment(FrozenRecord):
    """Maximal contiguous run of domain cells on one scan line (frozen)."""

    _fields = ("row0", "col0", "values")

    def __init__(self, row0: int, col0: int, values: tuple[int, ...]):
        vars(self).update(row0=row0, col0=col0, values=values)

    def __len__(self):
        return len(self.values)


class ScanLine(FrozenRecord):
    """One lattice line of the raster in a given direction (frozen).

    ``segments`` are ordered by increasing lattice coordinate along the
    direction; concatenating them reproduces exactly the domain cells on
    the line. Lines whose cells are all masked carry no segments.
    """

    _fields = ("direction", "index", "segments")

    def __init__(self, direction: str, index: int, segments: tuple[Segment, ...]):
        vars(self).update(direction=direction, index=index, segments=segments)

    @property
    def cell_count(self):
        return sum(len(s) for s in self.segments)


def scan_lines(dem: Dem, direction: str) -> list[ScanLine]:
    """Decompose the domain into 1-D scans along ``direction``.

    Every domain cell lands in exactly one segment of exactly one line;
    gaps in the mask split a lattice line into several segments. The
    lines, their order and their cells are those of
    :func:`_kernels.line_layout`.
    """
    starts, lengths, step = line_layout(dem.values.shape, direction)
    values, mask = dem.values.ravel().tolist(), dem.mask.ravel().tolist()
    lines = []
    for index, (start, length) in enumerate(zip(starts.tolist(), lengths.tolist())):
        segments = []
        for present, run in groupby(range(start, start + length * step, step),
                                    mask.__getitem__):
            if present:
                cells = list(run)
                segments.append(Segment(*divmod(cells[0], dem.width),
                                        tuple(values[i] for i in cells)))
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
    # the levels are built in the copy's own buffer and cast once to the
    # raster's dtype, which the Dem adopts
    top = _levels_in_place(levels, present, step, datum)
    return Dem._adopt(levels.astype(_level_dtype(top)), present)


def _levels_in_place(levels: np.ndarray, present: np.ndarray,
                     step: float, datum: float) -> int:
    """Turn the float64 elevations ``levels`` into their quantized levels,
    in their own buffer: 0 where ``present`` is False. Returns the top level.

    floor((z - datum) / step) + 1 is computed step by step and clamped at
    1, so no float outside int64 reaches the caller's integer conversion;
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
    top = np.nanmax(levels)
    if top >= 2**62:
        raise DemError("quantized levels overflow the elevation type")
    return int(top)


def parse_esri_ascii(source: str | os.PathLike, *, step: float = 1.0,
                     datum: float = 0.0) -> Dem:
    """Parse an ESRI ASCII grid, given as its text or as the path of a
    UTF-8 file, and quantize it into a Dem.

    The header must provide ncols, nrows, xllcorner and yllcorner (or
    xllcenter and yllcenter) and cellsize (any case), optionally
    NODATA_value; data rows follow, top row first. Cells equal to the
    declared NODATA value, or non-finite, are masked out.

    One reader, :func:`_esri_read`, takes the grid's lines and raises
    its errors, each naming its line and column. A text, or the text of
    a path that is not a regular file (a pipe, ``/dev/stdin``, a FIFO,
    which can be read only once), goes to it once. A regular file (a
    path, an ``os.PathLike``, not a ``str``) streams into it one line at
    a time, a line ending at ``\n``, ``\r`` or ``\r\n``. A file it
    refuses is read again as text, from the handle already open, and
    that text goes through the same reader, so the error is the text's
    own: a file that is not UTF-8 raises the text's
    ``UnicodeDecodeError``, and the size guard counts the text's
    characters, not the file's bytes. A file whose only line breaks are
    others that ``str.splitlines`` knows (``\x0b``-``\x1e``, ``\x85``,
    U+2028, U+2029) parses the same, but as one line held whole.
    """
    if isinstance(source, os.PathLike):
        # the file is opened once: a pipe or FIFO can be read only once
        with open(source, "rb") as f:
            info = os.fstat(f.fileno())
            if stat.S_ISREG(info.st_mode):
                # a line of newline="" ends at \n, \r or \r\n, and no
                # other break spans two of them, so the lines of each are
                # the lines of the whole text
                text = io.TextIOWrapper(f, encoding="utf-8", newline="")
                try:
                    return _esri_read(chain.from_iterable(map(str.splitlines, text)),
                                      info.st_size, step, datum)
                except (DemError, ValueError):
                    text.detach()
                    f.seek(0)
            with io.TextIOWrapper(f, encoding="utf-8") as text:
                source = text.read()
    return _esri_read(source.splitlines(), len(source), step, datum)


def _esri_header(lines: Iterable[str]) -> tuple[int, int, float | None, int, str | None]:
    """Read an ESRI grid's header from its ``lines``, up to the first data line.

    Returns nrows, ncols, the NODATA value (None when the header has
    none), the number of lines before the data and the first data line,
    the last one taken from ``lines`` (None when there is none). A line
    whose first token is not a number (nan and inf are) is a header
    entry, a key and a value; blank lines are skipped. A missing key, a
    malformed entry, or a count that is not a positive integer raises
    :class:`DemParseError`.
    """
    header: dict[str, float] = {}
    data_start, first = 0, None
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
        data_start, first = lineno - 1, line
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
    return int(nrows), int(ncols), header.get("nodata_value"), data_start, first


# characters of ESRI data text that one np.loadtxt call takes, in whole
# lines: a block's memory does not depend on how its rows are wrapped
_ESRI_BLOCK_CHARS = 1 << 16


def _esri_read(lines: Iterable[str], size: int, step: float, datum: float) -> Dem:
    """The Dem of the ESRI grid in ``lines``, read from a source of
    ``size`` bytes or characters.

    The header is read line by line (:func:`_esri_header`), which hands
    back the first data line it took. The data are read a block of whole
    lines at a time, about _ESRI_BLOCK_CHARS characters of text however
    its rows are wrapped. ``np.loadtxt`` parses each block; a block it
    refuses (ragged lines, ``1_0``, a bad token), or one that would
    overfill the grid, is read one token at a time (:func:`_esri_tokens`).
    The cells are placed by count, so a row may wrap across lines, and
    each block's are quantized in their own float buffer straight into
    the raster's levels and mask: no float grid, nor the text of a file,
    is held whole. The level grid is allocated at the first block, in the
    narrowest dtype that holds its top level, and widened by one
    ``astype`` when a later block's top level does not fit.

    The grid's faults raise :class:`DemParseError`, naming their line and
    column, in the order of its text: a header fault; a header that
    claims more cells than ``size`` can hold, raised once the rest is
    read to count its tokens; a bad token or one past nrows*ncols; too
    few cells; no data cell. A bad step or datum, then a level out of
    range, are raised only after every fault of the grid.
    """
    lines = iter(lines)
    nrows, ncols, nodata, data_start, first = _esri_header(lines)
    count = nrows * ncols
    data = chain([first] if first else (), lines)
    # every cell needs a token and a separator: a header that claims more
    # cells than the source can hold is short before the grid is allocated
    if first is None or count > (size + 1) // 2:
        cells, last = 0, data_start
        for lineno, line in enumerate(data, start=data_start + 1):
            if tokens := len(line.split()):
                cells, last = cells + tokens, lineno
        raise DemParseError(f"grid ended after {cells} of {count} cells", line=last)
    held = None  # a bad step or datum, or a level overflow: raised last
    try:
        _check_step_and_datum(step, datum)
    except ValueError as exc:
        held = exc
    levels = None  # allocated at the first block, in the dtype it needs
    present = np.empty(count, dtype=bool)
    cell, last, end = 0, data_start, data_start  # end: the last line read
    while chunk := _take_text(data, _ESRI_BLOCK_CHARS):
        at, end = end + 1, end + len(chunk)
        rows = []  # np.loadtxt warns on a block without data
        for lineno, line in enumerate(chunk, start=at):
            if line and not line.isspace():
                rows.append(line)
                last = lineno
        if not rows:
            continue
        try:
            cells = np.loadtxt(rows, comments=None).reshape(-1)
        except ValueError:
            cells = None
        if cells is None or cells.size > count - cell:
            cells = _esri_tokens(chunk, at, count - cell)
        del chunk, rows
        mask = np.isfinite(cells)
        if nodata is not None:
            mask &= cells != nodata
        present[cell:cell + cells.size] = mask
        if held is None:
            try:
                top = _levels_in_place(cells, mask, step, datum)
            except DemError as exc:
                held = exc
            else:
                if levels is None:
                    levels = np.empty(count, dtype=_level_dtype(top))
                elif top > np.iinfo(levels.dtype).max:
                    levels = levels.astype(_level_dtype(top))
                levels[cell:cell + cells.size] = cells
        cell += cells.size
        del cells, mask  # not held while the next block is read
    if cell < count:
        raise DemParseError(f"grid ended after {cell} of {count} cells", line=last)
    if not present.any():
        raise DemParseError("grid contains no data cells", line=last)
    if held is not None:
        raise held
    return Dem._adopt(levels.reshape(nrows, ncols), present.reshape(nrows, ncols))


def _take_text(lines: Iterator[str], chars: int) -> list[str]:
    """The next lines of ``lines``, up to the first that brings their
    characters, each with its line end, to ``chars``."""
    taken, size = [], 0
    for line in lines:
        taken.append(line)
        size += len(line) + 1
        if size >= chars:
            break
    return taken


def _esri_tokens(chunk: list[str], at: int, room: int) -> np.ndarray:
    """The cells of the ESRI data lines ``chunk``, the first of them line
    ``at``, each token read by ``float``, which also takes ``1_0`` and
    Arabic-Indic digits. A token ``float`` refuses, or one past the
    ``room`` cells the grid has left, raises :class:`DemParseError`,
    naming its line and column."""
    # every token takes a character and a separator
    cells = np.empty(min(room, sum(len(line) + 1 for line in chunk) // 2),
                     dtype=np.float64)
    filled = 0
    for lineno, line in enumerate(chunk, start=at):
        for colno, tok in enumerate(line.split(), start=1):
            if filled >= room:
                raise DemParseError("grid has more cells than nrows*ncols",
                                    line=lineno, column=colno)
            try:
                cells[filled] = float(tok)
            except ValueError:
                raise DemParseError(f"non-numeric token {tok!r}",
                                    line=lineno, column=colno)
            filled += 1
    return cells[:filled]


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
    and checked as it is read, and each line written as one row; the
    first cell that is not an int64 raises, naming its line and column."""
    values = np.zeros((len(lines), width), dtype=np.int64)
    mask = np.zeros((len(lines), width), dtype=bool)
    for lineno, line in enumerate(lines, start=1):
        row = list(map(str.strip, line.split(",")))
        cells = []
        for colno, tok in enumerate(row, start=1):
            try:
                cell = int(tok) if tok else 0
            except ValueError:
                raise DemParseError(f"non-integer cell {tok!r}", line=lineno, column=colno)
            if abs(cell) > _I64_MAX:
                raise DemParseError(f"cell {tok!r} outside the int64 range",
                                    line=lineno, column=colno)
            cells.append(cell)
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
    # widened first: the product may not fit the raster's own dtype
    return Dem(dem.values.astype(np.int64) * np.int64(k), dem.mask)
